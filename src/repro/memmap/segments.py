"""Memory segments and memory blocks (Section 3, "Memory Access Synthesis").

Terminology follows the paper's Figure 6:

* a **memory segment** is the data of one inter-partition data flow (or the
  environment input/output of a partition) for a *single* loop iteration —
  e.g. ``M1``, ``M2``, ``M3`` in the figure;
* a **memory block** groups all segments a temporal partition touches for one
  iteration; its size is the partition's per-iteration memory requirement
  ``m_i_temp``;
* ``k`` copies of the block are laid out back to back in physical memory so
  that the partition can process ``k`` loop iterations per invocation, and
  the block may be rounded up to a power of two so that address generation
  degenerates to concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..errors import MemoryMappingError
from ..units import next_power_of_two


class SegmentKind(str, Enum):
    """Why a segment exists."""

    ENV_INPUT = "env_input"       # data read from the environment/host
    ENV_OUTPUT = "env_output"     # data written back to the environment/host
    CROSS_INPUT = "cross_input"   # produced by an earlier partition, read here
    CROSS_OUTPUT = "cross_output" # produced here, read by a later partition
    PASSTHROUGH = "passthrough"   # produced earlier, consumed later, merely live here


@dataclass(frozen=True)
class MemorySegment:
    """One per-iteration data flow stored in board memory."""

    name: str
    words: int
    kind: SegmentKind
    producer_task: Optional[str] = None
    consumer_task: Optional[str] = None

    def __post_init__(self) -> None:
        if self.words < 0:
            raise MemoryMappingError(
                f"segment {self.name!r} has negative size {self.words}"
            )


@dataclass
class MemoryBlock:
    """The per-iteration memory block of one temporal partition.

    Segments are laid out contiguously in declaration order; each segment's
    offset within the block is recorded so the address-generation hardware
    (and the behavioural simulator) can find it.
    """

    partition_index: int
    segments: List[MemorySegment] = field(default_factory=list)
    offsets: Dict[str, int] = field(default_factory=dict)
    rounded_words: Optional[int] = None

    def add_segment(self, segment: MemorySegment) -> None:
        """Append *segment* to the block layout."""
        if segment.name in self.offsets:
            raise MemoryMappingError(
                f"duplicate segment {segment.name!r} in memory block of "
                f"partition {self.partition_index}"
            )
        if self.segments:
            last = self.segments[-1]
            self.offsets[segment.name] = self.offsets[last.name] + last.words
        else:
            self.offsets[segment.name] = 0
        self.segments.append(segment)

    @property
    def natural_words(self) -> int:
        """Block size without any rounding (the paper's ``m_i_temp``)."""
        return sum(segment.words for segment in self.segments)

    @property
    def allocated_words(self) -> int:
        """Block size actually allocated (power-of-two rounded when enabled)."""
        if self.rounded_words is not None:
            return self.rounded_words
        return self.natural_words

    @property
    def wasted_words(self) -> int:
        """Words lost to power-of-two rounding."""
        return self.allocated_words - self.natural_words

    def round_to_power_of_two(self) -> None:
        """Round the block size up to the next power of two (Section 3)."""
        self.rounded_words = next_power_of_two(max(1, self.natural_words))

    def clear_rounding(self) -> None:
        """Undo :meth:`round_to_power_of_two` (multiplier-based addressing)."""
        self.rounded_words = None

    def offset_of(self, segment_name: str) -> int:
        """Word offset of *segment_name* within the block."""
        try:
            return self.offsets[segment_name]
        except KeyError:
            raise MemoryMappingError(
                f"memory block of partition {self.partition_index} has no "
                f"segment {segment_name!r}"
            )

    def segment(self, segment_name: str) -> MemorySegment:
        """Look up a segment by name."""
        for segment in self.segments:
            if segment.name == segment_name:
                return segment
        raise MemoryMappingError(
            f"memory block of partition {self.partition_index} has no segment "
            f"{segment_name!r}"
        )

    def segments_of_kind(self, kind: SegmentKind) -> List[MemorySegment]:
        """All segments of the given kind."""
        return [segment for segment in self.segments if segment.kind is kind]

    def input_words(self) -> int:
        """Words the partition reads per iteration (environment + cross-boundary)."""
        return sum(
            segment.words
            for segment in self.segments
            if segment.kind in (SegmentKind.ENV_INPUT, SegmentKind.CROSS_INPUT)
        )

    def output_words(self) -> int:
        """Words the partition writes per iteration (environment + cross-boundary)."""
        return sum(
            segment.words
            for segment in self.segments
            if segment.kind in (SegmentKind.ENV_OUTPUT, SegmentKind.CROSS_OUTPUT)
        )

    def describe(self) -> str:
        """One-line summary (segment names with sizes)."""
        parts = ", ".join(f"{s.name}({s.words}w)" for s in self.segments)
        rounded = (
            f", rounded to {self.allocated_words}w" if self.rounded_words is not None else ""
        )
        return (
            f"block P{self.partition_index}: {self.natural_words} words "
            f"[{parts}]{rounded}"
        )
