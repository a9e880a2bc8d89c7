"""Building per-partition memory blocks from a temporal partitioning.

For every temporal partition the mapper collects:

* the environment inputs its tasks read (``B(env, t)``),
* the environment outputs its tasks produce (``B(t, env)``),
* the cross-boundary inputs produced by earlier partitions,
* the cross-boundary outputs consumed by later partitions, and
* pass-through data that is live in memory during the partition but neither
  read nor written by it (produced before, consumed after).

The resulting :class:`MemoryMap` is what the loop-fission analysis (Eq. 9) and
the RTL memory-access synthesis consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import MemoryMappingError
from ..partition.result import TemporalPartitioning
from .segments import MemoryBlock, MemorySegment, SegmentKind


@dataclass
class MemoryMap:
    """Per-partition memory blocks for one temporal partitioning."""

    blocks: Dict[int, MemoryBlock] = field(default_factory=dict)
    rounded: bool = False

    def block(self, partition_index: int) -> MemoryBlock:
        """The memory block of partition *partition_index*."""
        try:
            return self.blocks[partition_index]
        except KeyError:
            raise MemoryMappingError(f"no memory block for partition {partition_index}")

    @property
    def partition_indices(self) -> List[int]:
        """Partition indices in order."""
        return sorted(self.blocks)

    def per_iteration_words(self, partition_index: int) -> int:
        """``m_i_temp`` — allocated block words per loop iteration."""
        return self.block(partition_index).allocated_words

    def max_per_iteration_words(self) -> int:
        """``max_i m_i_temp`` — the denominator of the paper's Eq. 9."""
        return max(
            (block.allocated_words for block in self.blocks.values()), default=0
        )

    def total_wasted_words(self) -> int:
        """Total words lost to power-of-two rounding across all blocks."""
        return sum(block.wasted_words for block in self.blocks.values())

    def describe(self) -> str:
        """Multi-line summary of all blocks."""
        return "\n".join(
            self.blocks[index].describe() for index in self.partition_indices
        )


def build_memory_map(
    partitioning: TemporalPartitioning, round_to_power_of_two: bool = False
) -> MemoryMap:
    """Construct the :class:`MemoryMap` implied by *partitioning*.

    One pass over the tasks lays out each block's environment segments, in
    task order; one pass over the edges then appends each flow to its
    producer's block (cross output), every block in between (pass-through)
    and its consumer's block (cross input), so each block lists its flows
    in edge order.  A flow inside one partition lives in registers, and one
    that runs backwards (an invalid partitioning) gets no segment.

    When *round_to_power_of_two* is set, each block is rounded up so the
    address generator can use concatenation instead of a multiplier
    (Section 3); the wastage is recorded per block.
    """
    tasks, env_input, env_output, succ, _ = partitioning.graph.maps()
    assignment = partitioning.assignment
    blocks = {
        index: MemoryBlock(partition_index=index)
        for index in range(1, partitioning.partition_count + 1)
    }

    for name in tasks:
        block = blocks[assignment[name]]
        env_in = env_input[name]
        if env_in:
            block.add_segment(
                MemorySegment(
                    name=f"env_in:{name}",
                    words=env_in,
                    kind=SegmentKind.ENV_INPUT,
                    consumer_task=name,
                )
            )
        env_out = env_output[name]
        if env_out:
            block.add_segment(
                MemorySegment(
                    name=f"env_out:{name}",
                    words=env_out,
                    kind=SegmentKind.ENV_OUTPUT,
                    producer_task=name,
                )
            )

    for producer, consumers in succ.items():
        first = assignment[producer]
        for consumer, words in consumers.items():
            last = assignment[consumer]
            if words == 0 or first >= last:
                continue
            name = f"flow:{producer}->{consumer}"
            for index in range(first, last + 1):
                if index == first:
                    kind = SegmentKind.CROSS_OUTPUT
                elif index == last:
                    kind = SegmentKind.CROSS_INPUT
                else:
                    kind = SegmentKind.PASSTHROUGH
                blocks[index].add_segment(
                    MemorySegment(
                        name=name,
                        words=words,
                        kind=kind,
                        producer_task=producer,
                        consumer_task=consumer,
                    )
                )

    if round_to_power_of_two:
        for block in blocks.values():
            block.round_to_power_of_two()
    return MemoryMap(blocks=blocks, rounded=round_to_power_of_two)


def boundary_words_from_map(memory_map: MemoryMap, boundary: int) -> int:
    """Words live across *boundary* according to the memory map.

    This must agree with :meth:`TemporalPartitioning.boundary_words`; the
    redundancy is deliberate (the property tests cross-check the two
    implementations).
    """
    if boundary + 1 not in memory_map.blocks:
        raise MemoryMappingError(f"no partition after boundary {boundary}")
    following = memory_map.block(boundary + 1)
    live = 0
    for segment in following.segments:
        if segment.kind in (SegmentKind.CROSS_INPUT, SegmentKind.PASSTHROUGH):
            live += segment.words
    return live
