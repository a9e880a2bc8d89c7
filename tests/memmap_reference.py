"""The memory mapper as it was before it built every block in one pass.

:func:`reference_build_memory_map` rescans every task and every edge once
per partition, and :class:`ReferenceMemoryBlock` re-sums the whole block
for every segment offset.  Both are kept verbatim (the mapper builds
:class:`ReferenceMemoryBlock` instead of :class:`MemoryBlock`), so any
divergence of :func:`~repro.memmap.build_memory_map` (a segment, its
order, an offset or a block size) shows up as a failed comparison.
"""

from __future__ import annotations

from repro.errors import MemoryMappingError
from repro.memmap.mapper import MemoryMap
from repro.memmap.segments import MemoryBlock, MemorySegment, SegmentKind
from repro.partition.result import TemporalPartitioning


class ReferenceMemoryBlock(MemoryBlock):
    """A memory block whose offsets are the sum of every earlier segment."""

    def add_segment(self, segment: MemorySegment) -> None:
        """Append *segment* to the block layout."""
        if segment.name in self.offsets:
            raise MemoryMappingError(
                f"duplicate segment {segment.name!r} in memory block of "
                f"partition {self.partition_index}"
            )
        self.offsets[segment.name] = self.natural_words
        self.segments.append(segment)


def reference_build_memory_map(
    partitioning: TemporalPartitioning, round_to_power_of_two: bool = False
) -> MemoryMap:
    """Construct the :class:`MemoryMap` implied by *partitioning*.

    When *round_to_power_of_two* is set, each block is rounded up so the
    address generator can use concatenation instead of a multiplier
    (Section 3); the wastage is recorded per block.
    """
    graph = partitioning.graph
    memory_map = MemoryMap(rounded=round_to_power_of_two)

    for index in range(1, partitioning.partition_count + 1):
        block = ReferenceMemoryBlock(partition_index=index)
        members = set(partitioning.tasks_in_partition(index))

        # Environment inputs and outputs of the partition's own tasks.
        for name in partitioning.tasks_in_partition(index):
            env_in = graph.env_input_words(name)
            if env_in:
                block.add_segment(
                    MemorySegment(
                        name=f"env_in:{name}",
                        words=env_in,
                        kind=SegmentKind.ENV_INPUT,
                        consumer_task=name,
                    )
                )
            env_out = graph.env_output_words(name)
            if env_out:
                block.add_segment(
                    MemorySegment(
                        name=f"env_out:{name}",
                        words=env_out,
                        kind=SegmentKind.ENV_OUTPUT,
                        producer_task=name,
                    )
                )

        # Cross-boundary flows touching or passing through this partition.
        for producer, consumer in graph.edges():
            words = graph.edge_words(producer, consumer)
            if words == 0:
                continue
            producer_partition = partitioning.partition_of(producer)
            consumer_partition = partitioning.partition_of(consumer)
            if producer_partition == consumer_partition:
                continue  # internal to some partition: lives in registers
            name = f"flow:{producer}->{consumer}"
            if producer in members and consumer_partition > index:
                block.add_segment(
                    MemorySegment(
                        name=name,
                        words=words,
                        kind=SegmentKind.CROSS_OUTPUT,
                        producer_task=producer,
                        consumer_task=consumer,
                    )
                )
            elif consumer in members and producer_partition < index:
                block.add_segment(
                    MemorySegment(
                        name=name,
                        words=words,
                        kind=SegmentKind.CROSS_INPUT,
                        producer_task=producer,
                        consumer_task=consumer,
                    )
                )
            elif producer_partition < index < consumer_partition:
                block.add_segment(
                    MemorySegment(
                        name=name,
                        words=words,
                        kind=SegmentKind.PASSTHROUGH,
                        producer_task=producer,
                        consumer_task=consumer,
                    )
                )

        if round_to_power_of_two:
            block.round_to_power_of_two()
        memory_map.blocks[index] = block
    return memory_map
