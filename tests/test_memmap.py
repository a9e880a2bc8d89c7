"""Tests for memory mapping and address generation (repro.memmap)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memmap_reference import reference_build_memory_map
from repro.errors import MemoryMappingError
from repro.memmap import (
    AddressGenerator,
    MemoryBlock,
    MemorySegment,
    SegmentKind,
    addressing_tradeoff,
    boundary_words_from_map,
    build_memory_map,
)
from repro.partition import TemporalPartitioning
from repro.taskgraph import Task, TaskGraph, clb_cost
from repro.units import ns


def make_block(sizes=(3, 5, 8)):
    block = MemoryBlock(partition_index=1)
    for index, words in enumerate(sizes):
        block.add_segment(
            MemorySegment(name=f"M{index + 1}", words=words, kind=SegmentKind.CROSS_INPUT)
        )
    return block


class TestMemoryBlock:
    def test_offsets_are_cumulative(self):
        block = make_block((3, 5, 8))
        assert block.offset_of("M1") == 0
        assert block.offset_of("M2") == 3
        assert block.offset_of("M3") == 8
        assert block.natural_words == 16

    def test_duplicate_segment_rejected(self):
        block = make_block()
        with pytest.raises(MemoryMappingError):
            block.add_segment(MemorySegment("M1", 1, SegmentKind.ENV_INPUT))

    def test_power_of_two_rounding(self):
        block = make_block((3, 5, 9))  # 17 words -> 32
        block.round_to_power_of_two()
        assert block.allocated_words == 32
        assert block.wasted_words == 15
        block.clear_rounding()
        assert block.allocated_words == 17

    def test_rounding_idempotent_for_powers_of_two(self):
        block = make_block((16, 16))
        block.round_to_power_of_two()
        assert block.allocated_words == 32
        assert block.wasted_words == 0

    def test_unknown_segment(self):
        with pytest.raises(MemoryMappingError):
            make_block().offset_of("nope")

    def test_input_output_words(self):
        block = MemoryBlock(partition_index=2)
        block.add_segment(MemorySegment("in", 4, SegmentKind.ENV_INPUT))
        block.add_segment(MemorySegment("xin", 6, SegmentKind.CROSS_INPUT))
        block.add_segment(MemorySegment("out", 2, SegmentKind.ENV_OUTPUT))
        block.add_segment(MemorySegment("xout", 1, SegmentKind.CROSS_OUTPUT))
        block.add_segment(MemorySegment("live", 9, SegmentKind.PASSTHROUGH))
        assert block.input_words() == 10
        assert block.output_words() == 3
        assert block.natural_words == 22


class TestMemoryMapDct:
    def test_dct_block_sizes(self, case_study_ilp):
        memory_map = case_study_ilp.memory_map
        # Partition 1: 16 env inputs + 16 cross outputs = 32 words (the paper's figure).
        assert memory_map.per_iteration_words(1) == 32
        # The limiting block is partition 1's.
        assert memory_map.max_per_iteration_words() == 32

    def test_dct_partition1_segment_kinds(self, case_study_ilp):
        block = case_study_ilp.memory_map.block(1)
        env_in = sum(s.words for s in block.segments_of_kind(SegmentKind.ENV_INPUT))
        cross_out = sum(s.words for s in block.segments_of_kind(SegmentKind.CROSS_OUTPUT))
        assert env_in == 16
        assert cross_out == 16

    def test_dct_later_partitions_io(self, case_study_ilp):
        memory_map = case_study_ilp.memory_map
        for index in (2, 3):
            block = memory_map.block(index)
            cross_in = sum(s.words for s in block.segments_of_kind(SegmentKind.CROSS_INPUT))
            env_out = sum(s.words for s in block.segments_of_kind(SegmentKind.ENV_OUTPUT))
            assert cross_in == 8
            assert env_out == 8

    def test_boundary_words_cross_check(self, case_study_ilp):
        memory_map = case_study_ilp.memory_map
        partitioning = case_study_ilp.partitioning
        for boundary in range(1, partitioning.partition_count):
            assert boundary_words_from_map(memory_map, boundary) == partitioning.boundary_words(boundary)

    def test_rounded_map_never_smaller(self, case_study_ilp):
        rounded = build_memory_map(case_study_ilp.partitioning, round_to_power_of_two=True)
        plain = case_study_ilp.memory_map
        for index in plain.partition_indices:
            assert rounded.per_iteration_words(index) >= plain.per_iteration_words(index)

    def test_rounding_wastage_accounting(self, case_study_ilp):
        # P1 (32 words) and P3 (16 words) are already powers of two; only the
        # middle partition's 24-word block (8 of which are pass-through data)
        # is rounded up, to 32 words.
        rounded = build_memory_map(case_study_ilp.partitioning, round_to_power_of_two=True)
        plain = case_study_ilp.memory_map
        expected_waste = sum(
            rounded.per_iteration_words(i) - plain.per_iteration_words(i)
            for i in plain.partition_indices
        )
        assert rounded.total_wasted_words() == expected_waste
        assert rounded.per_iteration_words(1) == 32


class TestMemoryMapPassthrough:
    def test_passthrough_segment_created(self):
        graph = TaskGraph("pass")
        graph.add_task(Task("a", cost=clb_cost(10, ns(1))), env_input_words=1)
        graph.add_task(Task("b", cost=clb_cost(10, ns(1))))
        graph.add_task(Task("c", cost=clb_cost(10, ns(1))), env_output_words=1)
        graph.add_edge("a", "b", words=2)
        graph.add_edge("a", "c", words=7)   # skips partition 2
        graph.add_edge("b", "c", words=3)
        partitioning = TemporalPartitioning(
            graph=graph,
            assignment={"a": 1, "b": 2, "c": 3},
            partition_count=3,
            reconfiguration_time=0.0,
        )
        memory_map = build_memory_map(partitioning)
        block2 = memory_map.block(2)
        passthrough = block2.segments_of_kind(SegmentKind.PASSTHROUGH)
        assert len(passthrough) == 1 and passthrough[0].words == 7
        assert boundary_words_from_map(memory_map, 1) == 9
        assert boundary_words_from_map(memory_map, 2) == 10


def _assert_matches_reference(partitioning):
    """Every block equals the one-partition-at-a-time reference's, rounded
    and unrounded: segments, their order, offsets and sizes."""
    for rounded in (False, True):
        memory_map = build_memory_map(partitioning, round_to_power_of_two=rounded)
        reference = reference_build_memory_map(partitioning, round_to_power_of_two=rounded)
        assert memory_map.rounded == reference.rounded
        assert list(memory_map.blocks) == list(reference.blocks)
        for index, expected in reference.blocks.items():
            block = memory_map.blocks[index]
            assert block.partition_index == expected.partition_index
            assert block.segments == expected.segments
            assert list(block.offsets.items()) == list(expected.offsets.items())
            assert block.natural_words == expected.natural_words
            assert block.allocated_words == expected.allocated_words


@st.composite
def _mapped_partitionings(draw):
    """Small DAGs with zero-word edges and environment I/O, under arbitrary
    assignments: long pass-through spans and backwards (order-violating)
    edges included."""
    count = draw(st.integers(min_value=1, max_value=9))
    graph = TaskGraph("memmap-draw")
    for index in range(count):
        graph.add_task(
            Task(f"t{index}", cost=clb_cost(10, ns(1))),
            env_input_words=draw(st.integers(min_value=0, max_value=3)),
            env_output_words=draw(st.integers(min_value=0, max_value=3)),
        )
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    edges = [
        (f"t{i}", f"t{j}", draw(st.integers(min_value=0, max_value=6)))
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    ]
    graph.add_edges(edges)
    partitions = draw(st.integers(min_value=1, max_value=6))
    assignment = {
        name: draw(st.integers(min_value=1, max_value=partitions))
        for name in graph.task_names()
    }
    return TemporalPartitioning(graph, assignment, partitions, reconfiguration_time=0.0)


class TestMemoryMapReference:
    @given(_mapped_partitionings())
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_the_reference(self, partitioning):
        _assert_matches_reference(partitioning)

    def test_every_edge_shape_matches_the_reference(self):
        """One graph with each shape the one-pass mapper must place."""
        graph = TaskGraph("shapes")
        for name, env_in, env_out in (
            ("a", 4, 0), ("b", 0, 0), ("c", 0, 2), ("d", 1, 1), ("e", 0, 3),
        ):
            graph.add_task(Task(name, cost=clb_cost(10, ns(1))), env_in, env_out)
        graph.add_edges([
            ("a", "e", 5),  # passes through partitions 2 and 3
            ("a", "b", 0),  # zero words: no segment anywhere
            ("b", "c", 2),
            ("d", "c", 6),  # runs backwards, from partition 3 to 2
            ("a", "d", 1),
            ("c", "e", 7),
        ])
        partitioning = TemporalPartitioning(
            graph=graph,
            assignment={"a": 1, "b": 2, "c": 2, "d": 3, "e": 4},
            partition_count=4,
            reconfiguration_time=0.0,
        )
        _assert_matches_reference(partitioning)
        memory_map = build_memory_map(partitioning)
        assert [s.name for s in memory_map.block(2).segments_of_kind(SegmentKind.PASSTHROUGH)] == [
            "flow:a->e", "flow:a->d",
        ]
        assert [s.name for s in memory_map.block(3).segments_of_kind(SegmentKind.PASSTHROUGH)] == [
            "flow:a->e", "flow:c->e",
        ]
        names = {s.name for block in memory_map.blocks.values() for s in block.segments}
        assert "flow:a->b" not in names and "flow:d->c" not in names


class TestAddressGenerator:
    def test_multiplier_addresses(self):
        block = make_block((3, 5, 8))
        generator = AddressGenerator(block, base_address=100, scheme="multiplier")
        assert generator.address(0, "M1", 0) == 100
        assert generator.address(0, "M2", 4) == 100 + 3 + 4
        assert generator.address(2, "M3", 1) == 100 + 2 * 16 + 8 + 1

    def test_concatenation_requires_power_of_two(self):
        block = make_block((3, 5, 9))
        with pytest.raises(MemoryMappingError):
            AddressGenerator(block, scheme="concatenation")

    def test_concatenation_matches_multiplier_on_rounded_blocks(self):
        block = make_block((3, 5, 9))
        block.round_to_power_of_two()
        concat = AddressGenerator(block, scheme="concatenation")
        mult = AddressGenerator(block, scheme="multiplier")
        for iteration in range(5):
            for segment in ("M1", "M2", "M3"):
                for location in range(block.segment(segment).words):
                    assert concat.address(iteration, segment, location) == mult.address(
                        iteration, segment, location
                    )

    def test_addresses_unique_across_iterations(self):
        block = make_block((4, 4))
        block.round_to_power_of_two()
        generator = AddressGenerator(block, scheme="concatenation")
        seen = set()
        for iteration in range(8):
            for segment in ("M1", "M2"):
                for address in generator.iter_segment_addresses(iteration, segment):
                    assert address not in seen
                    seen.add(address)

    def test_out_of_range_location_rejected(self):
        block = make_block((4,))
        generator = AddressGenerator(block, scheme="multiplier")
        with pytest.raises(MemoryMappingError):
            generator.address(0, "M1", 4)

    def test_negative_iteration_rejected(self):
        generator = AddressGenerator(make_block(), scheme="multiplier")
        with pytest.raises(MemoryMappingError):
            generator.address(-1, "M1", 0)

    def test_footprint_and_range(self):
        block = make_block((8, 8))
        generator = AddressGenerator(block, base_address=64, scheme="multiplier")
        assert generator.footprint_words(4) == 64
        assert generator.address_range(4) == (64, 128)

    def test_unknown_scheme(self):
        with pytest.raises(MemoryMappingError):
            AddressGenerator(make_block(), scheme="hash")

    def test_hardware_cost_concat_cheaper(self):
        block = make_block((3, 5, 8))
        trade = addressing_tradeoff(block)
        assert trade["concatenation_area_clbs"] < trade["multiplier_area_clbs"]
        assert trade["concatenation_delay"] < trade["multiplier_delay"]
        assert trade["wasted_words"] == trade["rounded_words"] - trade["natural_words"]

    def test_tradeoff_on_dct_partition1(self, case_study_ilp):
        block = case_study_ilp.memory_map.block(1)
        trade = addressing_tradeoff(block)
        # 32 words is already a power of two: no wastage at all for partition 1.
        assert trade["wasted_words"] == 0
