"""Every whole-graph walk that reads ``TaskGraph.maps()`` matches its
accessor-based reference.

The annealer's move state, the coarsener's first level, the partition
infos and their cover check, the boundary volumes and the memory map read
the graph's own maps instead of one name-checking accessor per task and
edge end.  Each is compared here with the walk it replaced
(``walk_reference.py``, ``anneal_reference.py``, ``memmap_reference.py``)
on drawn graphs whose insertion order is not name order and not
topological order, with isolated tasks, zero-word edges and tasks holding
zero to three resource kinds, inserted in any kind order, under arbitrary
in-range assignments (order-violating ones and empty partitions included).
A pinned design fingerprint holds the 10k-task flow itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anneal_reference import reference_partition_infos
from memmap_reference import reference_build_memory_map
from walk_reference import (
    ReferenceMoveState,
    reference_boundary_words,
    reference_cover_check,
    reference_in_partition_chain_delays,
    reference_read,
    reference_violations,
)
from repro.arch import ResourceVector
from repro.errors import PartitioningError, SpecificationError
from repro.memmap import build_memory_map
from repro.partition import (
    LevelClusteringPartitioner,
    PartitionProblem,
    TemporalPartitioning,
    compute_metrics,
    validate_partitioning,
)
from repro.partition.anneal_partitioner import _MoveState
from repro.partition.hierarchy import _read
from repro.partition.result import in_partition_chain_delays
from repro.synth.flow_engine import FlowEngine, FlowJob
from repro.taskgraph import Task, TaskCost, TaskGraph
from repro.verify import design_fingerprint
from repro.workloads import get_workload

KINDS = ("clb", "dsp", "bram")

#: ``design_fingerprint`` of the ``random_layered_10k`` flow (default
#: graph, system and options, ``multilevel:list``) through ``FlowEngine``,
#: recorded before the walks read the graph's maps.
GOLDEN_10K_DESIGN = "76e726f6d756376ecfdcaefa9d510bb53e1fdca73ea35eca83a4533b9ec1d835"

WALK_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def walk_cases(draw):
    """``(problem, assignment, bound)``: a drawn graph and an assignment of
    its tasks to ``1..bound``."""
    count = draw(st.integers(min_value=1, max_value=12))
    names = draw(
        st.lists(
            st.text(alphabet="abqz07_", min_size=1, max_size=3),
            min_size=count, max_size=count, unique=True,
        )
    )
    # Edges run up a drawn rank, so topological order is neither insertion
    # nor name order.
    rank = draw(st.permutations(range(count)))
    graph = TaskGraph("walks")
    for name in names:
        kinds = draw(st.permutations(KINDS))[: draw(st.integers(min_value=0, max_value=3))]
        amounts = {kind: draw(st.integers(min_value=0, max_value=60)) for kind in kinds}
        delay = draw(st.sampled_from((0.0, 1e-9, 2.5e-9, 7e-9, 1.1e-8, 0.1 + 0.2)))
        graph.add_task(
            Task(name, cost=TaskCost(resources=ResourceVector(amounts), delay=delay)),
            env_input_words=draw(st.integers(min_value=0, max_value=4)),
            env_output_words=draw(st.integers(min_value=0, max_value=4)),
        )
    pairs = [(a, b) for a in range(count) for b in range(count) if rank[a] < rank[b]]
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * count)):
            graph.add_edge(names[a], names[b], draw(st.integers(min_value=0, max_value=9)))
    capacity = ResourceVector(
        {kind: draw(st.integers(min_value=0, max_value=150)) for kind in KINDS}
    )
    problem = PartitionProblem(
        graph, capacity, draw(st.integers(min_value=0, max_value=30)),
        draw(st.sampled_from((0.0, 1e-3, 5e-3))),
    )
    bound = draw(st.integers(min_value=1, max_value=min(count, 5)))
    assignment = {name: draw(st.integers(min_value=1, max_value=bound)) for name in names}
    return problem, assignment, bound


def _hex(values):
    return [value.hex() for value in values]


#: The move state's flat adjacency and amounts, and the rows built from
#: them; the reference holds per-task lists instead.
FLAT_FIELDS = (
    "pred_start", "pred_task", "pred_words", "succ_start", "succ_task", "succ_words",
    "amounts", "rows",
)


def _csr_row(start, task, words, index):
    """Task *index*'s ``(index, words)`` pairs in one CSR direction."""
    begin, end = start[index], start[index + 1]
    return list(zip(task[begin:end], words[begin:end]))


@given(walk_cases(), st.randoms(use_true_random=False))
@WALK_SETTINGS
def test_move_state_matches_its_accessor_reference(case, rng):
    problem, assignment, bound = case
    state = _MoveState(problem, assignment, bound)
    reference = ReferenceMoveState(problem, assignment, bound)
    fields = {key: value for key, value in vars(state).items() if key not in FLAT_FIELDS}
    expected = {
        key: value for key, value in vars(reference).items()
        if key not in ("preds", "succs", "amounts")
    }
    assert fields == expected
    assert _hex(state.delays) == _hex(reference.delays)

    count, width = len(state.names), len(state.kinds)
    assert len(state.pred_start) == len(state.succ_start) == count + 1
    assert state.pred_start[-1] == len(state.pred_task) == len(state.pred_words)
    assert state.succ_start[-1] == len(state.succ_task) == len(state.succ_words)
    assert len(state.amounts) == count * width
    rows = [
        (reference.preds[task], reference.succs[task], reference.amounts[task])
        for task in range(count)
    ]
    for task, (preds, succs, amounts) in enumerate(rows):
        assert _csr_row(state.pred_start, state.pred_task, state.pred_words, task) == preds
        assert _csr_row(state.succ_start, state.succ_task, state.succ_words, task) == succs
        assert state.amounts[task * width:(task + 1) * width] == amounts
    assert state.violations() == reference.violations()

    # A row is built the first time a move of its task is checked, and
    # only then.
    assert state.rows == [None] * count
    touched = set()
    for task in rng.sample(range(count), count):
        state.check_move(task, rng.randint(1, bound))
        touched.add(task)
        assert state.rows[task] == rows[task]
        assert [row is not None for row in state.rows] == [
            index in touched for index in range(count)
        ]


def _out_of_range_message(names, assignment, bound):
    """The error for the first task, in task order, outside ``1..bound``."""
    for name in names:
        if not 1 <= assignment[name] <= bound:
            return (
                f"task {name!r} assigned to partition {assignment[name]}, "
                f"outside 1..{bound}"
            )


def test_an_out_of_range_consumer_raises_before_the_crossing_walk():
    graph = TaskGraph("range")
    for name in ("a", "b"):
        graph.add_task(Task(name, cost=TaskCost(ResourceVector({"clb": 1}), 1e-9)))
    graph.add_edge("a", "b", 3)
    problem = PartitionProblem(graph, ResourceVector({"clb": 10}), 100, 0.0)
    with pytest.raises(PartitioningError) as raised:
        _MoveState(problem, {"a": 1, "b": 5}, 2)
    assert str(raised.value) == "task 'b' assigned to partition 5, outside 1..2"


@given(walk_cases(), st.data())
@WALK_SETTINGS
def test_any_out_of_range_partition_raises_partitioning_error(case, data):
    problem, assignment, bound = case
    names = problem.graph.task_names()
    moved = data.draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
    for name in moved:
        assignment[name] = data.draw(
            st.sampled_from((-1, 0, bound + 1, bound + 2, bound + 9))
        )
    with pytest.raises(PartitioningError) as raised:
        _MoveState(problem, assignment, bound)
    assert str(raised.value) == _out_of_range_message(names, assignment, bound)


@given(walk_cases(), st.sampled_from((0.25, 0.5, 1.0)))
@WALK_SETTINGS
def test_first_level_matches_its_accessor_reference(case, cap_fraction):
    problem = case[0]
    state, level = _read(problem, cap_fraction)
    expected_state, expected_level = reference_read(problem, cap_fraction)
    assert state.names == expected_state.names
    assert list(state.columns.items()) == list(expected_state.columns.items())
    assert list(state.kind_orders.items()) == list(expected_state.kind_orders.items())
    for field in ("env_in", "env_out", "cap"):
        got, expected = getattr(state, field), getattr(expected_state, field)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), field
    for field in ("ident", "delay", "res", "kinds", "src", "dst", "words"):
        got, expected = getattr(level, field), getattr(expected_level, field)
        assert got.dtype == expected.dtype, field
        assert got.shape == expected.shape, field
        assert got.tobytes() == expected.tobytes(), field


@given(walk_cases())
@WALK_SETTINGS
def test_partition_infos_match_the_per_partition_walk(case):
    problem, assignment, bound = case
    graph = problem.graph
    chains = in_partition_chain_delays(graph, assignment)
    expected_chains = reference_in_partition_chain_delays(graph, assignment)
    assert list(chains) == list(expected_chains)
    assert _hex(chains.values()) == _hex(expected_chains.values())

    result = TemporalPartitioning(graph, assignment, bound, problem.reconfiguration_time)
    infos = result.partitions
    expected = reference_partition_infos(result)
    assert [info.index for info in infos] == [info.index for info in expected]
    assert [info.tasks for info in infos] == [info.tasks for info in expected]
    assert _hex(info.delay for info in infos) == _hex(info.delay for info in expected)
    assert [info.resources for info in infos] == [info.resources for info in expected]


@given(walk_cases(), st.data())
@WALK_SETTINGS
def test_cover_check_names_the_missing_and_extra_tasks(case, data):
    problem, assignment, bound = case
    graph = problem.graph
    names = graph.task_names()
    dropped = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    added = data.draw(st.lists(st.sampled_from(("ghost", "zz", "a_a")), unique=True))
    broken = {name: index for name, index in assignment.items() if name not in dropped}
    broken.update({name: 1 for name in added if name not in graph})
    if broken.keys() == set(names):
        TemporalPartitioning(graph, broken, bound, problem.reconfiguration_time)
        return
    with pytest.raises(PartitioningError) as expected:
        reference_cover_check(graph, broken)
    with pytest.raises(PartitioningError) as raised:
        TemporalPartitioning(graph, broken, bound, problem.reconfiguration_time)
    assert str(raised.value) == str(expected.value)


@given(walk_cases())
@WALK_SETTINGS
def test_boundary_volumes_match_the_per_boundary_walk(case):
    problem, assignment, bound = case
    result = TemporalPartitioning(
        problem.graph, assignment, bound, problem.reconfiguration_time
    )
    expected = [reference_boundary_words(result, b) for b in range(1, bound)]
    assert result.boundary_volumes() == expected
    assert [result.boundary_words(b) for b in range(1, bound)] == expected
    assert result.max_boundary_words() == max(expected, default=0)
    assert compute_metrics(result, problem.resource_capacity).boundary_words == expected
    assert validate_partitioning(problem, result).violations == reference_violations(
        problem, result
    )
    for boundary in (0, bound, -1):
        if bound == 1:
            assert result.boundary_words(boundary) == 0
            continue
        with pytest.raises(PartitioningError) as raised:
            result.boundary_words(boundary)
        with pytest.raises(PartitioningError) as reference:
            reference_boundary_words(result, boundary)
        assert str(raised.value) == str(reference.value)

    over = [b for b, words in enumerate(expected, start=1) if words > problem.memory_words]
    if not over:
        LevelClusteringPartitioner._check_memory(problem, result)
        return
    with pytest.raises(PartitioningError) as raised:
        LevelClusteringPartitioner._check_memory(problem, result)
    assert str(raised.value) == (
        f"level clustering produced a partitioning that needs {expected[over[0] - 1]} "
        f"words across boundary {over[0]}, exceeding the memory "
        f"constraint of {problem.memory_words} words"
    )


@given(walk_cases(), st.booleans())
@WALK_SETTINGS
def test_memory_map_matches_the_per_partition_rescan(case, rounded):
    problem, assignment, bound = case
    result = TemporalPartitioning(
        problem.graph, assignment, bound, problem.reconfiguration_time
    )
    memory_map = build_memory_map(result, round_to_power_of_two=rounded)
    reference = reference_build_memory_map(result, round_to_power_of_two=rounded)
    assert memory_map.rounded == reference.rounded
    assert list(memory_map.blocks) == list(reference.blocks)
    for index, expected in reference.blocks.items():
        block = memory_map.blocks[index]
        assert block.segments == expected.segments
        assert list(block.offsets.items()) == list(expected.offsets.items())
        assert block.allocated_words == expected.allocated_words


@given(walk_cases(), st.data())
@WALK_SETTINGS
def test_an_uncosted_task_still_raises(case, data):
    """Delays and resources are still read through ``Task.delay`` and
    ``Task.resources``: a task whose cost was removed after the problem
    was built raises the same error the accessor walks raise."""
    problem, assignment, bound = case
    graph = problem.graph
    name = data.draw(st.sampled_from(graph.task_names()))
    graph.task(name).cost = None
    walks = (
        (lambda: _MoveState(problem, assignment, bound),
         lambda: ReferenceMoveState(problem, assignment, bound)),
        (lambda: _read(problem, 0.5), lambda: reference_read(problem, 0.5)),
        (lambda: in_partition_chain_delays(graph, assignment),
         lambda: reference_in_partition_chain_delays(graph, assignment)),
    )
    for walk, reference in walks:
        with pytest.raises(SpecificationError) as raised:
            walk()
        with pytest.raises(SpecificationError) as expected:
            reference()
        assert str(raised.value) == str(expected.value)
    with pytest.raises(SpecificationError, match=repr(name)):
        TemporalPartitioning(graph, assignment, bound, problem.reconfiguration_time)


def test_the_maps_are_the_graphs_own():
    graph = TaskGraph("maps")
    graph.add_task(Task("b", cost=TaskCost(ResourceVector({"clb": 1}), 1e-9)), 2, 3)
    graph.add_task(Task("a", cost=TaskCost(ResourceVector({"clb": 2}), 2e-9)))
    graph.add_edge("b", "a", 0)
    maps = graph.maps()
    assert list(maps.tasks) == graph.task_names() == ["b", "a"]
    assert maps.tasks["a"] is graph.task("a")
    assert maps.env_input == {"b": 2, "a": 0} and maps.env_output == {"b": 3, "a": 0}
    assert maps.succ == {"b": {"a": 0}, "a": {}}
    assert maps.pred == {"b": {}, "a": {"b": 0}}
    # The maps are live: a later task and edge show up in them.
    graph.add_task(Task("c", cost=TaskCost(ResourceVector({}), 0.0)))
    graph.add_edge("a", "c", 4)
    assert maps.succ["a"] == {"c": 4} and maps.pred["c"] == {"a": 4}


def test_total_resources_equals_the_per_task_sum():
    graph = TaskGraph("totals")
    vectors = [{"dsp": 2, "clb": 5}, {}, {"bram": 1, "clb": 7}]
    for index, amounts in enumerate(vectors):
        graph.add_task(Task(f"t{index}", cost=TaskCost(ResourceVector(amounts), 1e-9)))
    expected = ResourceVector({})
    for amounts in vectors:
        expected = expected + ResourceVector(amounts)
    assert graph.total_resources() == expected == ResourceVector({"clb": 12, "dsp": 2, "bram": 1})


def test_random_layered_10k_design_is_pinned():
    workload = get_workload("random_layered_10k")
    job = FlowJob(
        graph=workload.build_graph(),
        system=workload.default_system(),
        options=replace(workload.flow_options(), partitioner="multilevel:list"),
        workload=workload.name,
    )
    report = FlowEngine().run_batch([job])[0]
    assert report.ok
    assert design_fingerprint(report.design) == GOLDEN_10K_DESIGN
