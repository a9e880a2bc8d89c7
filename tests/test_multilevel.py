"""The multilevel partitioner's refinement, checked against its reference.

:class:`~repro.partition.MultilevelPartitioner` refines the uncoarsened
assignment on the annealer's move state.  Its outcomes must be the ones the
from-scratch refinement in ``multilevel_reference.py`` gives from the same
start: the same assignment items in the same order, the same method and
the same number of accepted moves.  The golden digest pins the outcomes on
the bench tiers and the huge verification workload.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multilevel_reference import ReferenceRefiner
from repro.arch.catalog import generic_system
from repro.errors import PartitioningError
from repro.partition import MultilevelPartitioner, PartitionProblem, TemporalPartitioning
from repro.partition import hierarchy
from repro.partition.anneal_partitioner import _MoveState
from repro.taskgraph import Task, TaskGraph, clb_cost
from repro.taskgraph.builders import random_dsp_task_graph
from repro.units import ms, ns
from repro.workloads import get_workload

#: sha256 over every (case, inner, accepted moves, assignment items, method,
#: latency bits) or (case, inner, error) of :func:`_golden_runs`.
GOLDEN_MULTILEVEL = "cfdbb608720b033f38f65e099c0a761b99b9455aa6d13cf5835cd954c5f606ba"


def _tier_graph(task_count, delay_range_ns=(100, 800)):
    """The ``bench_huge_graphs`` tier shape, optionally with zero-delay tasks."""
    return random_dsp_task_graph(
        task_count=task_count,
        seed=0,
        max_level_width=24,
        edge_probability=0.08,
        delay_range_ns=delay_range_ns,
        name=f"tier-{task_count}-{delay_range_ns[0]}",
    )


def _system(clb_capacity, memory_words, reconfiguration_time):
    return generic_system(
        clb_capacity=clb_capacity,
        memory_words=memory_words,
        reconfiguration_time=reconfiguration_time,
    )


def _tier_problem(task_count, clbs_per_task, memory_words, delay_range_ns=(100, 800)):
    system = _system(clbs_per_task * task_count, memory_words, ms(5))
    return PartitionProblem.from_system(_tier_graph(task_count, delay_range_ns), system)


def _golden_cases():
    """``(case, problem, inner, max_coarse_tasks)`` of the golden digest.

    Every inner runs on the huge verification workload.  Between them the
    cases accept 0 moves (the 2000-task tier at 6 CLBs/task), 1-3 moves
    (the ILP inner on the workload, the level inner on zero-delay tasks)
    and the full 4, and they reject candidates for the temporal order
    (zero-delay chains), capacity, memory (the 2000-task tier at 1083
    words) and no gain.
    """
    workload = get_workload("verify_huge")
    huge = PartitionProblem.from_system(workload.build_graph(), workload.default_system())
    for inner in ("list", "level", "anneal", "portfolio", "ilp"):
        yield "verify_huge", huge, inner, 48
    loose = _tier_problem(400, 20, 1 << 20)
    for inner in ("list", "level", "anneal"):
        yield "tier400-c20", loose, inner, 48
    for inner in ("portfolio", "ilp"):
        yield "tier400-c20", loose, inner, 12
    zero_delay = _tier_problem(400, 20, 1 << 20, delay_range_ns=(0, 3))
    for inner in ("list", "level"):
        yield "tier400-c20-zero-delay", zero_delay, inner, 48
    yield "tier2000-c6-zero-delay", _tier_problem(2000, 6, 1 << 20, (0, 3)), "list", 48
    yield "tier2000-c60-m1083", _tier_problem(2000, 60, 1083), "level", 48
    yield "tier2000-c20", _tier_problem(2000, 20, 1 << 20), "portfolio", 12


def _golden_runs():
    for case, problem, inner, max_coarse_tasks in _golden_cases():
        partitioner = MultilevelPartitioner(inner=inner, max_coarse_tasks=max_coarse_tasks)
        try:
            result = partitioner.partition(problem)
        except PartitioningError as error:
            yield [case, inner, "error", str(error)]
            continue
        yield [
            case,
            inner,
            partitioner.last_report.refinement_moves,
            list(result.assignment.items()),
            result.method,
            result.total_latency.hex(),
        ]


def test_golden_outcomes_match_the_pinned_digest():
    """Multilevel outcomes are byte-identical to the pinned ones.  The ILP
    and portfolio inners end in a HiGHS solve, so their rows also pin the
    installed HiGHS's choice among equal coarse optima."""
    digest = hashlib.sha256()
    for row in _golden_runs():
        digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == GOLDEN_MULTILEVEL


def _summary(result, moves):
    return (list(result.assignment.items()), result.method, moves, result.total_latency.hex())


def _outcome(partitioner, problem):
    try:
        result = partitioner.partition(problem)
    except PartitioningError as error:
        return ("error", str(error))
    return _summary(result, partitioner.last_report.refinement_moves)


def _reference_outcome(problem, max_coarse_tasks):
    try:
        start = MultilevelPartitioner(
            inner="list", max_coarse_tasks=max_coarse_tasks, max_refine_moves=0
        ).partition(problem)
    except PartitioningError as error:
        return ("error", str(error))
    return _summary(*ReferenceRefiner(max_refine_moves=4).refine(problem, start))


_DSP_GRAPHS = st.builds(
    random_dsp_task_graph,
    task_count=st.integers(min_value=30, max_value=200),
    seed=st.integers(min_value=0, max_value=10 ** 6),
    max_level_width=st.integers(min_value=2, max_value=16),
    delay_range_ns=st.sampled_from(((0, 3), (100, 800))),
    edge_probability=st.sampled_from((0.1, 0.3, 0.6)),
)


@given(_DSP_GRAPHS, st.integers(min_value=4, max_value=16), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_refinement_matches_the_reference(graph, max_coarse_tasks, data):
    """Tight capacity and memory, so candidates are rejected for every
    reason; the incremental refinement must make the reference's choices.

    The capacity is 10-70% of the graph's CLBs, so there are a few
    partitions, and the memory is at most 64 words above the largest
    boundary of the start found with unbounded memory, so moves across the
    fullest boundaries run out of memory.
    """
    fraction = data.draw(st.floats(min_value=0.1, max_value=0.7))
    capacity = max(250, int(graph.total_resources()["clb"] * fraction))
    ct = data.draw(st.sampled_from((0.001, 0.005, 0.05)))
    unbounded = PartitionProblem.from_system(graph, _system(capacity, 1 << 30, ct))
    try:
        words = MultilevelPartitioner(
            inner="list", max_coarse_tasks=max_coarse_tasks, max_refine_moves=0
        ).partition(unbounded).max_boundary_words()
    except PartitioningError:
        words = 1024
    memory = words + data.draw(st.integers(min_value=0, max_value=64))
    problem = PartitionProblem.from_system(graph, _system(capacity, memory, ct))
    partitioner = MultilevelPartitioner(inner="list", max_coarse_tasks=max_coarse_tasks)
    assert _outcome(partitioner, problem) == _reference_outcome(problem, max_coarse_tasks)


@given(
    st.builds(
        random_dsp_task_graph,
        task_count=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10 ** 6),
        max_level_width=st.integers(min_value=1, max_value=8),
        delay_range_ns=st.sampled_from(((0, 2), (100, 800))),
    ),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_move_state_queries_match_the_reference(graph, data):
    """Partition delays and longest chains under arbitrary assignments
    (empty partitions and broken precedence included), with the chain and
    end ties that zero-delay tasks make."""
    count = data.draw(st.integers(min_value=1, max_value=5))
    assignment = {
        name: data.draw(st.integers(min_value=1, max_value=count))
        for name in graph.task_names()
    }
    problem = PartitionProblem.from_system(graph, _system(1 << 20, 1 << 20, ms(1)))
    state = _MoveState(problem, assignment, count)
    result = TemporalPartitioning(graph, assignment, count, ms(1))
    delays = state.partition_delays()
    assert sorted(delays) == sorted(set(assignment.values()))
    for info in result.partitions:
        assert delays.get(info.index, 0.0).hex() == info.delay.hex()
        chain = [state.names[task] for task in state.longest_chain(info.index)]
        assert chain == ReferenceRefiner._longest_chain(result, info.index)


# ---------------------------------------------------------------------------
# Invalid uncoarsened starts
# ---------------------------------------------------------------------------

def _chain_problem(capacity=10_000, memory_words=1 << 16):
    """Four tasks in a chain, 100 CLBs each, 8 words per edge."""
    graph = random_dsp_task_graph(
        task_count=4,
        seed=0,
        max_level_width=1,
        clb_range=(100, 100),
        words_range=(8, 8),
        name="chain4",
    )
    return PartitionProblem.from_system(graph, _system(capacity, memory_words, ms(1)))


def _stub_inner(monkeypatch, assignment, partition_count):
    """Make the multilevel inner engine return *assignment* unchecked."""

    class StubInner:
        def partition(self, problem):
            return SimpleNamespace(
                assignment=dict(zip(problem.graph.task_names(), assignment)),
                partition_count=partition_count,
                solver_backend="",
            )

    monkeypatch.setattr(hierarchy, "make_partitioner", lambda *args, **kwargs: StubInner())


@pytest.mark.parametrize(
    "assignment, partition_count, problem_args, broken",
    [
        ((2, 1, 1, 1), 2, {}, "temporal order violated"),
        ((1, 1, 1, 1), 1, {"capacity": 300}, "exceeding the capacity"),
        ((1, 2, 2, 2), 2, {"memory_words": 4}, "exceeding the memory constraint"),
        ((1, 1, 3, 3), 3, {}, "not contiguous"),
    ],
    ids=["order", "capacity", "memory", "contiguity"],
)
def test_invalid_start_names_the_broken_constraint(
    monkeypatch, assignment, partition_count, problem_args, broken
):
    problem = _chain_problem(**problem_args)
    _stub_inner(monkeypatch, assignment, partition_count)
    with pytest.raises(PartitioningError, match=broken):
        MultilevelPartitioner(inner="list", max_coarse_tasks=8).partition(problem)


@pytest.mark.parametrize("index", [0, 3, -1])
def test_out_of_range_start_raises_a_partitioning_error(monkeypatch, index):
    problem = _chain_problem()
    _stub_inner(monkeypatch, (1, 2, index, 2), 2)
    with pytest.raises(PartitioningError, match="outside 1..2"):
        MultilevelPartitioner(inner="list", max_coarse_tasks=8).partition(problem)


def test_a_single_task_worst_partition_is_left_alone(monkeypatch):
    """Moving the only task of the worst partition would shorten the
    latency but empty a partition, so refinement keeps the start."""
    graph = TaskGraph("fork")
    for name, delay in (("a", 100), ("b", 500), ("c", 10)):
        graph.add_task(Task(name, cost=clb_cost(100, ns(delay))))
    graph.add_edges([("a", "c", 4), ("b", "c", 4)])
    problem = PartitionProblem.from_system(graph, _system(1000, 1 << 16, ms(1)))
    _stub_inner(monkeypatch, (1, 2, 3), 3)
    partitioner = MultilevelPartitioner(inner="list", max_coarse_tasks=8)
    result = partitioner.partition(problem)
    assert result.assignment == {"a": 1, "b": 2, "c": 3}
    assert partitioner.last_report.refinement_moves == 0
    start = TemporalPartitioning(graph, {"a": 1, "b": 2, "c": 3}, 3, ms(1))
    assert ReferenceRefiner().refine(problem, start)[1] == 0


def test_the_result_is_built_once(monkeypatch):
    """Trial moves are checked on the move state: the partitioner builds one
    :class:`TemporalPartitioning`, however many moves it tries."""
    built = []

    class Counting(TemporalPartitioning):
        def __post_init__(self):
            built.append(self.method)
            super().__post_init__()

    monkeypatch.setattr(hierarchy, "TemporalPartitioning", Counting)
    partitioner = MultilevelPartitioner(inner="list")
    partitioner.partition(_tier_problem(400, 20, 1 << 20))
    assert partitioner.last_report.refinement_moves == 4
    assert len(built) == 1
