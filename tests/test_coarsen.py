"""The multilevel coarsener, checked against its reference.

:meth:`MultilevelPartitioner._coarsen` merges clusters on index arrays.
Its clusters, level sizes, stall flag and coarse graph must be the ones the
dict-based coarsener in ``coarsen_reference.py`` builds from the same
problem: the same tasks in the same order (unmerged tasks as the very same
:class:`Task` objects), the same cluster resources with their kinds in the
same order, the same delay bits and environment words, and the same edges
and words in the same order.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coarsen_reference import ReferenceCoarsener
from repro.arch.device import ResourceVector
from repro.errors import CycleError, PartitioningError
from repro.partition import MultilevelPartitioner, PartitionProblem
from repro.partition.hierarchy import MultilevelReport
from repro.taskgraph import Task, TaskCost, TaskGraph
from repro.units import ns

KINDS = ("clb", "dsp", "bram")


def _coarsen(problem, max_coarse_tasks=48, cluster_cap_fraction=0.5):
    partitioner = MultilevelPartitioner(
        inner="list",
        max_coarse_tasks=max_coarse_tasks,
        cluster_cap_fraction=cluster_cap_fraction,
    )
    report = MultilevelReport()
    cluster_of, coarse = partitioner._coarsen(problem, report)
    return cluster_of, coarse, report


def _graph_summary(graph):
    """Everything the inner engine can observe of a coarse graph."""
    return (
        [
            (
                task.name,
                task.task_type,
                task.metadata,
                list(task.resources.as_dict().items()),
                task.delay.hex(),
                graph.env_input_words(task.name),
                graph.env_output_words(task.name),
            )
            for task in graph.tasks()
        ],
        graph.weighted_edges(),
    )


def _assert_same_coarsening(problem, max_coarse_tasks, cluster_cap_fraction):
    reference = ReferenceCoarsener(max_coarse_tasks, cluster_cap_fraction)
    want_cluster_of, want, want_report = reference.coarsen(problem)
    cluster_of, coarse, report = _coarsen(problem, max_coarse_tasks, cluster_cap_fraction)
    assert cluster_of == want_cluster_of
    assert report.level_sizes == want_report.level_sizes
    assert report.stalled == want_report.stalled
    assert _graph_summary(coarse) == _graph_summary(want)
    for task, expected in zip(coarse.tasks(), want.tasks()):
        if expected.task_type != "cluster":
            assert task is expected
    if len(want) == len(problem.graph):
        assert coarse is problem.graph
    return report


def _random_problem(count, kinds, missing, seed):
    """A seeded random DAG on *count* tasks whose name order is unrelated
    to its topological order.  Each task uses a random subset of *kinds*
    in a random key order, with amounts from 0 (an explicit zero) up; a
    quarter of the delays are zero and equal delays tie criticalities.
    Each capacity lies between 1 and the kind's total, so caps range from
    tight enough to stall to loose; *missing* is left out of it."""
    rng = random.Random(seed)
    names = [f"n{key}" for key in rng.sample(range(10 * count), count)]
    delays = (0.0, ns(1), ns(2), ns(5), ns(13), ns(40), ns(40), 0.0)
    graph = TaskGraph("coarsen-property")
    totals = dict.fromkeys(kinds, 0)
    for name in names:
        used = rng.sample(kinds, rng.randint(0, len(kinds)))
        amounts = {kind: rng.randint(0, 12) for kind in used}
        for kind, value in amounts.items():
            totals[kind] += value
        graph.add_task(
            Task(name, cost=TaskCost(ResourceVector(amounts), rng.choice(delays))),
            env_input_words=rng.randint(0, 9),
            env_output_words=rng.randint(0, 9),
        )
    graph.add_edges(
        (names[pred], names[index], rng.randint(0, 30))
        for index in range(1, count)
        for pred in rng.sample(range(index), min(index, rng.randint(0, 3)))
    )
    capacity = {
        kind: rng.randint(1, max(1, totals[kind])) for kind in kinds if kind != missing
    }
    return PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector(capacity),
        memory_words=1 << 20,
        reconfiguration_time=0.0,
    )


@st.composite
def coarsening_problems(draw):
    """A random problem with 1-3 resource kinds (one possibly missing from
    the capacity) and the coarsener's two parameters."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
    missing = kinds[-1] if len(kinds) > 1 and draw(st.booleans()) else None
    problem = _random_problem(
        draw(st.integers(min_value=1, max_value=300)),
        kinds,
        missing,
        draw(st.integers(min_value=0, max_value=2 ** 32)),
    )
    max_coarse_tasks = draw(st.integers(min_value=1, max_value=16))
    cluster_cap_fraction = draw(st.floats(min_value=0.05, max_value=1.0))
    return problem, max_coarse_tasks, cluster_cap_fraction


@given(coarsening_problems())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_coarsening_matches_the_reference(case):
    _assert_same_coarsening(*case)


def _chain_problem(count, clbs=1, capacity=100):
    graph = TaskGraph("chain")
    names = [f"t{index:02d}" for index in range(count)]
    for name in names:
        graph.add_task(Task(name, cost=TaskCost(ResourceVector({"clb": clbs}), ns(10))))
    graph.add_edges((a, b, 1) for a, b in zip(names, names[1:]))
    return PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector({"clb": capacity}),
        memory_words=1024,
        reconfiguration_time=0.0,
    )


def test_nothing_to_merge_returns_the_same_graph():
    """A graph at the target, or one whose merges all break the cap, is
    handed to the inner engine as the very same object."""
    small = _chain_problem(5)
    assert _assert_same_coarsening(small, 8, 0.5).level_sizes == [5]
    stalled = _chain_problem(20, clbs=30)  # any pair exceeds half of 100
    report = _assert_same_coarsening(stalled, 8, 0.5)
    assert report.stalled and report.level_sizes == [20]


def test_a_merge_that_closes_a_cycle_raises(monkeypatch):
    """Merging the two ends of ``t00 -> t01 -> t02`` makes a cycle; the next
    topological fold (or the final coarse graph) rejects it."""
    problem = _chain_problem(4)
    original = MultilevelPartitioner._merge_pass
    calls = []

    def bad_merge(self, level, cap):
        if calls:
            return original(self, level, cap)
        calls.append(1)
        return np.array([0]), np.array([2]), np.array([True])

    monkeypatch.setattr(MultilevelPartitioner, "_merge_pass", bad_merge)
    for max_coarse_tasks in (1, 3):
        calls.clear()
        with pytest.raises(CycleError):
            _coarsen(problem, max_coarse_tasks=max_coarse_tasks)


def _pair_problem(clbs=1, env_input_words=0, words=1):
    graph = TaskGraph("pair")
    for name in ("a", "b"):
        graph.add_task(
            Task(name, cost=TaskCost(ResourceVector({"clb": clbs}), ns(1))),
            env_input_words=env_input_words,
        )
    graph.add_edge("a", "b", words=words)
    return PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector({"clb": 1 << 70}),
        memory_words=1024,
        reconfiguration_time=0.0,
    )


@pytest.mark.parametrize(
    "problem, what",
    [
        (_pair_problem(clbs=1 << 62), "'clb' amount"),
        (_pair_problem(env_input_words=1 << 62), "env input words"),
        (_pair_problem(words=1 << 63), "edge words"),
    ],
)
def test_totals_past_int64_are_rejected(problem, what):
    """Amounts and words are summed in int64 arrays, so a total that could
    overflow them raises instead of wrapping."""
    with pytest.raises(PartitioningError, match=f"total {what} .* reaches 2\\*\\*63"):
        _coarsen(problem, max_coarse_tasks=1)
    assert _coarsen(_pair_problem(clbs=(1 << 62) - 1), max_coarse_tasks=1)[2].level_sizes == [2, 1]
