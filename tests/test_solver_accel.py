"""Differential properties of the solver hot path.

The portfolio partitioner, the seeded annealer and the preprocessing and
delay bounds are required to be *observationally identical* to the exact
ILP they shortcut or tighten: same objectives, byte-identical assignments
across reruns, and bounds that never cut off the optimum.  These tests pin
that contract on the same seeded scenario families the
differential-verification harness fuzzes (see ``tests/strategies.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies as strat
from repro.arch import generic_system
from repro.jpeg import build_dct_task_graph
from repro.partition import (
    AnnealTemporalPartitioner,
    IlpTemporalPartitioner,
    PartitionProblem,
    PortfolioPartitioner,
    validate_partitioning,
)
from repro.partition.portfolio import CERTIFICATE_RTOL
from repro.synth import DesignFlow
from repro.taskgraph import (
    Task,
    TaskGraph,
    cardinality_lower_bound,
    clb_cost,
    critical_path,
    max_tasks_per_partition,
    partition_lower_bound,
)
from repro.units import ns
from repro.verify.scenarios import FAMILIES, build_family_graph
from repro.workloads import get_workload

SLOW = settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _problem(graph, clb_capacity=700, memory_words=8192, ct=0.01):
    system = generic_system(
        clb_capacity=clb_capacity,
        memory_words=memory_words,
        reconfiguration_time=ct,
    )
    return PartitionProblem.from_system(graph, system)


# ---------------------------------------------------------------------------
# Portfolio vs. the exact ILP
# ---------------------------------------------------------------------------


@given(strat.task_graphs(families=FAMILIES, min_tasks=4, max_tasks=9))
@SLOW
def test_portfolio_objective_matches_ilp(graph):
    problem = _problem(graph)
    portfolio = PortfolioPartitioner().partition(problem)
    exact = IlpTemporalPartitioner().partition(problem)
    assert validate_partitioning(problem, portfolio).is_valid
    # A certified heuristic sits between the lower bound and the optimum, so
    # it can differ from the ILP's objective only by the certificate rtol.
    assert portfolio.total_latency == pytest.approx(
        exact.total_latency, rel=1e-8, abs=1e-12
    )


@given(
    strat.task_graphs(families=FAMILIES, min_tasks=4, max_tasks=10),
    st.integers(min_value=0, max_value=2**16),
)
@SLOW
def test_portfolio_same_seed_same_bytes(graph, seed):
    problem = _problem(graph)
    first = PortfolioPartitioner(anneal_seed=seed).partition(problem)
    second = PortfolioPartitioner(anneal_seed=seed).partition(problem)
    assert first.assignment == second.assignment
    assert first.method == second.method
    assert repr(sorted(first.assignment.items())).encode() == repr(
        sorted(second.assignment.items())
    ).encode()


@given(
    strat.task_graphs(families=FAMILIES, min_tasks=4, max_tasks=12),
    st.integers(min_value=0, max_value=2**16),
)
@SLOW
def test_anneal_same_seed_same_bytes(graph, seed):
    problem = _problem(graph)
    first = AnnealTemporalPartitioner(seed=seed, iterations=300).partition(problem)
    second = AnnealTemporalPartitioner(seed=seed, iterations=300).partition(problem)
    assert validate_partitioning(problem, first).is_valid
    assert first.assignment == second.assignment
    assert first.total_latency == second.total_latency


def test_portfolio_certificate_short_circuits_the_ilp():
    graph = build_family_graph("chain", seed=3, task_count=6)
    problem = _problem(graph, clb_capacity=1200)
    portfolio = PortfolioPartitioner()
    result = portfolio.partition(problem)
    report = portfolio.last_report
    exact = IlpTemporalPartitioner().partition(problem)
    assert result.total_latency == pytest.approx(exact.total_latency, rel=1e-9)
    if report.certified:
        assert report.ilp_report is None
        assert result.method.endswith("certified]")
    else:
        assert result.method == "portfolio[ilp,exact]"


def test_portfolio_without_certificate_always_runs_ilp():
    graph = build_family_graph("chain", seed=3, task_count=6)
    problem = _problem(graph, clb_capacity=1200)
    portfolio = PortfolioPartitioner(use_certificate=False)
    result = portfolio.partition(problem)
    assert portfolio.last_report.winner == "ilp"
    assert result.method == "portfolio[ilp,exact]"


# ---------------------------------------------------------------------------
# Preprocessing bounds
# ---------------------------------------------------------------------------


@given(strat.task_graphs(families=FAMILIES, min_tasks=2, max_tasks=16))
@settings(max_examples=25, deadline=None)
def test_cardinality_bound_is_sound(graph):
    """No valid partitioning packs more tasks per partition than the bound."""
    problem = _problem(graph)
    capacity = problem.resource_capacity
    limit = max_tasks_per_partition(graph, capacity)
    assert 1 <= limit <= len(graph)

    from repro.partition import ListTemporalPartitioner

    result = ListTemporalPartitioner().partition(problem)
    for index in range(1, result.partition_count + 1):
        assert len(result.tasks_in_partition(index)) <= limit

    lower = cardinality_lower_bound(graph, capacity)
    assert lower >= 1
    assert result.partition_count >= lower
    assert problem.minimum_partitions() >= max(
        lower, partition_lower_bound(graph, capacity)
    )


@given(strat.task_graphs(families=FAMILIES, min_tasks=4, max_tasks=9))
@SLOW
def test_minimum_partitions_never_cuts_off_the_optimum(graph):
    problem = _problem(graph)
    result = IlpTemporalPartitioner().partition(problem)
    assert result.partition_count >= problem.minimum_partitions()


# ---------------------------------------------------------------------------
# Delay-level bound on sum_p d_p
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def estimated_dct_problem(paper_system):
    """The case-study DCT with every task re-costed by the HLS estimator."""
    graph = build_dct_task_graph(attach_dfgs=True)
    for name in graph.task_names():
        graph.task(name).cost = None
    estimated = DesignFlow(paper_system).estimate(graph)
    return PartitionProblem.from_system(estimated, paper_system)


def test_delay_bound_meets_the_estimated_dct_optimum(estimated_dct_problem):
    # 6 partitions hold a >= 243 ns task, 4 a >= 360 ns one, 1 the 540 ns one.
    assert estimated_dct_problem.delay_lower_bound() == pytest.approx(
        2.106e-6, rel=1e-12
    )


def test_delay_bound_meets_the_paper_dct_optimum(dct_graph, paper_system):
    problem = PartitionProblem.from_system(dct_graph, paper_system)
    assert problem.delay_lower_bound() == pytest.approx(8.44e-6, rel=1e-12)


def test_delay_bound_ignores_zero_delay_tasks():
    # The two 600-CLB tasks force a second partition, but it costs no delay.
    graph = TaskGraph("zero-delay")
    graph.add_task(Task("a", cost=clb_cost(600, 0.0)))
    graph.add_task(Task("b", cost=clb_cost(600, 0.0)))
    graph.add_task(Task("c", cost=clb_cost(100, ns(50))))
    problem = _problem(graph, clb_capacity=1000)
    assert problem.minimum_partitions() == 2
    assert problem.delay_lower_bound() == pytest.approx(ns(50), rel=1e-12)
    result = IlpTemporalPartitioner().partition(problem)
    assert result.computation_latency == pytest.approx(ns(50), rel=1e-12)


def test_delay_bound_carries_a_level_bound_down():
    # The three 51-CLB tasks need 3 partitions, but with the ten CLB-free
    # tasks added the subset bound drops to 2: each partition of the three
    # still has d_p >= 20 ns, so the lower level must keep the 3.
    graph = TaskGraph("levels")
    for index in range(3):
        graph.add_task(Task(f"big{index}", cost=clb_cost(51, ns(20))))
    for index in range(10):
        graph.add_task(Task(f"free{index}", cost=clb_cost(0, ns(10))))
    problem = _problem(graph, clb_capacity=100)
    assert problem.minimum_partitions() == 2
    assert problem.delay_lower_bound() == pytest.approx(ns(60), rel=1e-12)
    result = IlpTemporalPartitioner().partition(problem)
    assert result.computation_latency == pytest.approx(ns(60), rel=1e-12)


def test_delay_bound_of_one_task_is_its_delay():
    graph = TaskGraph("single")
    graph.add_task(Task("only", cost=clb_cost(100, ns(70))))
    assert _problem(graph).delay_lower_bound() == ns(70)


@given(strat.task_graphs(families=FAMILIES, min_tasks=2, max_tasks=9))
@settings(max_examples=15, deadline=None)
def test_delay_bound_never_exceeds_the_optimum(graph):
    problem = _problem(graph)
    result = IlpTemporalPartitioner().partition(problem)
    bound = problem.delay_lower_bound()
    assert 0.0 < bound <= result.computation_latency * (1.0 + CERTIFICATE_RTOL)


def test_estimated_dct_is_solved_within_a_time_limit(estimated_dct_problem):
    """Without the delay-bound row HiGHS needs tens of seconds (2701 nodes)
    to prove this optimum; with it the proof is one node."""
    partitioner = IlpTemporalPartitioner(time_limit=15)
    result = partitioner.partition(estimated_dct_problem)
    assert result.total_latency == pytest.approx(0.600002106, rel=1e-12)
    assert partitioner.last_report.delay_bound == pytest.approx(
        result.computation_latency, rel=1e-12
    )


def test_delay_bound_certifies_the_portfolio():
    """The critical path (2989 ns) cannot certify fir_filterbank[channels=4];
    the delay bound (4210 ns) meets the best heuristic and skips the ILP."""
    workload = get_workload("fir_filterbank")
    system = workload.default_system()
    graph = DesignFlow(system, workload.flow_options()).estimate(
        workload.build_graph(channels=4)
    )
    problem = PartitionProblem.from_system(graph, system)
    portfolio = PortfolioPartitioner()
    portfolio.partition(problem)
    report = portfolio.last_report
    _, cp_delay = critical_path(graph)
    assert problem.delay_lower_bound() > cp_delay
    assert report.lower_bound == (
        problem.minimum_partitions() * problem.reconfiguration_time
        + problem.delay_lower_bound()
    )
    assert report.certified and report.ilp_report is None
