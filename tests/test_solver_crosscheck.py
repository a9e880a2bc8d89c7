"""Cross-checks of the HiGHS call on randomly generated instances.

Pure-LP solves are checked for feasibility and LP relaxations for bounding
the MILP optimum on random (but always feasible and bounded) instances, and
the ILP temporal partitioner is checked against exhaustive enumeration
(``tests/exhaustive_reference.py``) on drawn graphs of up to seven tasks.
"""

from dataclasses import replace

import numpy as np
import pytest
from exhaustive_reference import MAX_TASKS, exhaustive_optimum
from hypothesis import event, given, settings
from hypothesis import strategies as st
from ilp_helpers import is_feasible, make_form

import strategies as strat
from repro.arch.device import ResourceVector
from repro.errors import PartitioningError
from repro.ilp import SolveStatus, solve_milp_scipy
from repro.partition import IlpTemporalPartitioner, PartitionProblem, validate_partitioning
from repro.units import ms, ns, us
from repro.verify.scenarios import FAMILIES


def random_bounded_lp(seed: int, variables: int, constraints: int):
    """A random LP that is always feasible (x = 0) and bounded (box constraints)."""
    rng = np.random.default_rng(seed)
    upper = [float(rng.uniform(1.0, 10.0)) for _ in range(variables)]
    rows, bounds = [], []
    for _ in range(constraints):
        rows.append(rng.uniform(0.0, 5.0, size=variables))
        bounds.append(float(rng.uniform(1.0, 20.0)))
    objective = rng.uniform(-5.0, 5.0, size=variables)
    return make_form(
        objective, rows, [-np.inf] * constraints, bounds,
        upper=upper, integrality=np.zeros(variables),
    )


def random_knapsack_milp(seed: int, items: int):
    """A random 0-1 knapsack-style MILP (always feasible: take nothing),
    written as the minimisation of the negated value."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 10, size=items)
    values = rng.integers(1, 12, size=items)
    capacity = int(max(1, weights.sum() // 2))
    return make_form(-values, [weights], [-np.inf], [capacity])


class TestLpCrossCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_relaxation_solution_is_feasible(self, seed):
        form = random_bounded_lp(seed, variables=5, constraints=5)
        result = solve_milp_scipy(form)
        assert result.is_optimal
        assert is_feasible(form, result.values, tolerance=1e-6)


class TestMilpCrossCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_relaxation_bounds_the_milp(self, seed):
        form = random_knapsack_milp(seed, items=12)
        relaxed = solve_milp_scipy(replace(form, integrality=np.zeros(12)))
        exact = solve_milp_scipy(form)
        # Maximisation: the LP relaxation is an upper bound on the MILP optimum.
        assert -relaxed.objective >= -exact.objective - 1e-6

    def test_lp_matrix_solver_direct(self):
        """Drive solve_milp_scipy directly on a continuous matrix form with
        equalities and column bounds."""
        # min x - 3y  s.t.  x + y == 6,  2x - y <= 4;  x in [0, 8], y in [1, 5].
        form = make_form(
            [1, -3], [[1, 1], [2, -1]], [6, -np.inf], [6, 4],
            lower=[0, 1], upper=[8, 5], integrality=[0, 0],
        )
        result = solve_milp_scipy(form)
        assert result.status is SolveStatus.OPTIMAL
        assert is_feasible(form, result.values, tolerance=1e-6)
        assert result.objective == pytest.approx(1 - 3 * 5)


@given(
    graph=strat.task_graphs(families=FAMILIES, min_tasks=1, max_tasks=MAX_TASKS),
    clb_share=st.integers(min_value=0, max_value=100),
    memory_share=st.integers(min_value=0, max_value=100),
    ct=st.sampled_from((0.0, ns(100), us(10), ms(10))),
)
@settings(max_examples=150, deadline=None)
def test_ilp_matches_the_exhaustive_optimum(graph, clb_share, memory_share, ct):
    """Same partition count and latency as enumeration, or neither finds one.

    The CLB capacity lies between the largest task and the whole graph, and
    the memory between nothing and every edge's words, so both constraints
    bind on a good share of the draws.
    """
    clbs = [task.resources["clb"] for task in graph.tasks()]
    capacity = ResourceVector({"clb": max(clbs) + (sum(clbs) - max(clbs)) * clb_share // 100})
    words = sum(edge_words for _, _, edge_words in graph.weighted_edges())
    problem = PartitionProblem(graph, capacity, words * memory_share // 100, ct)

    reference = exhaustive_optimum(problem)
    try:
        result = IlpTemporalPartitioner().partition(problem)
    except PartitioningError:
        result = None

    unconstrained = exhaustive_optimum(PartitionProblem(graph, capacity, words, ct))
    if reference is None:
        event("no partitioning")
    elif reference.partition_count > 1:
        event("optimum on several partitions")
    if (reference is None) != (unconstrained is None) or (
        reference is not None and reference.total_latency != unconstrained.total_latency
    ):
        event("memory changes the optimum")

    if reference is None:
        assert result is None
        return
    assert result is not None
    assert validate_partitioning(problem, result).is_valid
    assert result.partition_count == reference.partition_count
    assert result.total_latency == pytest.approx(reference.total_latency, rel=1e-12)
