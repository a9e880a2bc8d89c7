"""Cross-checks of the ILP layer on randomly generated instances.

HiGHS LP relaxations are checked for feasibility and for bounding the MILP
optimum on random (but always feasible and bounded) instances, and the ILP
temporal partitioner is checked against exhaustive enumeration
(``tests/exhaustive_reference.py``) on drawn graphs of up to seven tasks.
"""

import numpy as np
import pytest
from exhaustive_reference import MAX_TASKS, exhaustive_optimum
from hypothesis import event, given, settings
from hypothesis import strategies as st

import strategies as strat
from repro.arch.device import ResourceVector
from repro.errors import PartitioningError
from repro.ilp import Model, SolveStatus, linear_sum, solve, solve_lp_relaxation
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.partition import IlpTemporalPartitioner, PartitionProblem, validate_partitioning
from repro.units import ms, ns, us
from repro.verify.scenarios import FAMILIES


def random_bounded_lp(seed: int, variables: int, constraints: int) -> Model:
    """A random LP that is always feasible (x = 0) and bounded (box constraints)."""
    rng = np.random.default_rng(seed)
    model = Model(f"lp-{seed}")
    xs = [model.add_continuous(f"x{i}", 0.0, float(rng.uniform(1.0, 10.0))) for i in range(variables)]
    for row in range(constraints):
        coefficients = rng.uniform(0.0, 5.0, size=variables)
        bound = float(rng.uniform(1.0, 20.0))
        model.add_constraint(
            linear_sum(float(c) * x for c, x in zip(coefficients, xs)) <= bound,
            name=f"c{row}",
        )
    objective_coefficients = rng.uniform(-5.0, 5.0, size=variables)
    model.minimize(linear_sum(float(c) * x for c, x in zip(objective_coefficients, xs)))
    return model


def random_knapsack_milp(seed: int, items: int) -> Model:
    """A random 0-1 knapsack-style MILP (always feasible: take nothing)."""
    rng = np.random.default_rng(seed)
    model = Model(f"milp-{seed}")
    xs = [model.add_binary(f"x{i}") for i in range(items)]
    weights = rng.integers(1, 10, size=items)
    values = rng.integers(1, 12, size=items)
    capacity = int(max(1, weights.sum() // 2))
    model.add_constraint(
        linear_sum(int(w) * x for w, x in zip(weights, xs)) <= capacity
    )
    model.maximize(linear_sum(int(v) * x for v, x in zip(values, xs)))
    return model


class TestLpCrossCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_relaxation_solution_is_feasible(self, seed):
        model = random_bounded_lp(seed, variables=5, constraints=5)
        result = solve_lp_relaxation(model)
        assert result.is_optimal
        assert model.is_feasible(result.values, tolerance=1e-6)


class TestMilpCrossCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_relaxation_bounds_the_milp(self, seed):
        model = random_knapsack_milp(seed, items=12)
        relaxed = solve_lp_relaxation(model)
        exact = solve(model)
        # Maximisation: the LP relaxation is an upper bound on the MILP optimum.
        assert relaxed.objective >= exact.objective - 1e-6

    def test_lp_matrix_solver_direct(self):
        """Drive solve_lp_scipy directly on a matrix form with equalities and bounds."""
        model = Model()
        x = model.add_continuous("x", 0, 8)
        y = model.add_continuous("y", 1, 5)
        model.add_constraint(x + y == 6)
        model.add_constraint(2 * x - y <= 4)
        model.minimize(x - 3 * y)
        result = solve_lp_scipy(model.to_matrix_form())
        assert result.status is SolveStatus.OPTIMAL
        values = {model.variable("x"): result.x[0], model.variable("y"): result.x[1]}
        assert model.is_feasible(values, tolerance=1e-6)
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
