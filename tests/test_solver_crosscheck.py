"""Cross-checks between the ILP solver backends on randomly generated instances.

The library's own branch-and-bound is compared against scipy's HiGHS ``milp``,
and HiGHS LP relaxations are checked for feasibility and for bounding the
MILP optimum, on families of random (but always feasible and bounded)
instances.
"""

import numpy as np
import pytest

from repro.ilp import Model, SolveStatus, linear_sum, solve, solve_lp_relaxation
from repro.ilp.scipy_backend import solve_lp_scipy


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
    @pytest.mark.parametrize("seed", range(6))
    def test_branch_and_bound_matches_scipy_milp(self, seed):
        model = random_knapsack_milp(seed, items=10)
        bnb = solve(model, backend="branch-and-bound")
        scipy_result = solve(model, backend="scipy")
        assert bnb.is_optimal and scipy_result.is_optimal
        assert bnb.objective == pytest.approx(scipy_result.objective, abs=1e-6)
        assert model.is_feasible(bnb.values)

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
