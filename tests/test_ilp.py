"""Tests for the HiGHS solver call (repro.ilp) on hand-written matrix forms."""

from dataclasses import replace

import numpy as np
import pytest
from ilp_helpers import make_form

from repro.ilp import SolveStatus, solve_milp_scipy

INF = np.inf


def knapsack_form():
    """max 10a + 6b + 4c s.t. a+b+c <= 2, binary — optimum 16 (a, b).

    Written as the minimisation of the negated objective."""
    return make_form([-10, -6, -4], [[1, 1, 1]], [-INF], [2])


class TestModel:
    def test_matrix_form_shapes(self):
        form = knapsack_form()
        assert (form.num_constraints, form.num_variables) == (1, 3)
        assert form.integrality.sum() == 3


class TestBackends:
    def test_knapsack_optimum(self):
        solution = solve_milp_scipy(knapsack_form())
        assert solution.is_optimal
        assert -solution.objective == pytest.approx(16.0)
        assert list(solution.values) == [1.0, 1.0, 0.0]

    def test_infeasible_detected(self):
        # x >= 0.6 and x <= 0.4 for a binary x.
        form = make_form([1], [[1], [1]], [0.6, -INF], [INF, 0.4])
        assert solve_milp_scipy(form).status is SolveStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        # min d  s.t.  d >= 30x,  x >= 1;  x binary, d in [0, 100].
        form = make_form(
            [0, 1], [[-30, 1], [1, 0]], [0, 1], [INF, INF],
            upper=[1, 100], integrality=[1, 0],
        )
        solution = solve_milp_scipy(form)
        assert solution.objective == pytest.approx(30.0)

    def test_pure_lp_relaxation_optimum(self):
        """Without integral columns the solve is the LP optimum."""
        form = make_form(
            [2, 1], [[1, 1]], [4], [INF], upper=[10, 10], integrality=[0, 0]
        )
        solution = solve_milp_scipy(form)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(4.0)
        assert solution.values[1] == pytest.approx(4.0)

    def test_unknown_backend(self):
        """HiGHS is the only solver: no backend can be named, not even it."""
        for backend in ("cplex", "simplex", "branch-and-bound", "scipy"):
            with pytest.raises(TypeError, match="backend"):
                solve_milp_scipy(knapsack_form(), backend=backend)

    def test_equality_constraints(self):
        # min 3x + y  s.t.  x + y == 7;  x, y integer in [0, 10].
        form = make_form([3, 1], [[1, 1]], [7], [7], upper=[10, 10])
        solution = solve_milp_scipy(form)
        assert solution.objective == pytest.approx(7.0)
        assert solution.values[0] == pytest.approx(0.0)

    def test_lp_relaxation_bounds_milp(self):
        form = knapsack_form()
        relaxed = solve_milp_scipy(replace(form, integrality=np.zeros(3)))
        exact = solve_milp_scipy(form)
        # Relaxation of a maximisation is an upper bound.
        assert -relaxed.objective >= -exact.objective - 1e-9

    def test_lp_relaxation_detects_infeasible_lp(self):
        form = make_form([1], [[1]], [2], [INF], integrality=[0])
        assert solve_milp_scipy(form).status is SolveStatus.INFEASIBLE

    def test_lp_relaxation_handles_equalities(self):
        form = make_form(
            [1, 0], [[1, 1]], [5], [5], upper=[10, 10], integrality=[0, 0]
        )
        result = solve_milp_scipy(form)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)
        assert result.values[1] == pytest.approx(5.0)
