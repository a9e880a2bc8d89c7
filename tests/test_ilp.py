"""Tests for the ILP modelling layer and the HiGHS solver calls (repro.ilp)."""

import pytest

from repro.errors import ModelError
from repro.ilp import (
    Model,
    Sense,
    SolveStatus,
    VarType,
    at_most_one,
    exactly_one,
    indicator_ge_sum,
    linear_sum,
    product_linearization,
    solve,
    solve_lp_relaxation,
)


def knapsack_model():
    """max 10a + 6b + 4c s.t. a+b+c <= 2, binary — optimum 16 (a, b)."""
    model = Model("knapsack")
    a, b, c = (model.add_binary(name) for name in "abc")
    model.add_constraint(a + b + c <= 2)
    model.maximize(10 * a + 6 * b + 4 * c)
    return model, (a, b, c)


class TestExpressions:
    def test_variable_to_expr(self):
        model = Model()
        x = model.add_binary("x")
        expr = 2 * x + 3
        assert expr.terms[x] == 2 and expr.constant == 3

    def test_addition_of_expressions(self):
        model = Model()
        x, y = model.add_binary("x"), model.add_binary("y")
        expr = (x + y) + (x - 2)
        assert expr.terms[x] == 2 and expr.terms[y] == 1 and expr.constant == -2

    def test_rsub(self):
        model = Model()
        x = model.add_binary("x")
        expr = 5 - x
        assert expr.terms[x] == -1 and expr.constant == 5

    def test_negation(self):
        model = Model()
        x = model.add_continuous("x")
        assert (-x).terms[x] == -1

    def test_multiplying_expressions_rejected(self):
        model = Model()
        x, y = model.add_binary("x"), model.add_binary("y")
        with pytest.raises(ModelError):
            _ = x.to_expr() * y.to_expr()

    def test_linear_sum(self):
        model = Model()
        vars_ = [model.add_binary(f"x{i}") for i in range(4)]
        expr = linear_sum(vars_)
        assert all(expr.terms[v] == 1 for v in vars_)

    def test_value_evaluation(self):
        model = Model()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        expr = 2 * x + 3 * y + 1
        assert expr.value({x: 2.0, y: 1.0}) == pytest.approx(8.0)

    def test_value_missing_variable(self):
        model = Model()
        x = model.add_continuous("x")
        with pytest.raises(ModelError):
            (x + 1).value({})


class TestConstraints:
    def test_le_normalisation(self):
        model = Model()
        x = model.add_continuous("x")
        constraint = x + 3 <= 10
        assert constraint.sense is Sense.LE and constraint.rhs == pytest.approx(7)

    def test_ge_and_eq(self):
        model = Model()
        x = model.add_continuous("x")
        assert (x >= 2).sense is Sense.GE
        assert (x.to_expr() == 2).sense is Sense.EQ

    def test_satisfaction_and_violation(self):
        model = Model()
        x = model.add_continuous("x")
        constraint = x <= 5
        assert constraint.is_satisfied({x: 4.0})
        assert not constraint.is_satisfied({x: 6.0})
        assert constraint.violation({x: 6.0}) == pytest.approx(1.0)

    def test_forgot_comparison_is_clear_error(self):
        model = Model()
        x = model.add_continuous("x")
        with pytest.raises(ModelError):
            model.add_constraint(x + 1)  # type: ignore[arg-type]

    def test_as_le_pair_for_equality(self):
        model = Model()
        x = model.add_continuous("x")
        pair = (x.to_expr() == 3).as_le_pair()
        assert len(pair) == 2 and all(c.sense is Sense.LE for c in pair)


class TestModel:
    def test_duplicate_variable_name(self):
        model = Model()
        model.add_binary("x")
        with pytest.raises(ModelError):
            model.add_binary("x")

    def test_variable_lookup(self):
        model = Model()
        x = model.add_integer("x", 0, 5)
        assert model.variable("x") is x
        with pytest.raises(ModelError):
            model.variable("y")

    def test_foreign_variable_rejected(self):
        first, second = Model("a"), Model("b")
        x = first.add_binary("x")
        with pytest.raises(ModelError):
            second.add_constraint(x <= 1)

    def test_statistics(self):
        model, _ = knapsack_model()
        stats = model.statistics()
        assert stats["binary_variables"] == 3
        assert stats["constraints"] == 1

    def test_matrix_form_shapes(self):
        model, _ = knapsack_model()
        form = model.to_matrix_form()
        assert form.a_ub.shape == (1, 3)
        assert form.integrality.sum() == 3

    def test_matrix_form_negates_maximisation(self):
        model, (a, _, _) = knapsack_model()
        form = model.to_matrix_form()
        assert form.objective[a.index] == pytest.approx(-10)

    def test_is_feasible(self):
        model, (a, b, c) = knapsack_model()
        assert model.is_feasible({a: 1.0, b: 1.0, c: 0.0})
        assert not model.is_feasible({a: 1.0, b: 1.0, c: 1.0})

    def test_violated_constraints(self):
        model, (a, b, c) = knapsack_model()
        assert len(model.violated_constraints({a: 1.0, b: 1.0, c: 1.0})) == 1


class TestBackends:
    def test_knapsack_optimum(self):
        model, (a, b, c) = knapsack_model()
        solution = solve(model)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(16.0)
        assert solution.binary_value(a) and solution.binary_value(b)
        assert not solution.binary_value(c)

    def test_infeasible_detected(self):
        model = Model()
        x = model.add_binary("x")
        model.add_constraint(x >= 0.6)
        model.add_constraint(x <= 0.4)
        model.minimize(x)
        assert solve(model).status is SolveStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        model = Model()
        x = model.add_binary("x")
        d = model.add_continuous("d", 0, 100)
        model.add_constraint(d >= 30 * x)
        model.add_constraint(x >= 1)
        model.minimize(d)
        solution = solve(model)
        assert solution.objective == pytest.approx(30.0)

    def test_pure_lp_relaxation_optimum(self):
        model = Model()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(x + y >= 4)
        model.minimize(2 * x + y)
        solution = solve_lp_relaxation(model)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(4.0)
        assert solution.value(y) == pytest.approx(4.0)

    def test_unknown_backend(self):
        """HiGHS is the only solver: no backend can be named, not even it."""
        model, _ = knapsack_model()
        for backend in ("cplex", "simplex", "branch-and-bound", "scipy"):
            with pytest.raises(TypeError, match="backend"):
                solve(model, backend=backend)

    def test_equality_constraints(self):
        model = Model()
        x = model.add_integer("x", 0, 10)
        y = model.add_integer("y", 0, 10)
        model.add_constraint(x + y == 7)
        model.minimize(3 * x + y)
        solution = solve(model)
        assert solution.objective == pytest.approx(7.0)
        assert solution.value(x) == pytest.approx(0.0)

    def test_lp_relaxation_bounds_milp(self):
        model, _ = knapsack_model()
        relaxed = solve_lp_relaxation(model)
        exact = solve(model)
        # Relaxation of a maximisation is an upper bound.
        assert relaxed.objective >= exact.objective - 1e-9

    def test_lp_relaxation_detects_infeasible_lp(self):
        model = Model()
        x = model.add_continuous("x", 0, 1)
        model.add_constraint(x >= 2)
        model.minimize(x)
        assert solve_lp_relaxation(model).status is SolveStatus.INFEASIBLE

    def test_lp_relaxation_handles_equalities(self):
        model = Model()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(x + y == 5)
        model.minimize(x)
        result = solve_lp_relaxation(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)
        assert result.value(y) == pytest.approx(5.0)


class TestLinearisation:
    def test_product_linearization_forces_conjunction(self):
        model = Model()
        x, y, z = model.add_binary("x"), model.add_binary("y"), model.add_binary("z")
        product_linearization(model, z, x, y)
        model.add_constraint(x >= 1)
        model.add_constraint(y >= 1)
        model.minimize(z)
        assert solve(model).value(z) == pytest.approx(1.0)

    def test_product_linearization_upper_bounds(self):
        model = Model()
        x, y, z = model.add_binary("x"), model.add_binary("y"), model.add_binary("z")
        product_linearization(model, z, x, y)
        model.add_constraint(x <= 0)
        model.maximize(z)
        assert solve(model).value(z) == pytest.approx(0.0)

    def test_product_linearization_rejects_non_binary(self):
        model = Model()
        x = model.add_continuous("x", 0, 5)
        y, z = model.add_binary("y"), model.add_binary("z")
        with pytest.raises(ModelError):
            product_linearization(model, z, x, y)

    def test_indicator_ge_sum(self):
        model = Model()
        group_a = [model.add_binary(f"a{i}") for i in range(3)]
        group_b = [model.add_binary(f"b{i}") for i in range(3)]
        w = model.add_binary("w")
        exactly_one(model, group_a)
        exactly_one(model, group_b)
        indicator_ge_sum(model, w, group_a[:2], group_b[2:])
        # Force a0 and b2 to be chosen: w must become 1.
        model.add_constraint(group_a[0] >= 1)
        model.add_constraint(group_b[2] >= 1)
        model.minimize(w)
        assert solve(model).value(w) == pytest.approx(1.0)

    def test_exactly_one_and_at_most_one(self):
        model = Model()
        variables = [model.add_binary(f"x{i}") for i in range(4)]
        exactly_one(model, variables)
        at_most_one(model, variables[:2])
        model.maximize(linear_sum(variables))
        solution = solve(model)
        assert solution.objective == pytest.approx(1.0)

    def test_empty_groups_rejected(self):
        model = Model()
        w = model.add_binary("w")
        with pytest.raises(ModelError):
            indicator_ge_sum(model, w, [], [w])
        with pytest.raises(ModelError):
            exactly_one(model, [])


class TestSolutionObject:
    def test_value_by_name(self):
        model, (a, _, _) = knapsack_model()
        solution = solve(model)
        assert solution.value_by_name("a") == solution.value(a)
        with pytest.raises(ModelError):
            solution.value_by_name("zzz")

    def test_binary_value_rejects_fractional(self):
        from repro.ilp import Solution, Variable

        x = Variable("x", 0, VarType.BINARY)
        solution = Solution(status=SolveStatus.OPTIMAL, values={x: 0.5})
        with pytest.raises(ModelError):
            solution.binary_value(x)

    def test_rounded_values(self):
        model, _ = knapsack_model()
        values = solve(model).rounded_values()
        assert set(values) == {"a", "b", "c"}
