"""The ILP/LP model container.

A :class:`Model` owns variables, constraints and a linear objective, and can
export itself to the dense matrix form HiGHS consumes
(``minimise c.x subject to A_ub.x <= b_ub, A_eq.x == b_eq, lb <= x <= ub``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..errors import ModelError
from .constraint import Constraint, Sense, ensure_constraint
from .expr import LinExpr, Number, Variable, VarType


class MatrixForm:
    """Dense matrix export of a model (the standard LP/MILP form)."""

    def __init__(
        self,
        objective: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        integrality: np.ndarray,
        variables: Sequence[Variable],
        objective_constant: float,
    ) -> None:
        self.objective = objective
        self.a_ub = a_ub
        self.b_ub = b_ub
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.lower = lower
        self.upper = upper
        self.integrality = integrality
        self.variables = list(variables)
        self.objective_constant = objective_constant

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        """Number of inequality plus equality rows."""
        return self.a_ub.shape[0] + self.a_eq.shape[0]


class Model:
    """A mixed 0-1/integer/continuous linear program."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._by_name: Dict[str, Variable] = {}
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._sense_minimize = True

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def add_variable(
        self,
        name: str,
        var_type: VarType = VarType.CONTINUOUS,
        lower: float = 0.0,
        upper: float = float("inf"),
    ) -> Variable:
        """Create and register a new decision variable."""
        if name in self._by_name:
            raise ModelError(f"duplicate variable name {name!r} in model {self.name!r}")
        variable = Variable(name, len(self._variables), var_type, lower, upper)
        self._variables.append(variable)
        self._by_name[name] = variable
        return variable

    def add_binary(self, name: str) -> Variable:
        """Create a 0-1 variable."""
        return self.add_variable(name, VarType.BINARY, 0.0, 1.0)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Variable:
        """Create an integer variable."""
        return self.add_variable(name, VarType.INTEGER, lower, upper)

    def add_continuous(
        self, name: str, lower: float = 0.0, upper: float = float("inf")
    ) -> Variable:
        """Create a continuous variable."""
        return self.add_variable(name, VarType.CONTINUOUS, lower, upper)

    def variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r} in model {self.name!r}")

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables in creation order."""
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return len(self._variables)

    @property
    def num_integer_variables(self) -> int:
        """Number of variables with an integrality requirement."""
        return sum(1 for v in self._variables if v.is_integral)

    # ------------------------------------------------------------------
    # Constraints and objective
    # ------------------------------------------------------------------

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (optionally overriding its name)."""
        constraint = ensure_constraint(constraint)
        for variable in constraint.variables():
            self._check_owned(variable)
        if name:
            constraint = constraint.named(name)
        self._constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint], prefix: str = "") -> None:
        """Register several constraints, auto-numbering their names."""
        for index, constraint in enumerate(constraints):
            label = f"{prefix}{index}" if prefix else ""
            self.add_constraint(constraint, name=label)

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """All constraints in insertion order."""
        return tuple(self._constraints)

    @property
    def num_constraints(self) -> int:
        """Number of constraints."""
        return len(self._constraints)

    def minimize(self, objective: Union[LinExpr, Variable, Number]) -> None:
        """Set a minimisation objective."""
        self._objective = LinExpr.from_value(objective)
        self._sense_minimize = True
        for variable in self._objective.variables():
            self._check_owned(variable)

    def maximize(self, objective: Union[LinExpr, Variable, Number]) -> None:
        """Set a maximisation objective."""
        self.minimize(objective)
        self._sense_minimize = False

    @property
    def objective(self) -> LinExpr:
        """The objective expression as stated by the user."""
        return self._objective

    @property
    def is_minimization(self) -> bool:
        """Whether the model minimises (True) or maximises (False)."""
        return self._sense_minimize

    def _check_owned(self, variable: Variable) -> None:
        owned = self._by_name.get(variable.name)
        if owned is not variable:
            raise ModelError(
                f"variable {variable.name!r} does not belong to model {self.name!r}"
            )

    # ------------------------------------------------------------------
    # Evaluation / export
    # ------------------------------------------------------------------

    def objective_value(self, assignment: Mapping[Variable, float]) -> float:
        """Objective value (in the user's sense) under an assignment."""
        return self._objective.value(assignment)

    def is_feasible(
        self, assignment: Mapping[Variable, float], tolerance: float = 1e-6
    ) -> bool:
        """Whether an assignment satisfies every constraint and variable bound."""
        for variable in self._variables:
            value = assignment.get(variable)
            if value is None:
                return False
            if value < variable.lower - tolerance or value > variable.upper + tolerance:
                return False
            if variable.is_integral and abs(value - round(value)) > tolerance:
                return False
        return all(c.is_satisfied(assignment, tolerance) for c in self._constraints)

    def violated_constraints(
        self, assignment: Mapping[Variable, float], tolerance: float = 1e-6
    ) -> List[Constraint]:
        """Constraints not satisfied by *assignment* (for diagnostics)."""
        return [c for c in self._constraints if not c.is_satisfied(assignment, tolerance)]

    def to_matrix_form(self) -> MatrixForm:
        """Export the model to dense arrays for the HiGHS calls.

        Maximisation objectives are negated so the solver always minimises.
        """
        count = len(self._variables)
        objective = np.zeros(count)
        for variable, coeff in self._objective.terms.items():
            objective[variable.index] += coeff
        objective_constant = self._objective.constant
        if not self._sense_minimize:
            objective = -objective
            objective_constant = -objective_constant

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for constraint in self._constraints:
            row = np.zeros(count)
            for variable, coeff in constraint.lhs.terms.items():
                row[variable.index] += coeff
            if constraint.sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(constraint.rhs)
            elif constraint.sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-constraint.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(constraint.rhs)

        a_ub = np.vstack(ub_rows) if ub_rows else np.zeros((0, count))
        b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
        a_eq = np.vstack(eq_rows) if eq_rows else np.zeros((0, count))
        b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)
        lower = np.array([v.lower for v in self._variables])
        upper = np.array([v.upper for v in self._variables])
        integrality = np.array([1 if v.is_integral else 0 for v in self._variables])
        return MatrixForm(
            objective=objective,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lower=lower,
            upper=upper,
            integrality=integrality,
            variables=self._variables,
            objective_constant=objective_constant,
        )

    def statistics(self) -> Dict[str, int]:
        """Size statistics, useful for logging and the solve-time benches."""
        binary = sum(1 for v in self._variables if v.var_type is VarType.BINARY)
        integer = sum(1 for v in self._variables if v.var_type is VarType.INTEGER)
        return {
            "variables": self.num_variables,
            "binary_variables": binary,
            "integer_variables": integer,
            "continuous_variables": self.num_variables - binary - integer,
            "constraints": self.num_constraints,
        }

    def __repr__(self) -> str:
        stats = self.statistics()
        return (
            f"Model(name={self.name!r}, variables={stats['variables']}, "
            f"constraints={stats['constraints']})"
        )
