"""Solution and status objects returned by the ILP solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from ..errors import ModelError
from .expr import Variable


class SolveStatus(str, Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"


@dataclass
class Solution:
    """Result of solving a model.

    Attributes
    ----------
    status:
        The :class:`SolveStatus` outcome.
    objective:
        Objective value at the returned point (``None`` unless optimal or a
        feasible incumbent was found at the iteration limit).
    values:
        Mapping from :class:`Variable` to its value.
    backend:
        Name of the HiGHS call that produced the solution (``"scipy-milp"``
        or ``"scipy-linprog"``).
    iterations:
        HiGHS LP iterations (0 for ``milp``, which does not report them).
    solve_time:
        Wall-clock seconds spent in HiGHS.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[Variable, float] = field(default_factory=dict)
    backend: str = ""
    iterations: int = 0
    solve_time: float = 0.0

    @property
    def is_optimal(self) -> bool:
        """Whether the solver proved optimality."""
        return self.status is SolveStatus.OPTIMAL

    @property
    def is_feasible(self) -> bool:
        """Whether the solution carries a usable assignment."""
        return self.status is SolveStatus.OPTIMAL and bool(self.values) or (
            self.status is SolveStatus.ITERATION_LIMIT and bool(self.values)
        )

    def value(self, variable: Variable) -> float:
        """Value of *variable* in the solution."""
        try:
            return self.values[variable]
        except KeyError:
            raise ModelError(
                f"solution does not contain variable {variable.name!r}"
            )

    def value_by_name(self, name: str) -> float:
        """Value of the variable called *name* (linear scan; for tests/debug)."""
        for variable, value in self.values.items():
            if variable.name == name:
                return value
        raise ModelError(f"solution does not contain a variable named {name!r}")

    def rounded_values(self, digits: int = 6) -> Dict[str, float]:
        """Name-keyed values rounded for printing."""
        return {var.name: round(val, digits) for var, val in self.values.items()}

    def binary_value(self, variable: Variable, tolerance: float = 1e-5) -> bool:
        """Interpret a 0-1 variable's value as a boolean, validating integrality."""
        value = self.value(variable)
        if abs(value - round(value)) > tolerance:
            raise ModelError(
                f"variable {variable.name!r} is not integral in the solution "
                f"(value {value})"
            )
        return bool(round(value))

    def as_name_dict(self) -> Dict[str, float]:
        """Name-keyed copy of the assignment."""
        return {var.name: val for var, val in self.values.items()}
