"""Linear constraints for the ILP modelling layer."""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Union

from ..errors import ModelError
from .expr import LinExpr, Number, Variable


class Sense(str, Enum):
    """Comparison sense of a constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint ``expr (<=|>=|==) bound``.

    Internally normalised to ``lhs sense rhs`` where ``lhs`` is a
    :class:`LinExpr` with zero constant and ``rhs`` is a number, which is the
    shape the matrix export consumes.
    """

    __slots__ = ("lhs", "sense", "rhs", "name")

    def __init__(self, lhs: LinExpr, sense: Sense, rhs: float, name: str = "") -> None:
        constant = lhs.constant
        self.lhs = LinExpr(dict(lhs.terms), 0.0)
        self.sense = sense
        self.rhs = float(rhs) - constant
        self.name = name

    @staticmethod
    def from_sides(
        left: Union[LinExpr, Variable, Number],
        right: Union[LinExpr, Variable, Number],
        sense: Sense,
    ) -> "Constraint":
        """Build a constraint from two expression-like sides."""
        difference = LinExpr.from_value(left) - LinExpr.from_value(right)
        return Constraint(difference, sense, 0.0)

    def named(self, name: str) -> "Constraint":
        """A copy of this constraint with a human-readable name attached."""
        clone = Constraint(self.lhs.copy(), self.sense, self.rhs, name=name)
        return clone

    def variables(self):
        """Variables appearing in the constraint."""
        return self.lhs.variables()

    def is_satisfied(
        self, assignment: Mapping[Variable, float], tolerance: float = 1e-6
    ) -> bool:
        """Whether the constraint holds under *assignment* (within tolerance)."""
        value = self.lhs.value(assignment)
        if self.sense is Sense.LE:
            return value <= self.rhs + tolerance
        if self.sense is Sense.GE:
            return value >= self.rhs - tolerance
        return abs(value - self.rhs) <= tolerance

    def violation(self, assignment: Mapping[Variable, float]) -> float:
        """Non-negative amount by which the constraint is violated."""
        value = self.lhs.value(assignment)
        if self.sense is Sense.LE:
            return max(0.0, value - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - value)
        return abs(value - self.rhs)

    def as_le_pair(self):
        """This constraint as a list of equivalent ``<=`` constraints.

        ``>=`` is negated; ``==`` becomes a ``<=`` / ``>=`` pair.
        """
        if self.sense is Sense.LE:
            return [self]
        if self.sense is Sense.GE:
            return [Constraint(self.lhs * -1.0, Sense.LE, -self.rhs, name=self.name)]
        return [
            Constraint(self.lhs.copy(), Sense.LE, self.rhs, name=self.name),
            Constraint(self.lhs * -1.0, Sense.LE, -self.rhs, name=self.name),
        ]

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.lhs!r} {self.sense.value} {self.rhs:g}{label})"


def ensure_constraint(value) -> Constraint:
    """Validate that *value* is a :class:`Constraint` (guards common mistakes).

    A frequent modelling bug is writing ``model.add_constraint(x + y)`` and
    forgetting the comparison; this helper turns that into a clear error.
    """
    if not isinstance(value, Constraint):
        raise ModelError(
            f"expected a Constraint (did you forget '<=', '>=' or '=='?), got {value!r}"
        )
    return value
