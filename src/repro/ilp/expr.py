"""Variables and linear expressions for the ILP modelling layer.

The paper solves its temporal-partitioning model with CPLEX; since no
commercial solver is available here, the library ships its own small
modelling layer (this module and its siblings) and solves it with scipy's
HiGHS.  The modelling layer is deliberately tiny but complete enough for the
paper's model: binary/integer/continuous variables, linear expressions,
<=/>=/== constraints and a linear objective.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Mapping, Tuple, Union

from ..errors import ModelError

Number = Union[int, float]


class VarType(str, Enum):
    """Variable domains supported by the solvers."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Variable:
    """A decision variable.

    Variables are created through :meth:`repro.ilp.model.Model.add_variable`
    (which assigns them a stable column index); they support the arithmetic
    operators needed to write readable model-building code::

        model.add_constraint(2 * x + y <= 10, name="capacity")
    """

    __slots__ = ("name", "index", "var_type", "lower", "upper")

    def __init__(
        self,
        name: str,
        index: int,
        var_type: VarType = VarType.CONTINUOUS,
        lower: float = 0.0,
        upper: float = float("inf"),
    ) -> None:
        if not name:
            raise ModelError("variable name must not be empty")
        if lower > upper:
            raise ModelError(
                f"variable {name!r} has empty domain [{lower}, {upper}]"
            )
        if var_type is VarType.BINARY:
            lower, upper = max(lower, 0.0), min(upper, 1.0)
        self.name = name
        self.index = index
        self.var_type = var_type
        self.lower = float(lower)
        self.upper = float(upper)

    @property
    def is_integral(self) -> bool:
        """Whether the variable must take an integer value."""
        return self.var_type in (VarType.INTEGER, VarType.BINARY)

    # -- arithmetic sugar ---------------------------------------------------

    def to_expr(self) -> "LinExpr":
        """This variable as a single-term linear expression."""
        return LinExpr({self: 1.0})

    def __add__(self, other):
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-1.0 * self.to_expr()) + other

    def __mul__(self, factor: Number) -> "LinExpr":
        return self.to_expr() * factor

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        # Comparing against a Variable/LinExpr/number builds a constraint;
        # identity semantics are preserved through __hash__ (object identity).
        return self.to_expr() == other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, type={self.var_type.value})"


class LinExpr:
    """An affine expression ``sum_i coeff_i * var_i + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] = None, constant: float = 0.0) -> None:
        self.terms: Dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def from_value(value: Union["LinExpr", Variable, Number]) -> "LinExpr":
        """Coerce a variable or number into a :class:`LinExpr`."""
        if isinstance(value, LinExpr):
            return value.copy()
        if isinstance(value, Variable):
            return value.to_expr()
        if isinstance(value, (int, float)):
            return LinExpr(constant=float(value))
        raise ModelError(f"cannot build a linear expression from {value!r}")

    @staticmethod
    def sum(values: Iterable[Union["LinExpr", Variable, Number]]) -> "LinExpr":
        """Sum an iterable of variables/expressions/numbers."""
        result = LinExpr()
        for value in values:
            result += value
        return result

    def copy(self) -> "LinExpr":
        """An independent copy of this expression."""
        return LinExpr(dict(self.terms), self.constant)

    # -- arithmetic ----------------------------------------------------------

    def _add_inplace(self, other: Union["LinExpr", Variable, Number], sign: float) -> "LinExpr":
        other_expr = LinExpr.from_value(other)
        result = self.copy()
        for var, coeff in other_expr.terms.items():
            result.terms[var] = result.terms.get(var, 0.0) + sign * coeff
        result.constant += sign * other_expr.constant
        return result

    def __add__(self, other):
        return self._add_inplace(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add_inplace(other, -1.0)

    def __rsub__(self, other):
        return LinExpr.from_value(other)._add_inplace(self, -1.0)

    def __mul__(self, factor: Number) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            raise ModelError(
                "linear expressions can only be multiplied by numbers; "
                "products of variables must be linearised (see repro.ilp.linearize)"
            )
        return LinExpr(
            {var: coeff * factor for var, coeff in self.terms.items()},
            self.constant * factor,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons build constraints ---------------------------------------

    def __le__(self, other):
        from .constraint import Constraint, Sense

        return Constraint.from_sides(self, other, Sense.LE)

    def __ge__(self, other):
        from .constraint import Constraint, Sense

        return Constraint.from_sides(self, other, Sense.GE)

    def __eq__(self, other):  # type: ignore[override]
        from .constraint import Constraint, Sense

        return Constraint.from_sides(self, other, Sense.EQ)

    def __hash__(self) -> int:
        return id(self)

    # -- evaluation -----------------------------------------------------------

    def value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        total = self.constant
        for var, coeff in self.terms.items():
            try:
                total += coeff * assignment[var]
            except KeyError:
                raise ModelError(f"assignment is missing variable {var.name!r}")
        return total

    def variables(self) -> Tuple[Variable, ...]:
        """Variables appearing with a non-zero coefficient."""
        return tuple(var for var, coeff in self.terms.items() if coeff != 0.0)

    def __repr__(self) -> str:
        parts = [f"{coeff:+g}*{var.name}" for var, coeff in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


def linear_sum(values: Iterable[Union[LinExpr, Variable, Number]]) -> LinExpr:
    """Module-level alias of :meth:`LinExpr.sum` for readability at call sites."""
    return LinExpr.sum(values)
