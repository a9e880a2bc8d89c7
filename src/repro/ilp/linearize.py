"""Linearisation helpers for products of 0-1 variables.

The paper's memory constraint uses the non-linear terms
``w_p,t1,t2 >= y_t1,p1 * y_t2,p2`` (Eqs. 4-5) and notes that "linearization
techniques can be used to transform the non-linear equations into linear
ones".  This module provides the two standard techniques:

* :func:`product_linearization` — the exact three-constraint encoding of
  ``z = x * y`` for binary ``x``, ``y``;
* :func:`indicator_ge_sum` — the aggregated one-constraint lower bound
  ``z >= sum(xs) + sum(ys) - 1`` which is exact when each sum is itself known
  to be at most one (as is the case under the partitioning model's uniqueness
  constraint).  The temporal-partitioning formulation uses this form because
  it produces one constraint per (edge, boundary) instead of ``O(N^2)``.

An ablation benchmark checks that both encodings give identical optima on the
case-study model.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import ModelError
from .constraint import Constraint
from .expr import LinExpr, Variable, linear_sum
from .model import Model


def product_linearization(
    model: Model, product: Variable, x: Variable, y: Variable, name_prefix: str = ""
) -> List[Constraint]:
    """Add the exact linearisation of ``product = x * y`` for binary x, y.

    The three constraints are::

        product <= x
        product <= y
        product >= x + y - 1

    *product* must already exist in *model* as a binary (or [0,1]-bounded)
    variable.  Returns the constraints that were added.
    """
    for variable in (product, x, y):
        if not (0.0 <= variable.lower and variable.upper <= 1.0):
            raise ModelError(
                f"product linearisation requires [0,1] variables, got "
                f"{variable.name!r} with bounds [{variable.lower}, {variable.upper}]"
            )
    prefix = name_prefix or f"lin_{product.name}"
    constraints = [
        model.add_constraint(product <= x, name=f"{prefix}_le_x"),
        model.add_constraint(product <= y, name=f"{prefix}_le_y"),
        model.add_constraint(product >= x + y - 1, name=f"{prefix}_ge_sum"),
    ]
    return constraints


def indicator_ge_sum(
    model: Model,
    indicator: Variable,
    left_group: Sequence[Variable],
    right_group: Sequence[Variable],
    name: str = "",
) -> Constraint:
    """Add ``indicator >= sum(left_group) + sum(right_group) - 1``.

    This is the aggregated lower bound used by the partitioning formulation:
    when at most one variable of each group can be 1 (uniqueness constraint),
    the right-hand side is 1 exactly when both groups have their variable set,
    so the constraint forces the indicator in exactly the case Eqs. 4-5 cover.
    """
    if not left_group or not right_group:
        raise ModelError("indicator_ge_sum requires two non-empty variable groups")
    expr: LinExpr = linear_sum(left_group) + linear_sum(right_group) - 1
    return model.add_constraint(indicator >= expr, name=name or f"ind_{indicator.name}")


def at_most_one(model: Model, variables: Iterable[Variable], name: str = "") -> Constraint:
    """Add ``sum(variables) <= 1`` (a common side constraint)."""
    variables = list(variables)
    if not variables:
        raise ModelError("at_most_one requires at least one variable")
    return model.add_constraint(linear_sum(variables) <= 1, name=name)


def exactly_one(model: Model, variables: Iterable[Variable], name: str = "") -> Constraint:
    """Add ``sum(variables) == 1`` (the uniqueness constraint shape, Eq. 1)."""
    variables = list(variables)
    if not variables:
        raise ModelError("exactly_one requires at least one variable")
    return model.add_constraint(linear_sum(variables) == 1, name=name)
