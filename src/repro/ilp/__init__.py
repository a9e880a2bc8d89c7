"""ILP modelling and solving layer (the library's substitute for CPLEX).

Provides a small modelling API (variables, linear expressions, constraints,
models), linearisation helpers for products of binaries, and one MILP
solver: scipy's HiGHS ``milp`` (:func:`solve`), with HiGHS ``linprog`` for
LP relaxations (:func:`solve_lp_relaxation`).
"""

from .constraint import Constraint, Sense, ensure_constraint
from .expr import LinExpr, Variable, VarType, linear_sum
from .linearize import (
    at_most_one,
    exactly_one,
    indicator_ge_sum,
    product_linearization,
)
from .model import MatrixForm, Model
from .scipy_backend import LpResult
from .solution import Solution, SolveStatus
from .solver import solve, solve_lp_relaxation

__all__ = [
    "Constraint",
    "LinExpr",
    "LpResult",
    "MatrixForm",
    "Model",
    "Sense",
    "Solution",
    "SolveStatus",
    "VarType",
    "Variable",
    "at_most_one",
    "ensure_constraint",
    "exactly_one",
    "indicator_ge_sum",
    "linear_sum",
    "product_linearization",
    "solve",
    "solve_lp_relaxation",
]
