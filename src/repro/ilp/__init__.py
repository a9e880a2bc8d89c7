"""ILP modelling and solving layer (the library's substitute for CPLEX).

Provides a small modelling API (variables, linear expressions, constraints,
models), linearisation helpers for products of binaries, and two MILP
backends: scipy HiGHS (``milp``) and a branch-and-bound whose node LP
relaxations run on HiGHS ``linprog``.
"""

from .branch_and_bound import solve_branch_and_bound
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
from .solver import BACKENDS, DEFAULT_BACKEND, solve, solve_lp_relaxation

__all__ = [
    "BACKENDS",
    "Constraint",
    "DEFAULT_BACKEND",
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
    "solve_branch_and_bound",
    "solve_lp_relaxation",
]
