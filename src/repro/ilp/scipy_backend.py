"""scipy-based LP/MILP backends (HiGHS).

`scipy.optimize.linprog` solves LP relaxations (every branch-and-bound node
and :func:`~repro.ilp.solver.solve_lp_relaxation`); `scipy.optimize.milp`
solves complete mixed-integer models.  scipy is a declared dependency;
``scipy.optimize`` is imported inside the solve functions so that importing
the library does not pay for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SolverError
from .model import MatrixForm, Model
from .solution import Solution, SolveStatus


@dataclass
class LpResult:
    """Raw result of an LP solve in matrix space (values indexed by column)."""

    status: SolveStatus
    objective: Optional[float]
    x: Optional[np.ndarray]
    iterations: int
    solve_time: float


def _status_from_linprog(status_code: int) -> SolveStatus:
    """Map scipy.optimize.linprog status codes to :class:`SolveStatus`."""
    if status_code == 0:
        return SolveStatus.OPTIMAL
    if status_code == 1:
        return SolveStatus.ITERATION_LIMIT
    if status_code == 2:
        return SolveStatus.INFEASIBLE
    if status_code == 3:
        return SolveStatus.UNBOUNDED
    return SolveStatus.ERROR


def solve_lp_scipy(form: MatrixForm, max_iterations: int = 100000) -> LpResult:
    """Solve the LP relaxation of *form* with scipy's HiGHS ``linprog``."""
    from scipy.optimize import linprog

    start = time.perf_counter()
    bounds = list(zip(form.lower, form.upper))
    result = linprog(
        c=form.objective,
        A_ub=form.a_ub if form.a_ub.size else None,
        b_ub=form.b_ub if form.b_ub.size else None,
        A_eq=form.a_eq if form.a_eq.size else None,
        b_eq=form.b_eq if form.b_eq.size else None,
        bounds=bounds,
        method="highs",
        options={"maxiter": max_iterations},
    )
    elapsed = time.perf_counter() - start
    status = _status_from_linprog(result.status)
    if status is not SolveStatus.OPTIMAL:
        return LpResult(status, None, None, int(result.nit or 0), elapsed)
    objective = float(result.fun) + form.objective_constant
    return LpResult(
        SolveStatus.OPTIMAL,
        objective,
        np.asarray(result.x, dtype=float),
        int(result.nit or 0),
        elapsed,
    )


def solve_milp_scipy(
    model: Model,
    time_limit: Optional[float] = None,
    mip_gap: float = 0.0,
) -> Solution:
    """Solve *model* exactly with scipy's HiGHS ``milp``."""
    from scipy.optimize import LinearConstraint, milp

    form = model.to_matrix_form()
    start = time.perf_counter()
    constraints = []
    if form.a_ub.size:
        constraints.append(
            LinearConstraint(form.a_ub, -np.inf * np.ones(len(form.b_ub)), form.b_ub)
        )
    if form.a_eq.size:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))
    from scipy.optimize import Bounds

    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap:
        options["mip_rel_gap"] = float(mip_gap)
    result = milp(
        c=form.objective,
        constraints=constraints or None,
        integrality=form.integrality,
        bounds=Bounds(form.lower, form.upper),
        options=options or None,
    )
    elapsed = time.perf_counter() - start

    if result.status == 0:
        status = SolveStatus.OPTIMAL
    elif result.status == 2:
        status = SolveStatus.INFEASIBLE
    elif result.status == 3:
        status = SolveStatus.UNBOUNDED
    elif result.status == 1:
        # Iteration/time limit: may still carry an incumbent.
        status = SolveStatus.ITERATION_LIMIT
    else:
        status = SolveStatus.ERROR

    values = {}
    objective = None
    if result.x is not None:
        raw = np.asarray(result.x, dtype=float)
        values = {
            variable: _clean_value(variable, raw[variable.index])
            for variable in form.variables
        }
        objective = float(form.objective @ raw) + form.objective_constant
        if not model.is_minimization:
            objective = -objective
    elif status is SolveStatus.OPTIMAL:
        raise SolverError("scipy milp reported success but returned no solution")

    return Solution(
        status=status,
        objective=objective,
        values=values,
        backend="scipy-milp",
        iterations=0,
        solve_time=elapsed,
    )


def _clean_value(variable, value: float) -> float:
    """Round integral variables to exact integers to absorb solver tolerance."""
    if variable.is_integral:
        return float(round(value))
    return float(value)
