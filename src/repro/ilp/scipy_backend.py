"""The scipy HiGHS calls behind :mod:`repro.ilp.solver`.

`scipy.optimize.milp` solves complete mixed-integer models and
`scipy.optimize.linprog` solves LP relaxations
(:func:`~repro.ilp.solver.solve_lp_relaxation`).  scipy is a declared
dependency; ``scipy.optimize`` is imported inside the solve functions so
that importing the library does not pay for it.
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


#: scipy ``linprog`` and ``milp`` status codes (they agree on 0-3).
#: Status 1 (iteration/time limit) may still carry a ``milp`` incumbent.
_SCIPY_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}

#: What a zero-objective re-solve's status says about a status-4 model.
_ZERO_OBJECTIVE_STATUS = {
    0: SolveStatus.UNBOUNDED,
    2: SolveStatus.INFEASIBLE,
}


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
    status = _SCIPY_STATUS.get(result.status, SolveStatus.ERROR)
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
    from scipy.optimize import Bounds, LinearConstraint, milp

    form = model.to_matrix_form()
    start = time.perf_counter()
    constraints = []
    if form.a_ub.size:
        constraints.append(
            LinearConstraint(form.a_ub, -np.inf * np.ones(len(form.b_ub)), form.b_ub)
        )
    if form.a_eq.size:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))

    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap:
        options["mip_rel_gap"] = float(mip_gap)

    def run(objective):
        return milp(
            c=objective,
            constraints=constraints or None,
            integrality=form.integrality,
            bounds=Bounds(form.lower, form.upper),
            options=options or None,
        )

    result = run(form.objective)
    status = _SCIPY_STATUS.get(result.status, SolveStatus.ERROR)
    if result.status == 4:
        # HiGHS: "primal infeasible or unbounded".  Nothing is unbounded
        # under a zero objective, so that re-solve tells the two apart.
        status = _ZERO_OBJECTIVE_STATUS.get(
            run(np.zeros_like(form.objective)).status, SolveStatus.ERROR
        )
    elapsed = time.perf_counter() - start

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
