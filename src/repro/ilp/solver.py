"""The solver entry points: HiGHS for MILPs and for LP relaxations.

:func:`solve` hands a complete mixed-integer model to scipy's HiGHS
``milp``; :func:`solve_lp_relaxation` solves a model with integrality
dropped through HiGHS ``linprog``.  Both return a
:class:`~repro.ilp.solution.Solution`.
"""

from __future__ import annotations

import time
from typing import Optional

from .model import Model
from .scipy_backend import solve_lp_scipy, solve_milp_scipy
from .solution import Solution, SolveStatus


def solve(model: Model, time_limit: Optional[float] = None) -> Solution:
    """Solve *model* exactly with HiGHS, within an optional wall-clock limit
    (seconds)."""
    return solve_milp_scipy(model, time_limit=time_limit)


def solve_lp_relaxation(model: Model) -> Solution:
    """Solve the LP relaxation of *model* (integrality dropped) with HiGHS.

    Useful for computing lower bounds on the partitioning latency and for
    studying the tightness of the formulation.
    """
    form = model.to_matrix_form()
    start = time.perf_counter()
    result = solve_lp_scipy(form)
    elapsed = time.perf_counter() - start
    if result.status is not SolveStatus.OPTIMAL or result.x is None:
        return Solution(
            status=result.status,
            backend="scipy-linprog",
            iterations=result.iterations,
            solve_time=elapsed,
        )
    values = {
        variable: float(result.x[variable.index]) for variable in form.variables
    }
    objective = result.objective
    if objective is not None and not model.is_minimization:
        objective = -objective
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        backend="scipy-linprog",
        iterations=result.iterations,
        solve_time=elapsed,
    )
