"""Solver dispatch: one entry point, two interchangeable MILP backends.

* ``"scipy"`` — scipy's HiGHS ``milp`` (default, fastest);
* ``"branch-and-bound"`` — the library's own branch-and-bound, which solves
  each node's LP relaxation with scipy's HiGHS ``linprog``.

Both backends return the same :class:`~repro.ilp.solution.Solution` type, so
callers (the temporal partitioner in particular) never care which one ran.
:func:`solve_lp_relaxation` solves a model with integrality dropped.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

from ..errors import SolverError
from .branch_and_bound import solve_branch_and_bound
from .expr import Variable
from .model import Model
from .scipy_backend import solve_lp_scipy, solve_milp_scipy
from .solution import Solution, SolveStatus

#: Names of the available backends, in default-preference order.
BACKENDS = ("scipy", "branch-and-bound")

DEFAULT_BACKEND = "scipy"


def solve(
    model: Model,
    backend: str = DEFAULT_BACKEND,
    time_limit: Optional[float] = None,
    max_nodes: int = 200000,
    incumbent: Optional[Mapping[Variable, float]] = None,
) -> Solution:
    """Solve *model* with the chosen *backend*.

    Parameters
    ----------
    model:
        The model to solve.
    backend:
        One of :data:`BACKENDS`.
    time_limit:
        Optional wall-clock limit in seconds.
    max_nodes:
        Node cap for the branch-and-bound backend.
    incumbent:
        Optional known-feasible warm-start assignment (variable -> value).
        The branch-and-bound backend seeds its upper bound with it; scipy's
        ``milp`` has no MIP-start hook, so it ignores it.
    """
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}; choose from {BACKENDS}")

    if backend == "scipy":
        return solve_milp_scipy(model, time_limit=time_limit)

    return solve_branch_and_bound(
        model,
        max_nodes=max_nodes,
        time_limit=time_limit,
        incumbent=incumbent,
    )


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
