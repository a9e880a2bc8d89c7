"""The one HiGHS call: a :class:`MatrixForm` solved by scipy's ``milp``.

scipy is a declared dependency; ``scipy.optimize`` is imported inside
:func:`solve_milp_scipy` so that importing the library does not pay for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SolverError
from ..memo import digest, run_kernel
from .solution import Solution, SolveStatus

#: The ``solver_backend`` recorded on results solved here.
BACKEND_NAME = "scipy-milp"


@dataclass(frozen=True, eq=False)
class MatrixForm:
    """A MILP in HiGHS's standard form.

    Minimise ``objective @ x + objective_constant`` subject to
    ``row_lower <= A @ x <= row_upper`` and ``lower <= x <= upper``, with
    ``x[j]`` integral where ``integrality[j]`` is 1.  ``A`` is stored by
    rows: row ``i`` holds the coefficients ``data[indptr[i]:indptr[i + 1]]``
    in the columns ``indices[indptr[i]:indptr[i + 1]]``, with no zero
    coefficient and no column twice.
    """

    objective: np.ndarray
    objective_constant: float
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        """Number of rows."""
        return len(self.row_lower)


#: scipy ``milp`` status codes.  Status 1 (iteration/time limit) may still
#: carry an incumbent.
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

#: Outcomes that depend on more than the model (the clock, a solver fault).
_NOT_MEMOISED = (SolveStatus.ITERATION_LIMIT, SolveStatus.ERROR)


def solve_milp_scipy(form: MatrixForm, time_limit: Optional[float] = None) -> Solution:
    """Solve *form* exactly with scipy's HiGHS ``milp``, within an optional
    wall-clock limit (seconds).

    Inside a :func:`repro.memo.scope` the HiGHS run is memoised, keyed by
    everything ``milp`` receives (the objective constant is not among it),
    valued by the status and the raw ``x``.  An ``ITERATION_LIMIT`` or
    ``ERROR`` outcome is never stored.
    """
    import scipy.optimize  # noqa: F401 - loaded before the clock starts

    start = time.perf_counter()
    options = None if time_limit is None else {"time_limit": float(time_limit)}
    status, raw = run_kernel(
        "milp",
        key=lambda: _milp_key(form, options),
        compute=lambda: _run_highs(form, options),
        keep=lambda result: result[0] not in _NOT_MEMOISED,
    )
    elapsed = time.perf_counter() - start

    values = None
    objective = None
    if raw is not None:
        # Round integral columns to absorb the solver's tolerance.
        values = np.where(form.integrality == 1, np.round(raw), raw)
        objective = float(form.objective @ raw) + form.objective_constant
    elif status is SolveStatus.OPTIMAL:
        raise SolverError("scipy milp reported success but returned no solution")

    return Solution(status=status, objective=objective, values=values, solve_time=elapsed)


def _milp_key(form: MatrixForm, options: Optional[dict]) -> str:
    """Digest of every input ``milp`` receives for *form* under *options*."""
    parts = [repr(options).encode()]
    for array in (
        form.objective, form.lower, form.upper, form.integrality,
        form.indptr, form.indices, form.data, form.row_lower, form.row_upper,
    ):
        parts += [array.dtype.str.encode(), repr(array.shape).encode(), array.tobytes()]
    return digest(parts)


def _run_highs(form: MatrixForm, options: Optional[dict]):
    """One HiGHS solve of *form*: its status and its raw ``x`` (or ``None``)."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    constraints = None
    if form.num_constraints:
        matrix = csr_array(
            (form.data, form.indices, form.indptr),
            shape=(form.num_constraints, form.num_variables),
        )
        constraints = LinearConstraint(matrix, form.row_lower, form.row_upper)

    def run(objective):
        return milp(
            c=objective,
            constraints=constraints,
            integrality=form.integrality,
            bounds=Bounds(form.lower, form.upper),
            options=options,
        )

    result = run(form.objective)
    status = _SCIPY_STATUS.get(result.status, SolveStatus.ERROR)
    if result.status == 4:
        # HiGHS: "primal infeasible or unbounded".  Nothing is unbounded
        # under a zero objective, so that re-solve tells the two apart.
        status = _ZERO_OBJECTIVE_STATUS.get(
            run(np.zeros_like(form.objective)).status, SolveStatus.ERROR
        )
    if result.x is None:
        return status, None
    raw = np.array(result.x, dtype=float)
    raw.flags.writeable = False  # shared by every memo hit
    return status, raw
