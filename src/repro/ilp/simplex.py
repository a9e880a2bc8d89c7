"""A self-contained dense two-phase simplex LP solver.

This backend exists so the library has no hard dependency on any external
optimiser: the branch-and-bound MILP solver can run its LP relaxations either
through scipy's HiGHS (fast) or through this pure-Python/numpy implementation
(dependable, easy to instrument, and handy for unit-testing the modelling
layer itself).

Scope: minimise ``c.x`` subject to ``A_ub.x <= b_ub``, ``A_eq.x == b_eq`` and
finite, non-negative lower bounds on the variables (upper bounds are turned
into extra ``<=`` rows).  That covers every model this library builds — the
temporal-partitioning ILP only has 0/1 variables and non-negative delay
variables.

Two interchangeable pivot engines implement the iteration loop:

* ``"vectorised"`` (default) — numpy throughout: Dantzig pricing (most
  negative reduced cost), a vectorised ratio test, and rank-one tableau
  updates via an outer product.  A Bland's-rule fallback kicks in after a
  streak of degenerate pivots so termination stays guaranteed.
* ``"reference"`` — the original pure-Python pivot loop with Bland's rule
  everywhere.  It is kept verbatim as the differential reference the
  vectorised engine is tested against (``solve_lp(..., engine="reference")``).

Both engines solve the same LP, so objective values agree to solver
tolerance; the optimal *vertex* may legitimately differ on degenerate
models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SolverError
from .model import MatrixForm
from .solution import SolveStatus

#: Tolerance used for optimality/feasibility tests inside the simplex.
EPSILON = 1e-9

#: The available pivot engines.
ENGINES = ("vectorised", "reference")

#: Consecutive degenerate pivots after which the vectorised engine drops
#: from Dantzig pricing to Bland's rule (anti-cycling).
BLAND_SWITCH_STREAK = 64

@dataclass
class LpResult:
    """Raw result of an LP solve in matrix space (values indexed by column)."""

    status: SolveStatus
    objective: Optional[float]
    x: Optional[np.ndarray]
    iterations: int
    solve_time: float


def _prepare_standard_form(form: MatrixForm):
    """Shift lower bounds to zero and fold upper bounds into ``<=`` rows.

    Returns the augmented ``(c, a_ub, b_ub, a_eq, b_eq, shift)`` tuple where
    the original variable values are recovered as ``x = y + shift``.
    """
    lower = form.lower.copy()
    upper = form.upper.copy()
    if np.any(np.isneginf(lower)):
        raise SolverError(
            "the built-in simplex requires finite lower bounds on all variables"
        )
    shift = lower
    c = form.objective.astype(float).copy()

    a_ub = form.a_ub.astype(float).copy()
    b_ub = form.b_ub.astype(float).copy()
    a_eq = form.a_eq.astype(float).copy()
    b_eq = form.b_eq.astype(float).copy()

    # Substitute x = y + shift (y >= 0).
    if a_ub.size:
        b_ub = b_ub - a_ub @ shift
    if a_eq.size:
        b_eq = b_eq - a_eq @ shift

    # Upper bounds become y_j <= upper_j - shift_j rows (only finite ones).
    finite_upper = np.isfinite(upper)
    if np.any(finite_upper):
        indices = np.nonzero(finite_upper)[0]
        extra_rows = np.zeros((len(indices), form.num_variables))
        extra_rows[np.arange(len(indices)), indices] = 1.0
        extra_rhs = upper[indices] - shift[indices]
        a_ub = np.vstack([a_ub, extra_rows]) if a_ub.size else extra_rows
        b_ub = np.concatenate([b_ub, extra_rhs]) if b_ub.size else extra_rhs

    return c, a_ub, b_ub, a_eq, b_eq, shift


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, column: int) -> None:
    """Perform a pivot on (row, column) of the simplex tableau in place.

    Reference implementation: an explicit Python loop over rows (Gauss-Jordan
    elimination one row at a time).
    """
    tableau[row] /= tableau[row, column]
    for other in range(tableau.shape[0]):
        if other != row and abs(tableau[other, column]) > EPSILON:
            tableau[other] -= tableau[other, column] * tableau[row]
    basis[row] = column


def _pivot_vectorised(
    tableau: np.ndarray, basis: np.ndarray, row: int, column: int
) -> None:
    """Pivot on (row, column) as a single rank-one update (no Python loop)."""
    pivot_row = tableau[row] / tableau[row, column]
    tableau[row] = pivot_row
    column_values = tableau[:, column].copy()
    column_values[row] = 0.0
    # Only rows with a non-negligible coefficient in the pivot column change;
    # on the partitioning models these columns are sparse, so the masked
    # rank-one update touches a fraction of the tableau.
    rows = np.nonzero(np.abs(column_values) > EPSILON)[0]
    if rows.size:
        tableau[rows] -= np.outer(column_values[rows], pivot_row)
    # The pivot column is an identity column by construction; write it
    # exactly to keep residual noise out of later pricing steps.
    tableau[rows, column] = 0.0
    tableau[row, column] = 1.0
    basis[row] = column


def _simplex_iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    num_columns: int,
    max_iterations: int,
    vectorised: bool = False,
) -> tuple:
    """Run primal simplex iterations on a tableau whose last row is the objective.

    Returns ``(status, iterations)``.  The reference engine uses Bland's rule
    throughout (guaranteed termination).  The vectorised engine prices with
    Dantzig's rule (most negative reduced cost — typically far fewer
    iterations) and falls back to Bland's rule after
    :data:`BLAND_SWITCH_STREAK` consecutive degenerate pivots so it cannot
    cycle either.
    """
    iterations = 0
    num_rows = tableau.shape[0] - 1
    pivot = _pivot_vectorised if vectorised else _pivot
    degenerate_streak = 0
    while iterations < max_iterations:
        objective_row = tableau[-1, :num_columns]
        if vectorised and degenerate_streak < BLAND_SWITCH_STREAK:
            entering = int(np.argmin(objective_row))
            if objective_row[entering] >= -EPSILON:
                return SolveStatus.OPTIMAL, iterations
        else:
            entering_candidates = np.nonzero(objective_row < -EPSILON)[0]
            if entering_candidates.size == 0:
                return SolveStatus.OPTIMAL, iterations
            entering = int(entering_candidates[0])  # Bland's rule: smallest index.

        column = tableau[:num_rows, entering]
        positive = column > EPSILON
        if not np.any(positive):
            return SolveStatus.UNBOUNDED, iterations
        ratios = np.full(num_rows, np.inf)
        rhs = tableau[:num_rows, -1]
        ratios[positive] = rhs[positive] / column[positive]
        best_ratio = ratios.min()
        # Tie-break: among minimum-ratio rows pick the one whose basic
        # variable has the smallest index (Bland-compatible, deterministic).
        tie_rows = np.nonzero(ratios <= best_ratio + EPSILON)[0]
        if tie_rows.size == 1:
            leaving = int(tie_rows[0])
        else:
            leaving = int(tie_rows[np.argmin(basis[tie_rows])])
        degenerate_streak = 0 if best_ratio > EPSILON else degenerate_streak + 1
        pivot(tableau, basis, leaving, entering)
        iterations += 1
    return SolveStatus.ITERATION_LIMIT, iterations


def solve_lp(
    form: MatrixForm,
    max_iterations: int = 20000,
    engine: str = "vectorised",
) -> LpResult:
    """Solve the LP relaxation of *form* with a two-phase dense simplex.

    *engine* selects the pivot engine (one of :data:`ENGINES`).
    """
    if engine not in ENGINES:
        raise SolverError(f"unknown simplex engine {engine!r}; choose from {ENGINES}")
    vectorised = engine == "vectorised"
    pivot = _pivot_vectorised if vectorised else _pivot
    start = time.perf_counter()
    c, a_ub, b_ub, a_eq, b_eq, shift = _prepare_standard_form(form)
    num_vars = form.num_variables

    # Build equality system: a_ub y + s = b_ub (s slack), a_eq y = b_eq.
    num_ub = a_ub.shape[0]
    num_eq = a_eq.shape[0]
    num_rows = num_ub + num_eq
    num_structural = num_vars + num_ub

    a = np.zeros((num_rows, num_structural))
    b = np.zeros(num_rows)
    if num_ub:
        a[:num_ub, :num_vars] = a_ub
        a[:num_ub, num_vars:num_vars + num_ub] = np.eye(num_ub)
        b[:num_ub] = b_ub
    if num_eq:
        a[num_ub:, :num_vars] = a_eq
        b[num_ub:] = b_eq

    # Make every right-hand side non-negative.
    negative = b < 0
    a[negative] *= -1.0
    b[negative] *= -1.0

    # Rows that still have a usable identity column (slack with +1 coefficient)
    # need no artificial variable; everything else gets one.
    needs_artificial = np.ones(num_rows, dtype=bool)
    basis = np.full(num_rows, -1, dtype=int)
    for row in range(num_ub):
        slack_column = num_vars + row
        if a[row, slack_column] > 0.5:  # slack kept its +1 sign
            needs_artificial[row] = False
            basis[row] = slack_column

    artificial_rows = np.nonzero(needs_artificial)[0]
    num_artificial = len(artificial_rows)
    total_columns = num_structural + num_artificial

    tableau = np.zeros((num_rows + 1, total_columns + 1))
    tableau[:num_rows, :num_structural] = a
    tableau[:num_rows, -1] = b
    for offset, row in enumerate(artificial_rows):
        column = num_structural + offset
        tableau[row, column] = 1.0
        basis[row] = column

    total_iterations = 0

    # ---------------- Phase 1: drive artificial variables to zero ----------
    if num_artificial:
        tableau[-1, :] = 0.0
        tableau[-1, num_structural:num_structural + num_artificial] = 1.0
        # Express the phase-1 objective in terms of the non-basic variables.
        for row in artificial_rows:
            tableau[-1, :] -= tableau[row, :]
        status, iterations = _simplex_iterate(
            tableau, basis, total_columns, max_iterations, vectorised=vectorised
        )
        total_iterations += iterations
        phase1_value = -tableau[-1, -1]
        if status is SolveStatus.ITERATION_LIMIT:
            return LpResult(status, None, None, total_iterations, time.perf_counter() - start)
        if phase1_value > 1e-6:
            return LpResult(
                SolveStatus.INFEASIBLE, None, None, total_iterations,
                time.perf_counter() - start,
            )
        # Pivot any artificial variable still in the basis out of it.
        for row in range(num_rows):
            if basis[row] >= num_structural:
                pivot_columns = np.nonzero(
                    np.abs(tableau[row, :num_structural]) > EPSILON
                )[0]
                if pivot_columns.size:
                    pivot(tableau, basis, row, int(pivot_columns[0]))
                # Otherwise the row is redundant (all-zero); it stays basic at 0.

    # ---------------- Phase 2: optimise the true objective -----------------
    tableau[-1, :] = 0.0
    tableau[-1, :num_vars] = c
    # Zero out artificial columns so they can never re-enter.
    tableau[:num_rows, num_structural:total_columns] = 0.0
    # Express the objective in terms of the current basis.
    for row in range(num_rows):
        column = basis[row]
        coeff = tableau[-1, column]
        if abs(coeff) > EPSILON:
            tableau[-1, :] -= coeff * tableau[row, :]

    status, iterations = _simplex_iterate(
        tableau, basis, num_structural, max_iterations, vectorised=vectorised
    )
    total_iterations += iterations
    elapsed = time.perf_counter() - start
    if status is SolveStatus.UNBOUNDED:
        return LpResult(SolveStatus.UNBOUNDED, None, None, total_iterations, elapsed)
    if status is SolveStatus.ITERATION_LIMIT:
        return LpResult(SolveStatus.ITERATION_LIMIT, None, None, total_iterations, elapsed)

    solution = np.zeros(num_structural)
    structural = basis < num_structural
    solution[basis[structural]] = tableau[:num_rows, -1][structural]
    x = solution[:num_vars] + shift
    # Recompute the objective in original coordinates to avoid shift bookkeeping.
    objective = float(form.objective @ x) + form.objective_constant
    return LpResult(SolveStatus.OPTIMAL, objective, x, total_iterations, elapsed)
