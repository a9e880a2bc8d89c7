"""Branch-and-bound MILP solver built on LP relaxations.

This is the library's own exact 0-1/integer solver.  It follows the textbook
recipe:

1. solve the LP relaxation of the node with scipy's HiGHS ``linprog``;
2. prune if infeasible or if the relaxation bound cannot beat the incumbent;
3. if the relaxation is integral, update the incumbent;
4. otherwise pick the most fractional integer variable and branch on
   ``x <= floor(value)`` / ``x >= ceil(value)`` by tightening its bounds.

Node selection is best-first (lowest relaxation bound first) which keeps the
incumbent gap small on the partitioning models; a depth-first tiebreak limits
memory use.

The search can be **warm-started** with a known feasible solution (an
*incumbent*): pruning then works from node one instead of waiting for the
tree to produce its first integral point, and — because the popped bounds of
a best-first search are non-decreasing — the whole run terminates the moment
the best open bound cannot beat the incumbent.  The temporal partitioner
feeds the list-scheduler solution in here, which is what makes the exact
solve "never worse than the heuristic" by construction rather than by
theorem.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SolverError
from .expr import Variable
from .model import MatrixForm, Model
from .scipy_backend import solve_lp_scipy
from .solution import Solution, SolveStatus

#: Tolerance below which a value counts as integral.
INTEGRALITY_TOLERANCE = 1e-6

#: Margin (in objective units) a candidate must improve the incumbent by.
IMPROVEMENT_EPSILON = 1e-9


@dataclass(order=True)
class _Node:
    """A branch-and-bound node: bound plus per-variable bound overrides."""

    bound: float
    order: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    depth: int = field(compare=False, default=0)


def incumbent_vector(
    form: MatrixForm,
    incumbent: Mapping[Variable, float],
    tolerance: float = 1e-6,
) -> Optional[np.ndarray]:
    """Validate a warm-start assignment against *form*; ``None`` if unusable.

    The assignment must cover every variable, respect the bounds and
    integrality, and satisfy every row to within *tolerance* (plus a small
    relative slack for large right-hand sides).  An invalid incumbent is
    reported as ``None`` rather than an error so callers can always attempt
    a warm start and silently fall back to a cold one.
    """
    x = np.full(form.num_variables, np.nan)
    for variable, value in incumbent.items():
        if 0 <= variable.index < form.num_variables:
            x[variable.index] = value
    if np.isnan(x).any():
        return None
    integral = form.integrality > 0
    if np.abs(x[integral] - np.round(x[integral])).max(initial=0.0) > tolerance:
        return None
    x[integral] = np.round(x[integral])
    if (x < form.lower - tolerance).any() or (x > form.upper + tolerance).any():
        return None
    if form.a_ub.size:
        slack = form.b_ub - form.a_ub @ x
        if (slack < -(tolerance + 1e-9 * np.abs(form.b_ub))).any():
            return None
    if form.a_eq.size:
        residual = np.abs(form.a_eq @ x - form.b_eq)
        if (residual > tolerance + 1e-9 * np.abs(form.b_eq)).any():
            return None
    return x


def solve_branch_and_bound(
    model: Model,
    max_nodes: int = 200000,
    time_limit: Optional[float] = None,
    lp_iterations: int = 100000,
    incumbent: Optional[Mapping[Variable, float]] = None,
) -> Solution:
    """Solve *model* to optimality with branch and bound.

    Parameters
    ----------
    model:
        The model to solve.  Maximisation models are handled transparently.
    max_nodes:
        Safety cap on explored nodes; exceeding it returns the best incumbent
        with status ``ITERATION_LIMIT``.
    time_limit:
        Optional wall-clock limit in seconds (same incumbent semantics).
    incumbent:
        Optional warm-start assignment (variable -> value).  If it is
        feasible for the model it seeds the upper bound, so the search only
        explores nodes that can strictly improve on it; if it is not (or not
        given) the search runs cold.  The seeded solution is returned when
        nothing in the tree beats it.
    """
    form = model.to_matrix_form()
    start = time.perf_counter()

    integral_columns = np.nonzero(form.integrality > 0)[0]

    incumbent_x: Optional[np.ndarray] = None
    incumbent_objective = math.inf
    if incumbent is not None:
        seeded = incumbent_vector(form, incumbent)
        if seeded is not None:
            incumbent_x = seeded
            incumbent_objective = (
                float(form.objective @ seeded) + form.objective_constant
            )

    root = _Node(bound=-math.inf, order=0, lower=form.lower.copy(), upper=form.upper.copy())
    heap: List[_Node] = [root]
    explored = 0
    order_counter = 1

    def out_of_budget() -> bool:
        if explored >= max_nodes:
            return True
        if time_limit is not None and time.perf_counter() - start > time_limit:
            return True
        return False

    proven = False
    while heap:
        if out_of_budget():
            break
        node = heapq.heappop(heap)
        if node.bound >= incumbent_objective - IMPROVEMENT_EPSILON and incumbent_x is not None:
            # Best-first pops bounds in non-decreasing order, so once the
            # best open bound cannot beat the incumbent nothing on the heap
            # can: the incumbent is proven optimal.
            proven = True
            break
        explored += 1

        node_form = MatrixForm(
            objective=form.objective,
            a_ub=form.a_ub,
            b_ub=form.b_ub,
            a_eq=form.a_eq,
            b_eq=form.b_eq,
            lower=node.lower,
            upper=node.upper,
            integrality=form.integrality,
            variables=form.variables,
            objective_constant=form.objective_constant,
        )
        relaxation = solve_lp_scipy(node_form, lp_iterations)
        if relaxation.status is SolveStatus.INFEASIBLE:
            continue
        if relaxation.status is SolveStatus.UNBOUNDED:
            elapsed = time.perf_counter() - start
            return Solution(
                status=SolveStatus.UNBOUNDED,
                backend="branch-and-bound",
                iterations=explored,
                solve_time=elapsed,
            )
        if relaxation.status is not SolveStatus.OPTIMAL or relaxation.x is None:
            raise SolverError(
                f"LP relaxation failed with status {relaxation.status.value} "
                "inside branch and bound"
            )
        if relaxation.objective is None:
            raise SolverError("LP relaxation returned no objective value")
        if relaxation.objective >= incumbent_objective - IMPROVEMENT_EPSILON:
            continue  # cannot improve the incumbent

        x = np.asarray(relaxation.x, dtype=float)
        fractional = _most_fractional(x, integral_columns)
        if fractional is None:
            # Integral solution: new incumbent.
            rounded = x.copy()
            rounded[integral_columns] = np.round(rounded[integral_columns])
            objective = float(form.objective @ rounded) + form.objective_constant
            if objective < incumbent_objective - IMPROVEMENT_EPSILON:
                incumbent_objective = objective
                incumbent_x = rounded
            continue

        column, value = fractional
        floor_value = math.floor(value + INTEGRALITY_TOLERANCE)
        ceil_value = floor_value + 1

        down_upper = node.upper.copy()
        down_upper[column] = min(down_upper[column], floor_value)
        up_lower = node.lower.copy()
        up_lower[column] = max(up_lower[column], ceil_value)

        if node.lower[column] <= down_upper[column]:
            heapq.heappush(
                heap,
                _Node(
                    bound=relaxation.objective,
                    order=order_counter,
                    lower=node.lower.copy(),
                    upper=down_upper,
                    depth=node.depth + 1,
                ),
            )
            order_counter += 1
        if up_lower[column] <= node.upper[column]:
            heapq.heappush(
                heap,
                _Node(
                    bound=relaxation.objective,
                    order=order_counter,
                    lower=up_lower,
                    upper=node.upper.copy(),
                    depth=node.depth + 1,
                ),
            )
            order_counter += 1

    elapsed = time.perf_counter() - start
    exhausted = proven or not heap
    if incumbent_x is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.ITERATION_LIMIT
        return Solution(
            status=status,
            backend="branch-and-bound",
            iterations=explored,
            solve_time=elapsed,
        )

    values: Dict = {
        variable: (
            float(round(incumbent_x[variable.index]))
            if variable.is_integral
            else float(incumbent_x[variable.index])
        )
        for variable in form.variables
    }
    objective = incumbent_objective
    if not model.is_minimization:
        objective = -objective
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.ITERATION_LIMIT
    return Solution(
        status=status,
        objective=objective,
        values=values,
        backend="branch-and-bound",
        iterations=explored,
        solve_time=elapsed,
    )


def _most_fractional(
    x: np.ndarray, integral_columns: np.ndarray
) -> Optional[Tuple[int, float]]:
    """The integral column whose value is farthest from an integer, if any."""
    best_column: Optional[int] = None
    best_distance = INTEGRALITY_TOLERANCE
    for column in integral_columns:
        value = x[column]
        distance = abs(value - round(value))
        if distance > best_distance:
            best_distance = distance
            best_column = int(column)
    if best_column is None:
        return None
    return best_column, float(x[best_column])
