"""Solution and status objects returned by the HiGHS call."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class SolveStatus(str, Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"


@dataclass
class Solution:
    """Result of solving a :class:`~repro.ilp.MatrixForm`.

    Attributes
    ----------
    status:
        The :class:`SolveStatus` outcome.
    objective:
        Objective value at the returned point (``None`` unless optimal or a
        feasible incumbent was found at the iteration limit).
    values:
        The value of every column, indexed like the form's columns, with
        integral columns rounded to exact integers (``None`` without a
        point).
    solve_time:
        Wall-clock seconds spent in HiGHS.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Optional[np.ndarray] = None
    solve_time: float = 0.0

    @property
    def is_optimal(self) -> bool:
        """Whether the solver proved optimality."""
        return self.status is SolveStatus.OPTIMAL
