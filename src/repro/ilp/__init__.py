"""The MILP solver call (the library's substitute for CPLEX).

A model is a :class:`MatrixForm`, HiGHS's standard form, which
:class:`~repro.partition.TemporalPartitioningFormulation` writes directly.
:func:`~repro.ilp.scipy_backend.solve_milp_scipy` solves it exactly with
scipy's HiGHS ``milp`` and returns a :class:`Solution`.
"""

from .scipy_backend import MatrixForm, solve_milp_scipy
from .solution import Solution, SolveStatus

__all__ = [
    "MatrixForm",
    "Solution",
    "SolveStatus",
    "solve_milp_scipy",
]
