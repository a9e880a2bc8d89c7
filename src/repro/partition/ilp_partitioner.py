"""The ILP-based temporal partitioner (the paper's tool).

Implements the preprocessing / model-generation / relax-N loop of Section 2.1:

1. compute the resource lower bound on the number of partitions;
2. build the ILP for that bound and solve it;
3. if infeasible, relax the bound by one and repeat;
4. return the optimal assignment for the first feasible bound (optionally
   also exploring a few larger bounds and keeping the best objective).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import PartitioningError
from ..ilp.scipy_backend import BACKEND_NAME, solve_milp_scipy
from ..ilp.solution import SolveStatus
from .ilp_formulation import (
    MODEL_TIME_SCALE,
    FormulationOptions,
    TemporalPartitioningFormulation,
)
from .result import TemporalPartitioning
from .spec import PartitionProblem


@dataclass
class IlpPartitionerReport:
    """Diagnostics of one partitioning run (which bounds were tried, timings)."""

    attempted_bounds: List[int] = field(default_factory=list)
    infeasible_bounds: List[int] = field(default_factory=list)
    chosen_bound: Optional[int] = None
    model_variables: int = 0
    model_constraints: int = 0
    solve_time: float = 0.0
    total_time: float = 0.0
    #: :meth:`PartitionProblem.delay_lower_bound` (seconds): the floor the
    #: model puts under ``sum_p d_p``, for comparison with the optimum's
    #: computation latency.
    delay_bound: float = 0.0


class IlpTemporalPartitioner:
    """Optimal (minimum-latency) temporal partitioning via ILP.

    Parameters
    ----------
    options:
        Formulation switches (:class:`FormulationOptions`).
    explore_extra_partitions:
        After the first feasible bound ``N*`` is found, additionally solve
        ``N*+1 .. N*+explore_extra_partitions`` and keep the best objective.
        The paper stops at the first feasible bound (default 0).
    time_limit:
        Optional per-solve wall-clock limit in seconds.
    """

    def __init__(
        self,
        options: Optional[FormulationOptions] = None,
        explore_extra_partitions: int = 0,
        time_limit: Optional[float] = None,
    ) -> None:
        if explore_extra_partitions < 0:
            raise PartitioningError("explore_extra_partitions must be non-negative")
        self.options = options or FormulationOptions()
        self.explore_extra_partitions = explore_extra_partitions
        self.time_limit = time_limit
        self.last_report: Optional[IlpPartitionerReport] = None

    def partition(self, problem: PartitionProblem) -> TemporalPartitioning:
        """Run the preprocessing + relax-N loop and return the best partitioning."""
        report = IlpPartitionerReport()
        start = time.perf_counter()
        lower_bound = problem.minimum_partitions()
        cap = problem.partition_cap()

        best: Optional[TemporalPartitioning] = None
        bound = lower_bound
        extra_remaining = self.explore_extra_partitions
        while bound <= cap:
            report.attempted_bounds.append(bound)
            candidate = self._solve_for_bound(problem, bound, report)
            if candidate is None:
                report.infeasible_bounds.append(bound)
                bound += 1
                continue
            if best is None or candidate.total_latency < best.total_latency - 1e-15:
                best = candidate
                report.chosen_bound = candidate.partition_count
            if extra_remaining == 0:
                break
            extra_remaining -= 1
            bound += 1

        report.total_time = time.perf_counter() - start
        self.last_report = report
        if best is None:
            raise PartitioningError(
                f"no feasible temporal partitioning exists for "
                f"{problem.graph.name!r} with up to {cap} partitions "
                "(check the memory constraint and per-task resource usage)"
            )
        return best

    # ------------------------------------------------------------------

    def _solve_for_bound(
        self, problem: PartitionProblem, bound: int, report: IlpPartitionerReport
    ) -> Optional[TemporalPartitioning]:
        formulation = TemporalPartitioningFormulation(problem, bound, self.options)
        form = formulation.form
        report.model_variables = form.num_variables
        report.model_constraints = form.num_constraints
        report.delay_bound = formulation.delay_bound
        solution = solve_milp_scipy(form, time_limit=self.time_limit)
        report.solve_time += solution.solve_time
        if solution.status is SolveStatus.INFEASIBLE:
            return None
        if solution.status is not SolveStatus.OPTIMAL:
            raise PartitioningError(
                f"ILP solve for N={bound} ended with status "
                f"{solution.status.value!r} (backend {BACKEND_NAME!r})"
            )
        assignment = formulation.extract_assignment(solution.values)
        assignment, used = _compress_assignment(assignment)
        # The model works in scaled time units (ns); report seconds.
        objective_seconds = solution.objective / MODEL_TIME_SCALE
        return TemporalPartitioning(
            graph=problem.graph,
            assignment=assignment,
            partition_count=used,
            reconfiguration_time=problem.reconfiguration_time,
            method="ilp",
            objective_value=objective_seconds,
            solve_time=solution.solve_time,
            solver_backend=BACKEND_NAME,
        )


def _compress_assignment(assignment):
    """Renumber partitions 1..N' dropping empty ones (order is preserved).

    The ILP objective charges ``N*CT`` for the *bound* N, so the solver has no
    incentive to avoid leaving a partition empty; dropping empty partitions
    afterwards never hurts latency and never violates a constraint.
    """
    used_indices = sorted(set(assignment.values()))
    renumber = {old: new for new, old in enumerate(used_indices, start=1)}
    return {task: renumber[p] for task, p in assignment.items()}, len(used_indices)
