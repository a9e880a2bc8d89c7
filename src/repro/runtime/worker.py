"""The function that runs inside engine worker processes.

Kept in its own module so :func:`execute_job` is importable by name in every
worker (a requirement for pickling with ``ProcessPoolExecutor``) and so the
engine module itself never has to be imported by workers.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from ..errors import ReproError
from ..partition.registry import SOLVER_TAG, make_partitioner
from ..partition.result import TemporalPartitioning
from ..partition.spec import PartitionProblem
from ..partition.validate import assert_valid
from .jobs import JobOutcome, JobStatus, PartitionJob, SolverSpec


def _solved_outcome(
    fingerprint: str,
    problem: PartitionProblem,
    result: TemporalPartitioning,
    solver: SolverSpec,
    attempted_bounds,
    elapsed: float,
) -> JobOutcome:
    return JobOutcome(
        fingerprint=fingerprint,
        status=JobStatus.SOLVED,
        assignment=dict(result.assignment),
        partition_count=result.partition_count,
        total_latency=result.total_latency,
        computation_latency=result.computation_latency,
        objective_value=result.objective_value,
        method=result.method or solver.partitioner,
        backend=result.solver_backend or SOLVER_TAG,
        solve_time=result.solve_time,
        worker_time=elapsed,
        attempted_bounds=attempted_bounds,
    )


def execute_job(job: PartitionJob, fingerprint: str) -> JobOutcome:
    """Solve one job and return its outcome; never raises library errors.

    *fingerprint* is ``job.fingerprint()``, which the engine has already
    computed to key its caches; it is stamped on the outcome, not
    recomputed.  Every result is validated against ``job.problem`` before
    it becomes an outcome, so a fresh solve never hands an invalid
    partitioning to a cache or a flow.  Library failures (infeasible
    instance, solver error, bad spec, a result that breaks a constraint)
    come back as structured ``FAILED`` outcomes so one poisoned problem
    cannot take down a whole batch. Only non-library exceptions propagate —
    those are bugs, and the engine converts them into ``CRASHED`` reports.
    """
    return solve_job(job, fingerprint)[0]


def solve_job(
    job: PartitionJob, fingerprint: str
) -> Tuple[JobOutcome, Optional[TemporalPartitioning]]:
    """:func:`execute_job`, plus the validated partitioning it solved
    (``None`` when the job failed).

    The in-process path keeps that object for the flow to re-tag instead
    of rebuilding it from the outcome; the pool path sends back the
    outcome alone.
    """
    start = time.perf_counter()
    try:
        partitioner = make_partitioner(job.solver)
        result = partitioner.partition(job.problem)
        assert_valid(job.problem, result)
        attempted = None
        last_report = getattr(partitioner, "last_report", None)
        if last_report is not None:
            attempted = list(last_report.attempted_bounds)
        outcome = _solved_outcome(
            fingerprint,
            job.problem,
            result,
            job.solver,
            attempted,
            time.perf_counter() - start,
        )
        return outcome, result
    except ReproError as error:
        return JobOutcome(
            fingerprint=fingerprint,
            status=JobStatus.FAILED,
            error=str(error),
            error_kind=type(error).__name__,
            worker_time=time.perf_counter() - start,
        ), None
