"""Job and report types for the batched partitioning engine.

A :class:`PartitionJob` pairs one problem with the solver configuration to
use on it (a :class:`~repro.partition.registry.SolverSpec`, re-exported
here); a :class:`JobOutcome` is the flat, JSON-serialisable record a
worker process sends back (and the unit the caches store); a
:class:`JobReport` adds where the outcome came from (fresh solve, memory
cache, disk cache, batch dedup) for accounting, and an in-process solve's
validated partitioning.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from ..errors import PartitioningError
from ..partition.registry import SOLVER_TAG, SolverSpec
from ..partition.result import TemporalPartitioning
from ..partition.spec import PartitionProblem
from .canonical import problem_fingerprint


@dataclass
class PartitionJob:
    """One unit of work: a problem plus its solver configuration."""

    problem: PartitionProblem
    solver: SolverSpec = field(default_factory=SolverSpec)
    tag: str = ""

    def fingerprint(self) -> str:
        """Content hash keying this job in the caches."""
        return problem_fingerprint(self.problem, self.solver.cache_key_fields())


class JobStatus(str, enum.Enum):
    """Terminal state of one job."""

    SOLVED = "solved"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CRASHED = "crashed"


class ResultSource(str, enum.Enum):
    """Where a job's outcome came from."""

    SOLVE = "solve"
    MEMORY_CACHE = "memory-cache"
    DISK_CACHE = "disk-cache"
    BATCH_DEDUP = "batch-dedup"


@dataclass
class JobOutcome:
    """Flat, picklable/JSON-able record of one solve attempt."""

    fingerprint: str
    status: JobStatus
    assignment: Dict[str, int] = field(default_factory=dict)
    partition_count: int = 0
    total_latency: float = 0.0
    computation_latency: float = 0.0
    objective_value: Optional[float] = None
    method: str = ""
    backend: str = ""
    solve_time: float = 0.0
    worker_time: float = 0.0
    attempted_bounds: Optional[list] = None
    error: str = ""
    error_kind: str = ""

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable partitioning."""
        return self.status is JobStatus.SOLVED

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form (enum flattened to its string value)."""
        data = asdict(self)
        data["status"] = self.status.value
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "JobOutcome":
        """Inverse of :meth:`to_json_dict`; raises ``KeyError`` on bad data."""
        payload = dict(data)
        payload["status"] = JobStatus(payload["status"])
        return cls(**payload)


@dataclass
class JobReport:
    """One row of a batch result: the outcome plus provenance.

    *solved* is the validated partitioning an in-process solve produced,
    kept only on the report whose source is ``solve``: cache hits, batch
    dedup copies, pool results and failures carry ``None``.  Pool workers
    send back outcomes alone, and only the outcome reaches the cache; a
    flow re-tags this object instead of rebuilding it from the outcome
    (:func:`~repro.synth.stages.rehydrate_partitioning`).
    """

    job: PartitionJob
    outcome: JobOutcome
    source: ResultSource
    wall_time: float = 0.0
    solved: Optional[TemporalPartitioning] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether this job produced a usable partitioning."""
        return self.outcome.ok

    @property
    def cached(self) -> bool:
        """Whether the outcome was served without running a solver."""
        return self.source is not ResultSource.SOLVE

    def partitioning(self) -> TemporalPartitioning:
        """Rehydrate the full result object from the stored assignment.

        Partition delays and boundary volumes are recomputed from the job's
        own task graph, so a cache hit yields exactly the object a fresh
        solve would have produced.
        """
        return outcome_to_partitioning(self.job.problem, self.outcome)

    def row(self) -> Dict[str, object]:
        """Flat dict for tabular/CSV/JSON presentation."""
        problem = self.job.problem
        return {
            "tag": self.job.tag or problem.graph.name,
            "status": self.outcome.status.value,
            "source": self.source.value,
            "partitioner": self.job.solver.partitioner,
            "backend": self.outcome.backend or SOLVER_TAG,
            "partitions": self.outcome.partition_count,
            "total_latency_s": self.outcome.total_latency,
            "compute_latency_s": self.outcome.computation_latency,
            "solve_time_s": self.outcome.solve_time,
            "wall_time_s": self.wall_time,
            "error": self.outcome.error,
        }


def outcome_to_partitioning(
    problem: PartitionProblem, outcome: JobOutcome
) -> TemporalPartitioning:
    """Build a :class:`TemporalPartitioning` from a stored :class:`JobOutcome`."""
    if not outcome.ok:
        raise PartitioningError(
            f"job {outcome.fingerprint[:12]} did not produce a partitioning "
            f"({outcome.status.value}: {outcome.error or 'no detail'})"
        )
    return TemporalPartitioning(
        graph=problem.graph,
        assignment=dict(outcome.assignment),
        partition_count=outcome.partition_count,
        reconfiguration_time=problem.reconfiguration_time,
        method=outcome.method,
        objective_value=outcome.objective_value,
        solve_time=outcome.solve_time,
        solver_backend=outcome.backend,
    )
