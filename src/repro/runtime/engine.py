"""The batched, parallel, caching partitioning engine.

:class:`PartitionEngine` turns "solve this partitioning problem" from a
blocking single call into a throughput-oriented service primitive:

* **batching** — a whole list of jobs is accepted at once and reported on
  together, in input order;
* **dedup** — jobs that canonicalise to the same fingerprint are solved once
  per batch, the copies served as ``batch-dedup`` hits;
* **caching** — solved outcomes land in the ``partition`` stage of an
  :class:`~repro.runtime.artifacts.ArtifactStore`: a bounded in-memory LRU
  and, optionally, an on-disk JSON layer shared across processes and runs;
* **solve memo** — misses solved in-process run inside the engine's
  :class:`~repro.memo.SolveMemo`, so jobs whose HiGHS models or annealing
  runs coincide (a CT sweep's) run each of them once;
* **parallelism** — cache misses fan out across a ``ProcessPoolExecutor``
  with per-job solver selection, per-job wall-clock timeouts and structured
  crash reports (a dead worker marks its job ``crashed``, it does not take
  the batch down).

The module-level :func:`shared_engine` is the process-wide default used by
the experiment drivers, so repeated case-study builds reuse one solve.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import PartitioningError, ReproError
from ..memo import MemoStats, SolveMemo
from ..memo import scope as memo_scope
from ..partition.result import TemporalPartitioning
from ..partition.spec import PartitionProblem
from ..taskgraph.graph import TaskGraph
from .artifacts import ArtifactStore
from .cache import CacheStats, LruCache, ResultCache
from .canonical import release_shared_texts
from .jobs import (
    JobOutcome,
    JobReport,
    JobStatus,
    PartitionJob,
    ResultSource,
    SolverSpec,
)
from .worker import execute_job, solve_job

JobLike = Union[PartitionJob, PartitionProblem]


@dataclass
class EngineConfig:
    """Static configuration of a :class:`PartitionEngine`.

    Parameters
    ----------
    workers:
        Worker processes for cache misses. ``0`` and ``1`` both solve
        in-process (no pool); ``>= 2`` fans out.
    partitioner / time_limit:
        Defaults applied to jobs submitted as bare problems.
    job_timeout:
        Wall-clock limit (seconds) the engine enforces on the pool phase of
        a batch: any job still unfinished when the limit expires is reported
        as ``timeout`` (the solver-level ``time_limit`` additionally bounds
        each individual solve from inside the worker). Requires
        ``workers >= 2`` — in-process solves cannot be interrupted.
    lru_capacity:
        Entries kept per stage in the in-memory artifact store, and per
        kernel in the engine's solve memo (:mod:`repro.memo`).  At least 1.
    cache_dir:
        Optional shared cache root: outcomes land under
        ``<cache_dir>/stages/partition/`` (and a flow engine's stage
        artifacts beside them); ``None`` disables the disk layer.
    max_disk_entries:
        Optional bound on every stage directory of the cache root; when
        exceeded, oldest-mtime entries are pruned (``None`` = unbounded).
    """

    workers: int = 0
    partitioner: str = "ilp"
    time_limit: Optional[float] = None
    job_timeout: Optional[float] = None
    lru_capacity: int = 256
    cache_dir: Optional[Union[str, Path]] = None
    max_disk_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise PartitioningError("workers must be non-negative")
        if self.lru_capacity < 1:
            raise PartitioningError("lru_capacity must be at least 1")
        if self.max_disk_entries is not None and self.max_disk_entries < 1:
            raise PartitioningError("max_disk_entries must be at least 1")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise PartitioningError("job_timeout must be positive")
        if self.job_timeout is not None and self.workers < 2:
            raise PartitioningError(
                "job_timeout requires workers >= 2: in-process solves cannot be "
                "interrupted (use the solver-level time_limit instead)"
            )

    def default_solver(self) -> SolverSpec:
        """The solver spec applied to bare-problem submissions."""
        return SolverSpec(partitioner=self.partitioner, time_limit=self.time_limit)


@dataclass
class EngineStats:
    """Cumulative accounting across every batch an engine has run."""

    jobs: int = 0
    solved: int = 0
    failed: int = 0
    timeouts: int = 0
    crashes: int = 0
    deduped: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    memo: MemoStats = field(default_factory=MemoStats)

    def snapshot(self) -> Dict[str, int]:
        """Flat dict of every counter (cache and memo counters prefixed)."""
        return {
            "jobs": self.jobs,
            "solved": self.solved,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "deduped": self.deduped,
            "cache_memory_hits": self.cache.memory_hits,
            "cache_disk_hits": self.cache.disk_hits,
            "cache_misses": self.cache.misses,
            "cache_stores": self.cache.stores,
            "cache_disk_write_errors": self.cache.disk_write_errors,
            "cache_disk_pruned": self.cache.disk_pruned,
            **self.memo.snapshot(),
        }


@dataclass
class BatchReport:
    """Everything one :meth:`PartitionEngine.solve_batch` call produced."""

    reports: List[JobReport]
    wall_time: float
    workers_used: int

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __getitem__(self, index: int) -> JobReport:
        return self.reports[index]

    @property
    def ok(self) -> bool:
        """Whether every job produced a usable partitioning."""
        return all(report.ok for report in self.reports)

    def failures(self) -> List[JobReport]:
        """Jobs that did not end ``solved``."""
        return [report for report in self.reports if not report.ok]

    def rows(self) -> List[Dict[str, object]]:
        """Per-job rows for tabular/JSON/CSV output."""
        return [report.row() for report in self.reports]

    def describe(self) -> str:
        """One-line human readable summary."""
        sources: Dict[str, int] = {}
        for report in self.reports:
            sources[report.source.value] = sources.get(report.source.value, 0) + 1
        breakdown = ", ".join(f"{count} {name}" for name, count in sorted(sources.items()))
        status = "all ok" if self.ok else f"{len(self.failures())} failed"
        return (
            f"batch of {len(self.reports)} jobs in {self.wall_time:.2f} s "
            f"({self.workers_used} worker(s); {breakdown}; {status})"
        )


class PartitionEngine:
    """Batched, cached, parallel temporal partitioning."""

    def __init__(self, config: Optional[EngineConfig] = None, **overrides) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise PartitioningError("pass either a config object or keyword overrides")
        self.config = config
        self.store = ArtifactStore(
            config.cache_dir,
            lru_capacity=config.lru_capacity,
            max_entries=config.max_disk_entries,
        )
        self.cache = ResultCache(self.store)
        # The solve memo of the in-process path: kernel results that a CT
        # sweep asks for again (see repro.memo).  It dies with the engine.
        self.memo = SolveMemo(lambda: LruCache(config.lru_capacity))
        self.stats = EngineStats(cache=self.cache.stats, memo=self.memo.stats)
        self.last_batch: Optional[BatchReport] = None

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------

    def make_job(self, problem: PartitionProblem, tag: str = "", **solver) -> PartitionJob:
        """Wrap a problem in a job: *solver* overrides :class:`SolverSpec`
        fields of the config's defaults (an unknown field is a ``TypeError``)."""
        spec = replace(self.config.default_solver(), **solver)
        return PartitionJob(problem=problem, solver=spec, tag=tag)

    def _coerce_jobs(self, submissions: Iterable[JobLike]) -> List[PartitionJob]:
        jobs: List[PartitionJob] = []
        for index, item in enumerate(submissions):
            if isinstance(item, PartitionJob):
                jobs.append(item)
            elif isinstance(item, PartitionProblem):
                jobs.append(self.make_job(item, tag=f"job-{index}"))
            else:
                raise PartitioningError(
                    f"batch item {index} is {type(item).__name__}, expected "
                    "PartitionProblem or PartitionJob"
                )
        return jobs

    # ------------------------------------------------------------------
    # Batch solving
    # ------------------------------------------------------------------

    def solve_batch(self, submissions: Sequence[JobLike]) -> BatchReport:
        """Solve a whole batch; the report preserves submission order."""
        start = time.perf_counter()
        jobs = self._coerce_jobs(submissions)
        fingerprints = [job.fingerprint() for job in jobs]
        # Every key of the batch is written: no shared-walk text is read again.
        release_shared_texts()

        # Cache pass: one lookup per *unique* fingerprint so the accounting
        # counts problems, not copies; copies become batch-dedup hits.
        cached: Dict[str, JobOutcome] = {}
        miss_order: List[str] = []
        miss_jobs: Dict[str, PartitionJob] = {}
        sources: Dict[str, ResultSource] = {}
        for job, fingerprint in zip(jobs, fingerprints):
            if fingerprint in cached or fingerprint in miss_jobs:
                continue
            before = (self.cache.stats.memory_hits, self.cache.stats.disk_hits)
            outcome = self.cache.get(fingerprint)
            if outcome is not None:
                cached[fingerprint] = outcome
                sources[fingerprint] = (
                    ResultSource.MEMORY_CACHE
                    if self.cache.stats.memory_hits > before[0]
                    else ResultSource.DISK_CACHE
                )
            else:
                miss_order.append(fingerprint)
                miss_jobs[fingerprint] = job

        workers_used = min(self.config.workers, len(miss_order))
        solved, partitionings = self._run_misses(miss_order, miss_jobs, workers_used)

        reports: List[JobReport] = []
        seen: Dict[str, bool] = {}
        for job, fingerprint in zip(jobs, fingerprints):
            partitioning = None
            if fingerprint in cached:
                outcome = cached[fingerprint]
                source = sources[fingerprint] if not seen.get(fingerprint) else ResultSource.BATCH_DEDUP
            else:
                outcome = solved[fingerprint]
                source = ResultSource.SOLVE if not seen.get(fingerprint) else ResultSource.BATCH_DEDUP
                # Only the report that ran the solve keeps its object; a
                # dedup copy may carry another CT, so it rebuilds its own.
                partitioning = partitionings.pop(fingerprint, None)
            if seen.get(fingerprint):
                self.stats.deduped += 1
            seen[fingerprint] = True
            self.stats.jobs += 1
            self._count_status(outcome.status)
            reports.append(
                JobReport(
                    job=job,
                    outcome=outcome,
                    source=source,
                    # Cached/deduped rows cost (next to) nothing this batch;
                    # the original solve time stays visible in solve_time_s.
                    wall_time=outcome.worker_time if source is ResultSource.SOLVE else 0.0,
                    solved=partitioning,
                )
            )

        batch = BatchReport(
            reports=reports,
            wall_time=time.perf_counter() - start,
            workers_used=workers_used,
        )
        self.last_batch = batch
        return batch

    def _count_status(self, status: JobStatus) -> None:
        if status is JobStatus.SOLVED:
            self.stats.solved += 1
        elif status is JobStatus.FAILED:
            self.stats.failed += 1
        elif status is JobStatus.TIMEOUT:
            self.stats.timeouts += 1
        else:
            self.stats.crashes += 1

    def _run_misses(
        self,
        miss_order: List[str],
        miss_jobs: Dict[str, PartitionJob],
        workers_used: int,
    ) -> Tuple[Dict[str, JobOutcome], Dict[str, TemporalPartitioning]]:
        """Solve every miss and cache its outcome.  Returns the outcomes,
        plus the validated partitionings of the in-process solves (the
        pool sends back outcomes alone); those are never cached."""
        partitionings: Dict[str, TemporalPartitioning] = {}
        if not miss_order:
            return {}, partitionings
        # A configuration with >= 2 workers always dispatches through the
        # pool — even a single miss — so job_timeout and crash isolation
        # behave the same however large the batch happens to be.
        if self.config.workers >= 2:
            solved = self._run_pool(miss_order, miss_jobs, workers_used)
        else:
            solved = {}
            for fingerprint in miss_order:
                solved[fingerprint], partitioning = self._run_inline(
                    miss_jobs[fingerprint], fingerprint
                )
                if partitioning is not None:
                    partitionings[fingerprint] = partitioning
        for fingerprint, outcome in solved.items():
            self.cache.put(fingerprint, outcome)
        return solved, partitionings

    def _run_inline(
        self, job: PartitionJob, fingerprint: str
    ) -> Tuple[JobOutcome, Optional[TemporalPartitioning]]:
        try:
            with memo_scope(self.memo):
                return solve_job(job, fingerprint)
        except ReproError as error:  # pragma: no cover - solve_job catches these
            return _failure_outcome(fingerprint, JobStatus.FAILED, error), None
        except Exception as error:  # noqa: BLE001 - worker bug -> structured report
            return _failure_outcome(fingerprint, JobStatus.CRASHED, error), None

    def _run_pool(
        self,
        miss_order: List[str],
        miss_jobs: Dict[str, PartitionJob],
        workers_used: int,
    ) -> Dict[str, JobOutcome]:
        solved: Dict[str, JobOutcome] = {}
        executor = ProcessPoolExecutor(max_workers=workers_used)
        timed_out = False
        try:
            futures = {}
            for fingerprint in miss_order:
                try:
                    futures[fingerprint] = executor.submit(
                        execute_job, miss_jobs[fingerprint], fingerprint
                    )
                except Exception as error:  # noqa: BLE001 - e.g. unpicklable job
                    solved[fingerprint] = _failure_outcome(
                        fingerprint, JobStatus.CRASHED, error
                    )
            deadline = (
                time.monotonic() + self.config.job_timeout
                if self.config.job_timeout is not None
                else None
            )
            for fingerprint, future in futures.items():
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - time.monotonic())
                try:
                    solved[fingerprint] = future.result(timeout=timeout)
                except FutureTimeoutError:
                    future.cancel()
                    timed_out = True
                    solved[fingerprint] = _failure_outcome(
                        fingerprint,
                        JobStatus.TIMEOUT,
                        TimeoutError(
                            f"job exceeded the {self.config.job_timeout:.3f} s "
                            "wall-clock limit"
                        ),
                    )
                except BrokenExecutor as error:
                    solved[fingerprint] = _failure_outcome(
                        fingerprint, JobStatus.CRASHED, error, "worker process died: "
                    )
                except Exception as error:  # noqa: BLE001 - worker bug -> report
                    solved[fingerprint] = _failure_outcome(
                        fingerprint, JobStatus.CRASHED, error
                    )
        finally:
            if timed_out:
                # A future past its deadline may still be *running*; cancel()
                # cannot stop it and concurrent.futures joins every worker at
                # interpreter exit, so a truly stuck solve would hang the
                # process. Kill the remaining workers (before shutdown clears
                # the process table) — their results have already been
                # reported as timeouts.
                for process in list((getattr(executor, "_processes", None) or {}).values()):
                    process.kill()
            executor.shutdown(wait=False, cancel_futures=True)
        return solved

    # ------------------------------------------------------------------
    # Convenience single-problem API
    # ------------------------------------------------------------------

    def solve(
        self, problem: PartitionProblem, tag: str = "", **solver
    ) -> TemporalPartitioning:
        """Solve one problem through the cache and return the partitioning.

        Raises :class:`~repro.errors.PartitioningError` when the job fails,
        carrying the structured error detail.
        """
        report = self.solve_batch([self.make_job(problem, tag=tag, **solver)])[0]
        if not report.ok:
            raise PartitioningError(
                f"engine job {report.job.tag or problem.graph.name!r} ended "
                f"{report.outcome.status.value}: {report.outcome.error or 'no detail'}"
            )
        return report.partitioning()


# ---------------------------------------------------------------------------
# Sweep helpers
# ---------------------------------------------------------------------------

def ct_sweep_jobs(
    engine: PartitionEngine,
    graph: TaskGraph,
    system,
    ct_values: Sequence[float],
    **solver,
) -> List[PartitionJob]:
    """Jobs for one graph swept across reconfiguration times (seconds)."""
    jobs = []
    for ct in ct_values:
        problem = PartitionProblem.from_system(graph, system.with_reconfiguration_time(ct))
        jobs.append(
            engine.make_job(problem, tag=f"{graph.name}@ct={ct * 1e3:g}ms", **solver)
        )
    return jobs


def _failure_outcome(
    fingerprint: str,
    status: JobStatus,
    error: BaseException,
    prefix: str = "",
) -> JobOutcome:
    return JobOutcome(
        fingerprint=fingerprint,
        status=status,
        error=f"{prefix}{error}",
        error_kind=type(error).__name__,
    )


# ---------------------------------------------------------------------------
# Process-wide shared engine
# ---------------------------------------------------------------------------

_shared_engine: Optional[PartitionEngine] = None


def shared_engine() -> PartitionEngine:
    """The process-wide default engine (in-memory cache, in-process solves).

    Experiment drivers route their ILP solves through this engine so that
    Table 1, Table 2 and the summary report built in one process all reuse a
    single solve of the case-study instance.
    """
    global _shared_engine
    if _shared_engine is None:
        _shared_engine = PartitionEngine(EngineConfig())
    return _shared_engine


def configure_shared_engine(config: EngineConfig) -> PartitionEngine:
    """Replace the process-wide engine (e.g. to attach a disk cache)."""
    global _shared_engine
    _shared_engine = PartitionEngine(config)
    return _shared_engine
