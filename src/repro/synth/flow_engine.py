"""The design-flow executor.

:class:`FlowEngine` runs every flow in the repository — batch flows,
explorations, ``repro serve`` requests, verify scenarios and the one-call
:meth:`~repro.synth.flow.DesignFlow.build`, which is a one-job run of a
fresh in-memory engine.  It accepts a whole list of (graph, system, options)
flow jobs at once and reduces every job to a DAG of content-addressed stage
keys (:class:`~repro.synth.stages.StagePlan`) executed through the cached
:class:`~repro.synth.pipeline.StagePipeline`:

* the **estimate** stage is served from the stage artifact store (memory +
  optional disk) whenever any previous job shared the graph and device;
* the dominant **partition** stage is routed through the caching/parallel
  :class:`~repro.runtime.engine.PartitionEngine` (canonical-hash dedup,
  the same artifact store's partition stage, process-pool fan-out), with
  CT-invariant solver configurations normalised so the whole
  reconfiguration-time axis shares one solve; every fresh solve is
  validated against its problem before it is stored, and an in-process
  solve hands that validated partitioning to its job, which re-tags it
  instead of rebuilding it from the outcome;
* the **memory-map / fission / timing** stages are shared through the
  in-memory artifact cache;
* RTL generation and assembly run per job, uncached.

Every stage is individually timed, per-stage cache sources are recorded on
every report, and failures are structured per stage, so one broken
scenario never takes a batch down.  Within one batch each graph object is
hashed once: the walk behind its stage-plan digest also writes the problem
form its partition jobs are keyed by (:func:`repro.runtime.canonical.shared_walks`).

Workload-catalog integration lives in :func:`workload_flow_jobs`, which
expands registered workloads (optionally their deterministic parameter
sweeps and a reconfiguration-time sweep) into a flat job list.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.board import RtrSystem
from ..errors import ReproError, SynthesisError
from ..partition.spec import PartitionProblem
from ..runtime import canonical
from ..runtime.engine import EngineConfig, PartitionEngine
from ..runtime.jobs import JobReport, ResultSource
from ..taskgraph.graph import TaskGraph
from . import stages
from .flow import FlowOptions
from .pipeline import StagePipeline
from .rtr_design import RtrDesign


class FlowStage(str, enum.Enum):
    """The stages a flow job passes through, in order."""

    ESTIMATE = "estimate"
    PARTITION = "partition"
    MEMORY_MAP = "memory-map"
    FISSION = "fission"
    TIMING = "timing"
    RTL = "rtl"
    ASSEMBLE = "assemble"


@dataclass
class FlowJob:
    """One unit of flow work: a task graph, a target system and options."""

    graph: TaskGraph
    system: RtrSystem
    options: FlowOptions = field(default_factory=FlowOptions)
    tag: str = ""
    workload: str = ""

    @property
    def name(self) -> str:
        """Display name (tag, falling back to the graph name)."""
        return self.tag or self.graph.name


#: The stages whose wall-times appear as columns in :meth:`FlowReport.row`.
ROW_STAGES: Tuple[str, ...] = tuple(stage.value for stage in FlowStage)

#: Stage sources meaning "served from a cache, nothing ran".
CACHED_SOURCES = (
    ResultSource.MEMORY_CACHE.value,
    ResultSource.DISK_CACHE.value,
    ResultSource.BATCH_DEDUP.value,
)


def canonical_metric(value: float) -> float:
    """Round a derived metric to its canonical shortest decimal form.

    Unit conversions (``block_delay * 1e9``) and latency sums accumulate
    binary-float artifacts (``8439.999999999998`` for an exact 8440 ns),
    which leak into JSON rows and break byte-identity between runs that
    computed the same design along different cache paths.  12 significant
    digits is far beyond the models' fidelity but well inside a double's
    15–16, so the rounding is lossless for every real metric.
    """
    return float(f"{value:.12g}")


@dataclass
class FlowReport:
    """Everything one flow job produced: the design or a structured failure."""

    job: FlowJob
    design: Optional[RtrDesign] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_sources: Dict[str, str] = field(default_factory=dict)
    partition_source: str = ""
    failed_stage: str = ""
    error: str = ""
    error_kind: str = ""
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the job produced a finished design."""
        return self.design is not None

    @property
    def cached_partition(self) -> bool:
        """Whether the partition stage was served without running a solver."""
        return self.partition_source not in ("", ResultSource.SOLVE.value)

    def cached_stage(self, stage: str) -> bool:
        """Whether *stage* was served from a cache (nothing recomputed)."""
        return self.stage_sources.get(stage, "") in CACHED_SOURCES

    def row(self) -> Dict[str, object]:
        """Flat dict for tabular/JSON/CSV presentation.

        Carries one ``t_<stage>_s`` wall-time column per flow stage plus the
        compact ``stage_sources`` provenance string, so slow stages and cold
        caches are visible directly in batch output.
        """
        row: Dict[str, object] = {
            "tag": self.job.name,
            "workload": self.job.workload,
            "status": "ok" if self.ok else f"failed:{self.failed_stage or 'unknown'}",
            "partition_source": self.partition_source,
            "cached_partition": self.cached_partition,
            "cached_estimate": self.cached_stage(FlowStage.ESTIMATE.value),
            "partitions": self.design.partition_count if self.ok else 0,
            "k": self.design.computations_per_run if self.ok else 0,
            "block_delay_ns": (
                canonical_metric(self.design.block_delay * 1e9) if self.ok else 0.0
            ),
            "total_latency_s": (
                canonical_metric(self.design.partitioning.total_latency)
                if self.ok
                else 0.0
            ),
            "wall_time_s": self.wall_time,
        }
        for stage in ROW_STAGES:
            column = f"t_{stage.replace('-', '_')}_s"
            row[column] = self.stage_seconds.get(stage, 0.0)
        row["stage_sources"] = ",".join(
            f"{stage}={source}" for stage, source in self.stage_sources.items()
        )
        row["error"] = self.error
        return row


@dataclass
class FlowBatchReport:
    """Everything one :meth:`FlowEngine.run_batch` call produced."""

    reports: List[FlowReport]
    wall_time: float
    workers_used: int

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __getitem__(self, index: int) -> FlowReport:
        return self.reports[index]

    @property
    def ok(self) -> bool:
        """Whether every job produced a finished design."""
        return all(report.ok for report in self.reports)

    def failures(self) -> List[FlowReport]:
        """Jobs that did not finish."""
        return [report for report in self.reports if not report.ok]

    def designs(self) -> List[Optional[RtrDesign]]:
        """Per-job designs in submission order (``None`` for failures)."""
        return [report.design for report in self.reports]

    def rows(self) -> List[Dict[str, object]]:
        """Per-job rows for tabular/JSON/CSV output."""
        return [report.row() for report in self.reports]

    def describe(self, failures_only: bool = False) -> str:
        """One-line human readable summary.

        With *failures_only* the summary is compact and failure-focused:
        one ``tag [stage] error`` clause per failed job (or "all ok"), for
        logs and exploration output where the happy path is noise.
        """
        if failures_only:
            failures = self.failures()
            if not failures:
                return f"flow batch of {len(self.reports)} jobs: all ok"
            details = "; ".join(
                f"{report.job.name} [{report.failed_stage or 'unknown'}] "
                f"{report.error or 'no detail'}"
                for report in failures
            )
            return (
                f"flow batch of {len(self.reports)} jobs: "
                f"{len(failures)} failed — {details}"
            )
        cached = sum(1 for report in self.reports if report.cached_partition)
        status = "all ok" if self.ok else f"{len(self.failures())} failed"
        summary = (
            f"flow batch of {len(self.reports)} jobs in {self.wall_time:.2f} s "
            f"({self.workers_used} worker(s); {cached} cached partitionings; {status})"
        )
        stage_summary = self.describe_stage_cache()
        if stage_summary:
            summary += f"; {stage_summary}"
        return summary

    def describe_stage_cache(self) -> str:
        """Compact per-stage ``hits/lookups`` summary across the batch."""
        parts = []
        for stage in ROW_STAGES:
            lookups = sum(1 for r in self.reports if stage in r.stage_sources)
            if not lookups:
                continue
            hits = sum(1 for r in self.reports if r.cached_stage(stage))
            parts.append(f"{stage} {hits}/{lookups}")
        if not parts:
            return ""
        return "stage hits: " + ", ".join(parts)

    def stage_seconds_total(self) -> Dict[str, float]:
        """Summed wall-time per stage across the batch (slow stages pop out)."""
        totals: Dict[str, float] = {}
        for report in self.reports:
            for stage, seconds in report.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals


class FlowEngine:
    """Batched, cached, parallel end-to-end design flows.

    The engine reduces every job to a DAG of stage keys and executes it
    through the :class:`~repro.synth.pipeline.StagePipeline`: the
    temporal-partitioning stage — by far the most expensive — is submitted
    for the whole batch at once through the
    :class:`~repro.runtime.engine.PartitionEngine`, so identical (graph,
    system, solver) jobs dedup, repeats hit the LRU/disk caches, and misses
    fan out across the worker pool; estimation and the downstream stages are
    served from the content-addressed artifact store whenever any earlier
    job shared their stage keys.  The pipeline runs on the partition
    engine's own :class:`~repro.runtime.artifacts.ArtifactStore`, so one
    store (and one cache root) holds every stage.
    """

    def __init__(
        self,
        engine: Optional[PartitionEngine] = None,
        config: Optional[EngineConfig] = None,
        **overrides,
    ) -> None:
        if engine is not None and (config is not None or overrides):
            raise SynthesisError(
                "pass either a PartitionEngine or an EngineConfig/overrides, not both"
            )
        if engine is None:
            engine = PartitionEngine(config or EngineConfig(**overrides))
        self.engine = engine
        self.pipeline = StagePipeline(engine.store)

    @property
    def stats(self):
        """Cumulative partition-engine statistics (jobs, caches, workers)."""
        return self.engine.stats

    @property
    def stage_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage artifact-cache counters (hits/misses/stores/runs)."""
        return self.pipeline.stats_snapshot()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def run_batch(self, jobs: Sequence[FlowJob]) -> FlowBatchReport:
        """Run a whole batch of flow jobs; the report preserves order."""
        start = time.perf_counter()
        reports = [FlowReport(job=job) for job in jobs]

        # Stage 1: plan + estimation.  Each job reduces to its DAG of stage
        # keys, then the estimate artifact (every task's cost) is served
        # from the stage store or computed once; rehydration applies costs
        # to a copy, so a graph shared by jobs targeting different systems
        # never inherits the first job's costs (or mutates the caller's).
        # Graph content digests are memoised per graph object for THIS
        # batch only — the engine never mutates a submitted graph, so the
        # memo cannot go stale within the batch, and it dies with it.
        # ``canonical.shared_walks`` does the same for the problem form:
        # the walk behind a costed graph's digest also writes it, and every
        # engine job of the batch whose problem holds that graph object
        # takes its fingerprint from that text (a graph the estimate stage
        # copied writes its own).  The partition engine drops the texts
        # once it has written its batch's keys, before it solves.
        plans: Dict[int, stages.StagePlan] = {}
        estimated: Dict[int, TaskGraph] = {}
        graph_digests: Dict[int, str] = {}
        with canonical.shared_walks():
            for index, job in enumerate(jobs):

                def plan_and_estimate(job=job, index=index):
                    graph_key = id(job.graph)
                    if graph_key not in graph_digests:
                        graph_digests[graph_key] = stages.graph_content_digest(job.graph)
                    plan = self.pipeline.plan(
                        job.graph,
                        job.system,
                        job.options,
                        graph_digest=graph_digests[graph_key],
                    )
                    plans[index] = plan
                    graph, source = self.pipeline.estimate(
                        plan, job.graph, job.system, job.options
                    )
                    reports[index].stage_sources[FlowStage.ESTIMATE.value] = source
                    return graph

                graph = self._run_stage(
                    reports[index], FlowStage.ESTIMATE, plan_and_estimate
                )
                if graph is not None:
                    estimated[index] = graph

            # Stage 2: temporal partitioning, one engine batch for all
            # survivors (dedup + caches + worker pool live inside the
            # partition engine).  CT-invariant solver configurations are
            # normalised to CT = 0, so the whole reconfiguration-time axis
            # shares one solve.
            partition_reports, problems = self._partition_batch(
                jobs, reports, estimated
            )

        # Stage 3: the remaining stages, per job, individually timed.
        for index, partition_report in partition_reports.items():
            report = reports[index]
            report.partition_source = partition_report.source.value
            report.stage_sources[FlowStage.PARTITION.value] = (
                partition_report.source.value
            )
            report.stage_seconds[FlowStage.PARTITION.value] = (
                partition_report.wall_time
            )
            if not partition_report.ok:
                report.failed_stage = FlowStage.PARTITION.value
                report.error = partition_report.outcome.error
                report.error_kind = partition_report.outcome.error_kind
                continue
            self._finish_job(
                report,
                estimated[index],
                partition_report,
                plans[index],
                problems[index],
            )

        for report in reports:
            report.wall_time = sum(report.stage_seconds.values())

        batch = FlowBatchReport(
            reports=reports,
            wall_time=time.perf_counter() - start,
            workers_used=self.engine.config.workers,
        )
        return batch

    def run(self, job: FlowJob) -> RtrDesign:
        """Run one flow job and return the design (raising on failure)."""
        report = self.run_batch([job])[0]
        if report.design is None:
            raise SynthesisError(
                f"flow job {report.job.name!r} failed at stage "
                f"{report.failed_stage or 'unknown'} "
                f"({report.error_kind or 'unknown'}): {report.error or 'no detail'}"
            )
        return report.design

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _partition_batch(
        self,
        jobs: Sequence[FlowJob],
        reports: List[FlowReport],
        estimated: Dict[int, TaskGraph],
    ) -> Tuple[Dict[int, JobReport], Dict[int, PartitionProblem]]:
        """Submit every estimable job's partition problem as one batch.

        Returns the engine reports plus each job's *true* problem (the one
        carrying the job's own reconfiguration time) for rehydration; the
        engine itself sees the CT-normalised problem, so CT-only variants
        collapse onto one fingerprint.
        """
        engine_jobs = []
        indices: List[int] = []
        problems: Dict[int, PartitionProblem] = {}
        for index in sorted(estimated):
            job = jobs[index]
            try:
                problem = PartitionProblem.from_system(estimated[index], job.system)
            except ReproError as error:
                report = reports[index]
                report.failed_stage = FlowStage.PARTITION.value
                report.error = str(error)
                report.error_kind = type(error).__name__
                continue
            problems[index] = problem
            engine_jobs.append(
                self.engine.make_job(
                    stages.normalised_partition_problem(
                        problem, 0, job.options.partitioner
                    ),
                    tag=job.name,
                    partitioner=job.options.partitioner,
                    seed=job.options.partitioner_seed,
                )
            )
            indices.append(index)
        if not engine_jobs:
            return {}, problems
        batch = self.engine.solve_batch(engine_jobs)
        return dict(zip(indices, batch)), problems

    def _finish_job(
        self,
        report: FlowReport,
        graph: TaskGraph,
        partition_report: JobReport,
        plan: stages.StagePlan,
        problem: PartitionProblem,
    ) -> None:
        """Run memory map, fission, timing, RTL and assembly for one job."""
        job = report.job
        partitioning = self._run_stage(
            report,
            FlowStage.PARTITION,
            lambda: stages.rehydrate_partitioning(
                problem,
                partition_report.outcome,
                partition_report.job.problem.reconfiguration_time,
                partition_report.solved,
            ),
            accumulate=True,
        )
        if partitioning is None:
            return
        memory_map = self._run_pipeline_stage(
            report,
            FlowStage.MEMORY_MAP,
            lambda: self.pipeline.memory_map(plan, partitioning, job.options),
        )
        if memory_map is None:
            return
        fission = self._run_pipeline_stage(
            report,
            FlowStage.FISSION,
            lambda: self.pipeline.fission(
                plan, partitioning, memory_map, job.system, job.options
            ),
        )
        if fission is None:
            return
        timing = self._run_pipeline_stage(
            report,
            FlowStage.TIMING,
            lambda: self.pipeline.timing(plan, partitioning, fission, memory_map),
        )
        if timing is None:
            return
        configurations: Optional[List] = []
        if job.options.generate_rtl:
            configurations = self._run_stage(
                report,
                FlowStage.RTL,
                lambda: stages.generate_rtl(
                    graph, partitioning, memory_map, fission, job.system, job.options
                ),
            )
            if configurations is None:
                return
        design = self._run_stage(
            report,
            FlowStage.ASSEMBLE,
            lambda: stages.assemble(
                f"{job.name}-rtr",
                job.system,
                partitioning,
                memory_map,
                fission,
                timing,
                configurations,
            ),
        )
        report.design = design

    def _run_pipeline_stage(self, report, stage, fn):
        """Run one pipeline-cached stage, recording its source on the report."""

        def unpack():
            value, source = fn()
            report.stage_sources[stage.value] = source
            return value

        return self._run_stage(report, stage, unpack)

    def _run_stage(self, report, stage, fn, accumulate: bool = False):
        """Run one stage, timing it; ``None`` plus a structured failure on error."""
        start = time.perf_counter()
        try:
            return fn()
        except ReproError as error:
            report.failed_stage = stage.value
            report.error = str(error)
            report.error_kind = type(error).__name__
            return None
        finally:
            elapsed = time.perf_counter() - start
            key = stage.value
            if accumulate:
                report.stage_seconds[key] = report.stage_seconds.get(key, 0.0) + elapsed
            else:
                report.stage_seconds[key] = elapsed


# ---------------------------------------------------------------------------
# Workload-catalog integration
# ---------------------------------------------------------------------------

def workload_flow_jobs(
    names: Optional[Sequence[str]] = None,
    ct_values: Optional[Sequence[float]] = None,
    system: Optional[RtrSystem] = None,
    variants: bool = False,
    partitioner: Optional[str] = None,
) -> List[FlowJob]:
    """Expand registered workloads into a flat :class:`FlowJob` list.

    Parameters
    ----------
    names:
        Workload names to expand (default: every registered workload except
        those tagged ``"huge"`` — the 10k-100k-node tiers run only when
        named explicitly).
    ct_values:
        Optional reconfiguration times (seconds); each workload/variant is
        swept across them (default: the workload system's own ``CT``).
    system:
        Optional target system overriding every workload's default.
    variants:
        Expand each workload's deterministic parameter sweep instead of
        just its default parameterisation.
    partitioner:
        Optional partitioner-name override applied to every job's options.
    """
    # Imported lazily: the workload catalog itself imports FlowOptions from
    # this package, so a module-level import would be circular.
    from ..workloads import WorkloadVariant, get_workload, workload_names

    jobs: List[FlowJob] = []
    for name in (
        names if names is not None else workload_names(exclude_tags=("huge",))
    ):
        workload = get_workload(name)
        expansion = (
            workload.variants()
            if variants
            else [WorkloadVariant(workload.name, dict(workload.default_params))]
        )
        for variant in expansion:
            graph = workload.build_graph(**variant.params)
            base_system = system or workload.default_system()
            options = workload.flow_options()
            if partitioner is not None:
                options = replace(options, partitioner=partitioner)
            cts = list(ct_values) if ct_values else [base_system.reconfiguration_time]
            for ct in cts:
                target = (
                    base_system
                    if ct == base_system.reconfiguration_time
                    else base_system.with_reconfiguration_time(ct)
                )
                tag = variant.name
                if len(cts) > 1:
                    tag = f"{tag}@ct={ct * 1e3:g}ms"
                jobs.append(
                    FlowJob(
                        graph=graph,
                        system=target,
                        options=options,
                        tag=tag,
                        workload=workload.name,
                    )
                )
    return jobs
