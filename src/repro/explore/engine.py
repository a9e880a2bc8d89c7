"""The exploration engine: strategy loop, batch evaluation, front, store.

:class:`Explorer` drives one search strategy over a :class:`SearchSpace`:
each round the strategy proposes a batch of candidate points, points
already in the run store are served from it (zero flow work), the rest run
as one :class:`~repro.synth.flow_engine.FlowEngine` batch — so the
partition-stage dedup/LRU/disk caches make repeated neighbourhoods nearly
free — and every outcome feeds the incremental Pareto front and the
strategy's next proposal.

Determinism: the strategy draws randomness only from one seeded RNG, flow
evaluation is a pure function of the design point, and the store serialises
records canonically — so the same seed, budget and starting cache state
produce byte-identical run stores and identical fronts (metrics and
trajectory depend on the seed alone; the persisted per-stage cache
provenance additionally reflects how warm the caches were), and a resumed
run replays the identical trajectory entirely from the store.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..arch.catalog import system_by_name
from ..errors import ExplorationError, ReproError
from ..runtime.engine import EngineConfig
from ..synth.flow_engine import FlowEngine, FlowJob
from .objectives import (
    DEFAULT_EVAL_BLOCKS,
    OBJECTIVES,
    evaluate_report,
    resolve_objectives,
)
from .pareto import ParetoFront
from .shard import ShardSpec
from .space import WORKLOAD_DEFAULT_SYSTEM, DesignPoint, SearchSpace
from .store import PointRecord, RunStore
from .strategies import assert_shardable, make_strategy


def default_store_path(space: SearchSpace, directory: Union[str, Path] = ".repro-explore") -> Path:
    """The conventional store location for *space* (stable across runs)."""
    return Path(directory) / f"run-{space.fingerprint()[:16]}.jsonl"


def open_run_store(
    path: Union[str, Path],
    space: SearchSpace,
    config: "ExploreConfig",
    resume: bool = False,
) -> RunStore:
    """Open the run store at *path* for exploring *space* under *config*.

    The one place a run store's meta line is decided: the space fingerprint
    and the ``eval_blocks`` context the stored metrics are computed under,
    so every store (plain, shard, scheduled range) merges with every other.
    """
    return RunStore(
        path,
        space.fingerprint(),
        resume=resume,
        context={"eval_blocks": config.eval_blocks},
    )


def is_deterministic_failure(record: PointRecord) -> bool:
    """Whether a failed record would fail identically on re-evaluation.

    Library errors (:class:`~repro.errors.ReproError` subclasses — an
    infeasible problem, an unestimable task, an unknown system) are pure
    functions of the design point and worth persisting; anything else
    (worker crashes, timeouts, OS errors) is environmental and must be
    retried on resume rather than served from the store forever.
    """
    from .. import errors as errors_module

    kind = getattr(errors_module, record.error_kind, None)
    return isinstance(kind, type) and issubclass(kind, errors_module.ReproError)


@dataclass
class ExploreConfig:
    """Static configuration of one exploration run."""

    strategy: str = "grid"
    budget: int = 64
    batch_size: int = 8
    seed: int = 0
    objectives: Tuple[str, ...] = ("latency", "throughput")
    eval_blocks: int = DEFAULT_EVAL_BLOCKS
    workers: int = 0
    cache_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ExplorationError("budget must be at least 1")
        if self.batch_size < 1:
            raise ExplorationError("batch_size must be at least 1")
        if self.eval_blocks < 1:
            raise ExplorationError("eval_blocks must be at least 1")


@dataclass
class ExplorationResult:
    """Everything one :meth:`Explorer.run` call produced."""

    space: SearchSpace
    config: ExploreConfig
    front: ParetoFront
    records: List[PointRecord] = field(default_factory=list)
    visited: int = 0
    flow_evaluated: int = 0
    store_hits: int = 0
    failures: int = 0
    #: Trajectory points skipped because their fingerprint belongs to
    #: another shard (always 0 for an unsharded exploration).
    off_shard: int = 0
    wall_time: float = 0.0
    engine_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every visited point produced a finished design."""
        return self.failures == 0

    @property
    def on_shard(self) -> int:
        """Visited points in this run's own range (every one when unsharded)."""
        return self.visited - self.off_shard

    def rows(self) -> List[Dict[str, object]]:
        """Per-visit rows (in visit order) for tabular/JSON/CSV output."""
        rows: List[Dict[str, object]] = []
        for record in self.records:
            row: Dict[str, object] = {
                "design": record.point.label,
                "status": record.status,
                "source": record.source,
            }
            for objective in self.front.objectives:
                row[objective.name] = record.metrics.get(objective.name, "")
            row["stage_cache_hits"] = record.cache_hits()
            row["stage_sources"] = ",".join(
                f"{stage}={source}"
                for stage, source in sorted(record.stage_sources.items())
            )
            row["error"] = record.error
            rows.append(row)
        return rows

    def describe(self) -> str:
        """One-line human readable summary."""
        sharded = (
            f", {self.off_shard} off-shard skipped" if self.off_shard else ""
        )
        return (
            f"explored {self.visited} point(s) in {self.wall_time:.2f} s "
            f"({self.flow_evaluated} flow-evaluated, {self.store_hits} served "
            f"from the run store, {self.failures} failed{sharded}); "
            f"{self.front.describe()}"
        )


class Explorer:
    """Drives one search strategy over a space through the flow engine."""

    def __init__(
        self,
        space: SearchSpace,
        config: Optional[ExploreConfig] = None,
        flow_engine: Optional[FlowEngine] = None,
        store: Optional[RunStore] = None,
        shard: Optional[ShardSpec] = None,
        **overrides,
    ) -> None:
        if config is not None and overrides:
            raise ExplorationError(
                "pass either an ExploreConfig or keyword overrides, not both"
            )
        self.space = space
        self.config = config or ExploreConfig(**overrides)
        #: When set, this explorer is one worker of an N-way sharded run: it
        #: replays the full strategy trajectory (identical seed, budget and
        #: proposal order) but evaluates only the points whose fingerprint
        #: falls in its shard's range — everything else is skipped without
        #: flow work and without touching the store.
        self.shard = shard
        if shard is not None:
            assert_shardable(self.config.strategy)
        self.flow_engine = flow_engine or FlowEngine(
            config=EngineConfig(
                workers=self.config.workers, cache_dir=self.config.cache_dir
            )
        )
        self.store = store if store is not None else RunStore()
        # Graphs and systems are pure functions of their point axes; build
        # each once per exploration however often the search revisits it.
        self._graphs: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], object] = {}
        self._systems: Dict[Tuple[str, str, Optional[float]], object] = {}

    # ------------------------------------------------------------------
    # Point -> flow job plumbing
    # ------------------------------------------------------------------

    def _graph_for(self, point: DesignPoint):
        key = (point.workload, point.params)
        if key not in self._graphs:
            from ..workloads import get_workload

            workload = get_workload(point.workload)
            self._graphs[key] = workload.build_graph(**point.params_dict())
        return self._graphs[key]

    def _system_for(self, point: DesignPoint):
        # The workload-default sentinel resolves to a *per-workload* board,
        # so the workload must be part of the cache key for it.
        owner = point.workload if point.system == WORKLOAD_DEFAULT_SYSTEM else ""
        key = (owner, point.system, point.ct)
        if key not in self._systems:
            if point.system == WORKLOAD_DEFAULT_SYSTEM:
                from ..workloads import get_workload

                system = get_workload(point.workload).default_system()
            else:
                system = system_by_name(point.system)
            if point.ct is not None and point.ct != system.reconfiguration_time:
                system = system.with_reconfiguration_time(point.ct)
            self._systems[key] = system
        return self._systems[key]

    def _flow_job(self, point: DesignPoint) -> FlowJob:
        from ..workloads import get_workload

        workload = get_workload(point.workload)
        options = replace(workload.flow_options(), partitioner=point.partitioner)
        return FlowJob(
            graph=self._graph_for(point),
            system=self._system_for(point),
            options=options,
            tag=point.label,
            workload=point.workload,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _evaluate(
        self, points: Sequence[Tuple[DesignPoint, str]]
    ) -> Tuple[Dict[str, PointRecord], int]:
        """Run the unique missing points as one flow batch.

        Returns the records keyed by fingerprint plus the number of flow
        jobs actually run (construction failures never reach the flow).
        Every record carries values for *all* registered objectives, not
        just the configured subset, so a store can be resumed under any
        objective selection.
        """
        objectives = tuple(OBJECTIVES.values())
        unique: Dict[str, DesignPoint] = {}
        for point, fingerprint in points:
            unique.setdefault(fingerprint, point)
        order = list(unique)
        jobs = []
        prepared: Dict[str, PointRecord] = {}
        for fingerprint in list(order):
            point = unique[fingerprint]
            try:
                jobs.append(self._flow_job(point))
            except ReproError as error:
                # A point whose graph or system cannot even be built is a
                # deterministic failure: record it, don't sink the batch.
                prepared[fingerprint] = PointRecord(
                    fingerprint=fingerprint,
                    point=point,
                    status="failed",
                    error=str(error),
                    error_kind=type(error).__name__,
                )
                order.remove(fingerprint)
        if jobs:
            batch = self.flow_engine.run_batch(jobs)
            for fingerprint, report in zip(order, batch):
                point = unique[fingerprint]
                stage_sources = dict(report.stage_sources)
                if report.ok:
                    try:
                        metrics = evaluate_report(
                            report, point, objectives, self.config.eval_blocks
                        )
                        prepared[fingerprint] = PointRecord(
                            fingerprint=fingerprint,
                            point=point,
                            metrics=metrics,
                            stage_sources=stage_sources,
                            wall_time=report.wall_time,
                        )
                        continue
                    except ReproError as error:
                        prepared[fingerprint] = PointRecord(
                            fingerprint=fingerprint,
                            point=point,
                            status="failed",
                            error=str(error),
                            error_kind=type(error).__name__,
                            stage_sources=stage_sources,
                            wall_time=report.wall_time,
                        )
                        continue
                prepared[fingerprint] = PointRecord(
                    fingerprint=fingerprint,
                    point=point,
                    status="failed",
                    error=f"{report.failed_stage or 'unknown'}: "
                          f"{report.error or 'no detail'}",
                    error_kind=report.error_kind,
                    stage_sources=stage_sources,
                    wall_time=report.wall_time,
                )
        return prepared, len(jobs)

    # ------------------------------------------------------------------
    # The exploration loop
    # ------------------------------------------------------------------

    def run(self) -> ExplorationResult:
        """Run the configured strategy to its budget and return the result."""
        start = time.perf_counter()
        config = self.config
        objectives = resolve_objectives(config.objectives)
        rng = random.Random(config.seed)
        strategy = make_strategy(config.strategy, self.space, objectives, rng)
        result = ExplorationResult(
            space=self.space, config=config, front=ParetoFront(objectives)
        )

        while result.visited < config.budget:
            count = min(config.batch_size, config.budget - result.visited)
            proposals = strategy.propose(count)[:count]
            if not proposals:
                break
            keyed = [(point, point.fingerprint()) for point in proposals]
            missing = [
                (point, fingerprint)
                for point, fingerprint in keyed
                if fingerprint not in self.store
                and (self.shard is None or self.shard.contains(fingerprint))
            ]
            evaluated, jobs_run = self._evaluate(missing) if missing else ({}, 0)
            result.flow_evaluated += jobs_run
            for record in evaluated.values():
                # Transient failures (crashes, timeouts) stay out of the
                # store so a resumed run retries them; deterministic
                # outcomes are persisted.
                if record.ok or is_deterministic_failure(record):
                    self.store.record(record)

            batch_records: List[PointRecord] = []
            for point, fingerprint in keyed:
                if fingerprint in evaluated:
                    record = evaluated[fingerprint]
                elif self.shard is not None and not self.shard.contains(fingerprint):
                    # Another shard's point: consume the trajectory position
                    # (so replay stays aligned with the unsharded run) but do
                    # no flow work and write nothing to this shard's store.
                    record = PointRecord(
                        fingerprint=fingerprint,
                        point=point,
                        status="skipped",
                        source="off-shard",
                    )
                    result.off_shard += 1
                    batch_records.append(record)
                    result.records.append(record)
                    result.visited += 1
                    continue
                else:
                    stored = self.store.get(fingerprint)
                    assert stored is not None
                    record = replace(stored, source="store")
                    result.store_hits += 1
                if record.ok:
                    result.front.add(record.point, record.metrics, fingerprint)
                else:
                    result.failures += 1
                batch_records.append(record)
                result.records.append(record)
                result.visited += 1
            strategy.observe(batch_records)

        result.wall_time = time.perf_counter() - start
        result.engine_stats = self.flow_engine.stats.snapshot()
        # Per-stage artifact-cache counters, flattened next to the partition
        # engine's, so run summaries show exactly which stages re-ran.
        for stage, counters in self.flow_engine.stage_stats.items():
            for name, value in counters.items():
                result.engine_stats[f"stage_{stage.replace('-', '_')}_{name}"] = value
        return result

