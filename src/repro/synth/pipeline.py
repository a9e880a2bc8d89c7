"""The cached, incrementally re-evaluable stage pipeline.

:class:`StagePipeline` executes the declarative stage transforms of
:mod:`repro.synth.stages` against a content-addressed
:class:`~repro.runtime.artifacts.ArtifactStore`:

* the **estimate** stage is cached in memory and on disk (its artifact —
  every task's cost — is plain JSON), so an explore neighbour that shares
  the graph and device pays zero HLS estimations;
* the **partition** stage is solved and cached by the
  :class:`~repro.runtime.engine.PartitionEngine` (dedup, process-pool
  fan-out) in the same store — the pipeline contributes the
  CT-normalisation that collapses the reconfiguration-time axis onto one
  solve;
* the **memory-map / fission / timing** stages are cached in memory; their
  artifacts are cheap to compute but free to share, and sharing keeps a
  warm neighbourhood evaluation down to rehydration plus objectives.

Every lookup records a per-stage source (``memory-cache`` / ``disk-cache``
/ ``computed``) that flows into :class:`~repro.synth.flow_engine.FlowReport`
rows, run-store records and CLI summaries.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..arch.board import RtrSystem
from ..runtime.artifacts import ArtifactStore
from ..taskgraph.graph import TaskGraph
from . import stages
from .stages import STAGE_VERSIONS, StagePlan

#: Source label for a stage that actually ran its transform.
COMPUTED = "computed"


class StagePipeline:
    """Runs stage transforms through the content-addressed artifact store."""

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counter dicts (hits/misses/stores/runs), by stage name."""
        return self.store.snapshot()

    def describe_stats(self) -> str:
        """One-line ``stage hits/lookups`` summary for logs and CLI stderr."""
        parts = []
        for stage in stages.PIPELINE_STAGES:
            if stage == stages.PARTITION:
                continue  # the partition engine reports its own cache stats
            stats = self.store.stats_for(stage)
            if stats.lookups == 0:
                continue
            parts.append(f"{stage} {stats.hits}/{stats.lookups}")
        if not parts:
            return "stage cache: no lookups"
        return "stage cache hits: " + ", ".join(parts)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(
        self,
        graph: TaskGraph,
        system: RtrSystem,
        options,
        graph_digest: Optional[str] = None,
    ) -> StagePlan:
        """The DAG of stage keys for one flow job.

        *graph_digest* lets batch drivers that hashed the graph once (per
        batch, while the graph is provably unmutated) skip re-hashing it
        for every job sharing the object.
        """
        return stages.build_stage_plan(
            graph, system, options, graph_digest=graph_digest
        )

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------

    def estimate(
        self, plan: StagePlan, graph: TaskGraph, system: RtrSystem, options
    ) -> Tuple[TaskGraph, str]:
        """Run (or rehydrate) the estimation stage; returns ``(graph, source)``.

        The cached artifact is the cost table, not the graph object, so one
        artifact rehydrates onto any content-equal graph instance.  When
        estimation passed a fully costed graph straight through, the table
        stored is empty: the key hashes every task's cost, so any graph
        that hits that entry already carries them all and is returned
        untouched (as it is on a hit on a full table).
        """
        key = plan.key(stages.ESTIMATE)
        stats = self.store.stats_for(stages.ESTIMATE)
        payload, source = self.store.get(
            key.stage, key.version, key.digest, decode=lambda value: value
        )
        if payload is not None:
            if graph.all_estimated():
                return graph, source
            return stages.apply_estimate_artifact(graph, payload), source
        stats.runs += 1
        estimated = stages.run_estimate(graph, system, options)
        self.store.put(
            key.stage,
            key.version,
            key.digest,
            {} if estimated is graph else stages.estimate_artifact(estimated),
            encode=lambda value: value,
        )
        return estimated, COMPUTED

    def memory_map(self, plan: StagePlan, partitioning, options):
        """Run (or share) the memory-map stage; returns ``(map, source)``."""
        return self._cached_stage(
            plan,
            stages.MEMORY_MAP,
            lambda: stages.run_memory_map(partitioning, options),
        )

    def fission(self, plan: StagePlan, partitioning, memory_map, system, options):
        """Run (or share) the fission stage; returns ``(analysis, source)``."""
        return self._cached_stage(
            plan,
            stages.FISSION,
            lambda: stages.run_fission(partitioning, memory_map, system, options),
        )

    def timing(self, plan: StagePlan, partitioning, fission, memory_map):
        """Run (or share) the timing stage; returns ``(spec, source)``."""
        return self._cached_stage(
            plan,
            stages.TIMING,
            lambda: stages.run_timing(partitioning, fission, memory_map),
        )

    def _cached_stage(self, plan: StagePlan, stage: str, compute):
        """Memory-cached execution of one downstream stage transform.

        The artifacts (memory maps, fission analyses, timing specs) are
        treated as immutable by every consumer, so one object is safely
        shared across the jobs whose stage keys coincide.
        """
        key = plan.key(stage)
        value, source = self.store.get(key.stage, key.version, key.digest)
        if value is not None:
            return value, source
        stats = self.store.stats_for(stage)
        stats.runs += 1
        value = compute()
        self.store.put(key.stage, key.version, key.digest, value)
        return value, COMPUTED


__all__ = ["COMPUTED", "STAGE_VERSIONS", "StagePipeline", "StagePlan"]
