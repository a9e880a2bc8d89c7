"""The layer ledger: which public functions are timed, and what they move.

:func:`install` wraps the public entry point of every layer below with a
:class:`~spans.Tracer` span, from outside the program: nothing under
``src/`` changes.  Each wrapped attribute is replaced on its owner, and
every ``from module import name`` copy already bound in a loaded
``repro`` module is rebound too, so call sites that imported the function
by name are traced as well.

:data:`LAYER_METRICS` is the layer -> end-to-end-metric map: for each
per-layer metric, the end-to-end metric and workload it should move.
Later changes cite these names verbatim.
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict, Tuple

#: (span name, owner module, attribute path) of every traced entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("taskgraph.topological_order", "repro.taskgraph.graph", "TaskGraph.topological_order"),
    ("taskgraph.copy", "repro.taskgraph.graph", "TaskGraph.copy"),
    ("taskgraph.kpaths", "repro.taskgraph.kpaths", "k_longest_path_delays"),
    ("taskgraph.kpaths", "repro.taskgraph.kpaths", "k_longest_paths"),
    ("taskgraph.kpaths", "repro.taskgraph.kpaths", "root_to_leaf_paths_by_delay"),
    ("taskgraph.kpaths", "repro.taskgraph.kpaths", "longest_path_through"),
    ("taskgraph.kpaths", "repro.taskgraph.kpaths", "edge_criticalities"),
    ("partition.multilevel", "repro.partition.hierarchy", "MultilevelPartitioner.partition"),
    ("hls.estimate", "repro.synth.pipeline", "StagePipeline.estimate"),
    ("ilp.formulation", "repro.partition.ilp_formulation",
     "TemporalPartitioningFormulation.__init__"),
    ("ilp.milp", "repro.ilp.scipy_backend", "solve_milp_scipy"),
    ("runtime.fingerprint", "repro.runtime.jobs", "PartitionJob.fingerprint"),
    ("runtime.fingerprint", "repro.runtime.canonical", "canonical_fingerprint"),
    ("synth.graph_digest", "repro.synth.stages", "graph_content_digest"),
    ("runtime.cache_get", "repro.runtime.cache", "ResultCache.get"),
    ("runtime.cache_put", "repro.runtime.cache", "ResultCache.put"),
    ("runtime.artifacts_get", "repro.runtime.artifacts", "ArtifactStore.get"),
    ("runtime.artifacts_put", "repro.runtime.artifacts", "ArtifactStore.put"),
    ("synth.rehydrate", "repro.synth.stages", "rehydrate_partitioning"),
    ("memmap.map", "repro.synth.stages", "run_memory_map"),
    ("fission.analyse", "repro.synth.stages", "run_fission"),
    ("synth.timing", "repro.synth.stages", "run_timing"),
    ("explore.pareto_add", "repro.explore.pareto", "ParetoFront.add"),
    ("explore.store_record", "repro.explore.store", "RunStore.record"),
)

#: Per-layer metric -> (end-to-end metric it should move, workloads), as
#: named in the benchmark definition.  ``*_s`` values are self seconds per
#: pass; ``*_calls``/``*_runs`` are counts per pass; ``*_ratio`` are shares.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "import.repro_s": ("setup_s", "all"),
    "import.scipy_optimize_s": ("setup_s", "all"),
    "workloads.build_graph_s": ("setup_s", "huge_graph"),
    "taskgraph.topological_order_calls": ("total_s, peak_rss_mb", "huge_graph (~0 on flow_exact)"),
    "taskgraph.topological_order_s": ("total_s, peak_rss_mb", "huge_graph (~0 on flow_exact)"),
    "taskgraph.copy_s": ("total_s, peak_rss_mb", "huge_graph (~0 on flow_exact)"),
    "taskgraph.kpaths_s": ("total_s, peak_rss_mb", "huge_graph (~0 on flow_exact)"),
    "partition.multilevel_s": ("total_s, peak_rss_mb", "huge_graph (~0 on flow_exact)"),
    "hls.estimate_s": ("op_p50_ms", "flow_exact"),
    "hls.estimate_runs": ("op_p50_ms", "flow_exact"),
    "ilp.formulation_s": ("total_s", "flow_exact (~0 on serve_mixed)"),
    "ilp.milp_s": ("total_s", "flow_exact (~0 on serve_mixed)"),
    "ilp.milp_calls": ("total_s", "flow_exact (~0 on serve_mixed)"),
    "ilp.bounds_attempted": ("total_s", "flow_exact"),
    "runtime.fingerprint_s": ("op_p50_ms / total_s", "serve_mixed / explore_sweep"),
    "synth.graph_digest_s": ("op_p50_ms / total_s", "serve_mixed / explore_sweep"),
    "runtime.cache_get_s": ("total_s / op_p50_ms", "explore_sweep / serve_mixed"),
    "runtime.cache_put_s": ("total_s / op_p50_ms", "explore_sweep / serve_mixed"),
    "runtime.artifacts_get_s": ("total_s / op_p50_ms", "explore_sweep / serve_mixed"),
    "runtime.artifacts_put_s": ("total_s / op_p50_ms", "explore_sweep / serve_mixed"),
    "runtime.cache_hit_ratio": ("total_s / op_p50_ms", "explore_sweep / serve_mixed"),
    "runtime.dedup_ratio": ("total_s / op_p50_ms", "explore_sweep / serve_mixed"),
    "synth.stage_hit_ratio": ("total_s / op_p50_ms", "explore_sweep / serve_mixed"),
    "synth.rehydrate_s": ("total_s", "explore_sweep, huge_graph"),
    "memmap.map_s": ("total_s", "explore_sweep, huge_graph"),
    "fission.analyse_s": ("total_s", "explore_sweep, huge_graph"),
    "synth.timing_s": ("total_s", "explore_sweep, huge_graph"),
    "explore.propose_s": ("total_s", "explore_sweep"),
    "explore.pareto_add_s": ("total_s", "explore_sweep"),
    "explore.store_record_s": ("total_s", "explore_sweep"),
    "serve.queue_wait_ms": ("op_p99_ms", "serve_mixed"),
    "serve.worker_ms": ("op_p99_ms", "serve_mixed"),
    "serve.http_ms": ("op_p99_ms", "serve_mixed"),
    "serve.coalesced_ratio": ("op_p99_ms", "serve_mixed"),
}

#: Span names whose per-pass self seconds are reported as ``<name>_s``.
TIMED_LAYERS: Tuple[str, ...] = tuple(
    name[: -len("_s")]
    for name in LAYER_METRICS
    if name.endswith("_s") and not name.startswith(("import.", "workloads."))
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _replace(owner, attr: str, wrapper) -> None:
    """Swap ``owner.attr`` for *wrapper*, rebinding by-name imports too."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is owner:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer, serve: bool = False) -> None:
    """Wrap every layer entry point.

    With *serve*, also wrap the daemon's worker call and queue hand-off
    (used by the daemon launcher).
    """
    importlib.import_module("repro.cli")  # load every module that binds a target
    for span, module_name, path in TARGETS:
        owner, attr = _resolve(module_name, path)
        _replace(owner, attr, tracer.wrap(getattr(owner, attr), span))

    from repro.explore.strategies import SEARCH_STRATEGIES
    from repro.partition.ilp_partitioner import IlpTemporalPartitioner

    for cls in SEARCH_STRATEGIES.values():
        if "propose" in vars(cls):
            cls.propose = tracer.wrap(cls.propose, "explore.propose")

    partition = IlpTemporalPartitioner.partition

    def ilp_partition(self, problem):
        try:
            return partition(self, problem)
        finally:
            if self.last_report is not None:
                tracer.count("ilp.partition_runs")
                tracer.count("ilp.bounds_attempted", len(self.last_report.attempted_bounds))

    IlpTemporalPartitioner.partition = ilp_partition
    if serve:
        _install_serve(tracer)


def _install_serve(tracer) -> None:
    from repro.serve.queue import JobQueue
    from repro.serve.workers import WorkerPool

    execute = WorkerPool._execute
    get = JobQueue.get

    def traced_execute(self, engine, spec):
        tracer.set_op(spec.request_key())
        frame = tracer.begin("serve.worker")
        try:
            return execute(self, engine, spec)
        finally:
            tracer.end(frame)

    async def traced_get(self):
        entry = await get(self)
        tracer.record("serve.queue_wait", entry.submitted_at, entry.started_at, entry.key)
        return entry

    WorkerPool._execute = traced_execute
    JobQueue.get = traced_get
