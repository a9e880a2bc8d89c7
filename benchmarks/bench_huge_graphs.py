"""Huge-graph scaling — the multilevel pre-partitioner at 10k-100k nodes.

Runs the **full design flow** (estimation, partitioning, memory mapping,
fission, timing) over the ``random_layered_10k/50k/100k`` workload shapes
with the multilevel pre-partitioner and reports nodes/second per tier.  Each
flow is one ``DesignFlow.build``: a one-job run of a fresh in-memory
``FlowEngine``, so a tier's time also holds the one canonical walk that
writes the text of both the stage-plan graph digest and the job
fingerprint, the validation of the partitioning, and the re-tagging of
that validated object with the job's CT (the flow does not rebuild it).
It then times the flat list scheduler against the multilevel
partitioner on the largest flat-solvable tier and asserts the multilevel
side wins by at least 10x.  Every flow is built twice and the two designs must be bit-identical
(same :func:`~repro.verify.oracles.design_fingerprint`): determinism at
scale is part of the claim, not an afterthought.  It also times
``TaskGraph.copy()``, ``graph_content_digest`` and ``PartitionJob.fingerprint``
on the largest tier's graph (the copy must stay linear; both hashes, each
timed alone outside any flow batch, write their canonical text directly),
and the multilevel coarsening and refinement on that tier (coarsening
merges on index arrays; refinement checks each trial move incrementally
instead of re-validating a whole partitioning).  Each of these is the median of :data:`REPEATS` runs: they
last milliseconds, and the host's speed drifts within a run.  Four counts
on that tier need no median: the cyclic-GC collections one annealer move
state build sets off (``move_state_gc_collections``; its edges are flat
lists), the sorts of the tier's graph one ``DesignFlow.build`` runs
after the graph is built (``flow_graph_sorts``; ``add_edges`` keeps the
sort it checks acyclicity with), and that flow's partition-info builds
and canonical walks of the tier's graph (``flow_partition_info_builds``
and ``flow_canonical_walks``, 1 each).

Environment knobs for constrained CI runners:

* ``REPRO_BENCH_HUGE_TIERS`` — comma-separated tier node counts
  (default ``10000,50000,100000``);
* ``REPRO_BENCH_HUGE_FLAT`` — node count of the flat-vs-multilevel
  comparison tier (default ``10000``, where the flat list scheduler needs
  minutes; ``0`` disables the comparison);
* ``REPRO_BENCH_STRICT=0`` — measure and print, but skip the hard >= 10x
  speedup assertion (for tiny smoke budgets).

Run standalone (``python benchmarks/bench_huge_graphs.py [--smoke]``) or
under pytest; ``--smoke`` presets a single 2000-node tier with no strict
assertions — small enough for CI, large enough that coarsening genuinely
runs (2000 tasks >> the 48-task coarse target).
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time

from bench_utils import record

from repro import dag
from repro.arch.catalog import generic_system
from repro.partition import (
    ListTemporalPartitioner,
    MultilevelPartitioner,
    PartitionProblem,
    SolverSpec,
    validate_partitioning,
)
from repro.partition.anneal_partitioner import _MoveState
from repro.partition.result import TemporalPartitioning
from repro.runtime import PartitionJob, canonical
from repro.synth.flow import DesignFlow, FlowOptions
from repro.synth.stages import graph_content_digest
from repro.taskgraph.builders import random_dsp_task_graph
from repro.units import ms
from repro.verify.oracles import design_fingerprint

TIERS = [
    int(item)
    for item in os.environ.get(
        "REPRO_BENCH_HUGE_TIERS", "10000,50000,100000"
    ).split(",")
]
FLAT_TIER = int(os.environ.get("REPRO_BENCH_HUGE_FLAT", "10000"))

#: Runs behind each median of the largest tier's copy, hashes, coarsening
#: and refinement.
REPEATS = 7


def _tier_graph(task_count: int):
    """The tier's graph: the ``random_layered_<N>`` workload shape."""
    return random_dsp_task_graph(
        task_count=task_count,
        seed=0,
        max_level_width=24,
        edge_probability=0.08,
        name=f"bench_huge_{task_count}",
    )


def _tier_system(task_count: int):
    """The tier's board, capacity scaled with size (20 CLBs/task) like the
    registered huge workloads (10k -> 200k CLBs, ..., 100k -> 2M CLBs)."""
    return generic_system(
        clb_capacity=20 * task_count,
        memory_words=1 << 20,
        reconfiguration_time=ms(5),
    )


def test_huge_tier_full_flow_throughput():
    """Full multilevel flow per tier: nodes/sec, validity, determinism."""
    print()
    nodes_per_sec = {}
    for task_count in TIERS:
        graph = _tier_graph(task_count)
        system = _tier_system(task_count)
        flow = DesignFlow(system, FlowOptions(partitioner="multilevel"))

        start = time.perf_counter()
        design = flow.build(graph)
        elapsed = time.perf_counter() - start
        nodes_per_sec[task_count] = task_count / elapsed

        problem = PartitionProblem.from_system(graph, system)
        validation = validate_partitioning(problem, design.partitioning)
        assert validation.is_valid, validation.violations

        # Same graph, fresh flow: the design must be bit-identical.
        again = DesignFlow(
            system, FlowOptions(partitioner="multilevel")
        ).build(graph)
        assert design_fingerprint(again) == design_fingerprint(design), (
            f"{task_count}-node flow is not deterministic"
        )

        print(
            f"  {task_count:>7,} nodes: {elapsed:7.2f} s full flow "
            f"({nodes_per_sec[task_count]:8.0f} nodes/s, "
            f"{design.partition_count} partitions)"
        )

    largest = max(TIERS)
    record(
        "huge_graphs",
        tiers=sorted(TIERS),
        nodes_per_sec_by_tier={str(n): nodes_per_sec[n] for n in sorted(TIERS)},
        largest_tier=largest,
        largest_tier_nodes_per_sec=nodes_per_sec[largest],
    )


def _median_seconds(call) -> float:
    """Median wall time of :data:`REPEATS` calls of *call*."""
    repeats = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        repeats.append(time.perf_counter() - start)
    return statistics.median(repeats)


def test_largest_tier_graph_copy():
    """``TaskGraph.copy()`` of the largest tier's graph."""
    graph = _tier_graph(max(TIERS))
    copy_seconds = _median_seconds(graph.copy)
    print()
    print(f"  {len(graph):>7,} nodes: TaskGraph.copy() {copy_seconds * 1e3:.2f} ms")
    record("huge_graphs", copy_seconds=copy_seconds)


def test_largest_tier_graph_digest():
    """``graph_content_digest`` of the largest tier's graph."""
    graph = _tier_graph(max(TIERS))
    graph_digest_seconds = _median_seconds(lambda: graph_content_digest(graph))
    print()
    print(
        f"  {len(graph):>7,} nodes: graph_content_digest "
        f"{graph_digest_seconds * 1e3:.2f} ms"
    )
    record("huge_graphs", graph_digest_seconds=graph_digest_seconds)


def test_largest_tier_fingerprint():
    """``PartitionJob.fingerprint`` (the engine's cache key) of the largest
    tier's partition problem."""
    task_count = max(TIERS)
    problem = PartitionProblem.from_system(
        _tier_graph(task_count), _tier_system(task_count)
    )
    job = PartitionJob(problem, SolverSpec(partitioner="multilevel"))
    fingerprint_seconds = _median_seconds(job.fingerprint)
    print()
    print(
        f"  {task_count:>7,} nodes: PartitionJob.fingerprint "
        f"{fingerprint_seconds * 1e3:.2f} ms"
    )
    record("huge_graphs", fingerprint_seconds=fingerprint_seconds)


def test_largest_tier_coarsening_and_refinement():
    """Multilevel coarsening, and uncoarsening with refinement, of the
    largest tier: medians of ``MultilevelReport.coarsen_time`` and
    ``MultilevelReport.refine_time``."""
    task_count = max(TIERS)
    problem = PartitionProblem.from_system(
        _tier_graph(task_count), _tier_system(task_count)
    )
    coarsen, refine = [], []
    for _ in range(REPEATS):
        partitioner = MultilevelPartitioner()
        partitioner.partition(problem)
        coarsen.append(partitioner.last_report.coarsen_time)
        refine.append(partitioner.last_report.refine_time)
    coarsen_seconds = statistics.median(coarsen)
    refine_seconds = statistics.median(refine)
    print()
    print(
        f"  {task_count:>7,} nodes: coarsening {coarsen_seconds * 1e3:.2f} ms "
        f"({len(partitioner.last_report.level_sizes) - 1} levels), "
        f"refinement {refine_seconds * 1e3:.2f} ms "
        f"({partitioner.last_report.refinement_moves} moves)"
    )
    record("huge_graphs", coarsen_seconds=coarsen_seconds, refine_seconds=refine_seconds)


def test_largest_tier_move_state_gc_and_flow_sorts(monkeypatch):
    """Machine-independent counts on the largest tier: GC collections
    during one ``_MoveState`` build of the multilevel result (after
    ``gc.collect()``), and sorts of a graph the tier's size during one
    ``DesignFlow.build`` of a freshly built tier graph."""
    task_count = max(TIERS)
    system = _tier_system(task_count)
    problem = PartitionProblem.from_system(_tier_graph(task_count), system)
    result = MultilevelPartitioner().partition(problem)
    gc.collect()
    before = sum(stats["collections"] for stats in gc.get_stats())
    _MoveState(problem, result.assignment, result.partition_count)
    move_state_gc_collections = sum(stats["collections"] for stats in gc.get_stats()) - before

    graph = _tier_graph(task_count)
    sorts = []
    sort = dag.topological_order

    def counting(succ, pred):
        if len(pred) == task_count:
            sorts.append(len(pred))
        return sort(succ, pred)

    monkeypatch.setattr(dag, "topological_order", counting)
    DesignFlow(system, FlowOptions(partitioner="multilevel")).build(graph)
    print()
    print(
        f"  {task_count:>7,} nodes: {move_state_gc_collections} GC collections per "
        f"move-state build, {len(sorts)} graph sorts per flow"
    )
    record(
        "huge_graphs",
        move_state_gc_collections=move_state_gc_collections,
        flow_graph_sorts=len(sorts),
    )


def test_largest_tier_flow_builds_and_walks(monkeypatch):
    """Machine-independent counts of one ``DesignFlow.build`` of a freshly
    built largest-tier graph: partition-info builds (``TemporalPartitioning``
    deriving every partition's tasks, delay and resources) and canonical
    walks (edge lists written) of a graph the tier's size.  The solver
    builds the infos once and the flow re-tags its validated result, and
    one walk writes both cache keys' text, so each reads 1 (2 when the
    flow rebuilt the result and each hash walked the graph)."""
    task_count = max(TIERS)
    graph = _tier_graph(task_count)
    builds, walks = [], []
    build, write_edges = TemporalPartitioning._build_partition_infos, canonical._edges_text

    def counting_build(self):
        if len(self.graph) == task_count:
            builds.append(task_count)
        return build(self)

    def counting_edges(graph, succ, names, escaped, leaf):
        if len(names) == task_count:
            walks.append(task_count)
        return write_edges(graph, succ, names, escaped, leaf)

    monkeypatch.setattr(TemporalPartitioning, "_build_partition_infos", counting_build)
    monkeypatch.setattr(canonical, "_edges_text", counting_edges)
    DesignFlow(_tier_system(task_count), FlowOptions(partitioner="multilevel")).build(graph)
    print()
    print(
        f"  {task_count:>7,} nodes: {len(builds)} partition-info builds and "
        f"{len(walks)} canonical walks per flow"
    )
    record(
        "huge_graphs",
        flow_partition_info_builds=len(builds),
        flow_canonical_walks=len(walks),
    )


def test_multilevel_vs_flat_speedup():
    """The multilevel partitioner must beat the flat list scheduler >= 10x."""
    if FLAT_TIER <= 0:
        import pytest

        pytest.skip("flat comparison disabled (REPRO_BENCH_HUGE_FLAT=0)")
    graph = _tier_graph(FLAT_TIER)
    problem = PartitionProblem.from_system(graph, _tier_system(FLAT_TIER))

    start = time.perf_counter()
    multilevel = MultilevelPartitioner().partition(problem)
    multilevel_seconds = time.perf_counter() - start

    start = time.perf_counter()
    flat = ListTemporalPartitioner().partition(problem)
    flat_seconds = time.perf_counter() - start

    speedup = flat_seconds / multilevel_seconds if multilevel_seconds else 0.0
    print()
    print(
        f"  {FLAT_TIER:>7,} nodes: multilevel {multilevel_seconds:7.2f} s "
        f"({multilevel.partition_count}p)  flat list {flat_seconds:7.2f} s "
        f"({flat.partition_count}p)  speedup {speedup:5.1f}x"
    )

    for result in (multilevel, flat):
        validation = validate_partitioning(problem, result)
        assert validation.is_valid, validation.violations

    record(
        "huge_graphs",
        flat_tier=FLAT_TIER,
        flat_seconds=flat_seconds,
        multilevel_seconds=multilevel_seconds,
        multilevel_speedup_vs_flat=speedup,
    )

    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if strict:
        assert speedup >= 10.0, (
            f"multilevel only {speedup:.1f}x faster than the flat list "
            f"scheduler at {FLAT_TIER} nodes (claimed >= 10x)"
        )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single 2000-node tier, no strict assertions")
    args = parser.parse_args(argv)
    if args.smoke:
        os.environ.setdefault("REPRO_BENCH_HUGE_TIERS", "2000")
        os.environ.setdefault("REPRO_BENCH_HUGE_FLAT", "2000")
        os.environ.setdefault("REPRO_BENCH_STRICT", "0")
    import pytest

    return pytest.main([__file__, "-x", "-q", "-s"])


if __name__ == "__main__":
    sys.exit(main())
