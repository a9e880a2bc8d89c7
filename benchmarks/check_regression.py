"""Gate freshly emitted ``BENCH_*.json`` reports against committed baselines.

CI runs the smoke benches, then::

    python benchmarks/check_regression.py --current bench-json

Each gated metric is compared with its value in
``benchmarks/baselines/BENCH_<name>.json``.  Dimensionless *ratio* metrics
(speedups, warm/cold fractions) are gated at 20% — they compare two runs on
the same machine, so they transfer across hardware.  Absolute throughput
metrics are machine-dependent, so they get a looser 60% floor that still
catches order-of-magnitude regressions without flaking on slower runners.

A missing baseline file or gated metric fails the check (commit a baseline
with ``--update`` after adding a gated bench).  ``--update`` rewrites the
baseline files from the current reports instead of checking.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: Relative tolerance for same-machine ratio metrics ("fail on >20%
#: throughput regression").
RATIO_TOLERANCE = 0.20

#: Relative tolerance for absolute (machine-dependent) metrics.
ABSOLUTE_TOLERANCE = 0.60


@dataclass(frozen=True)
class Gate:
    """One gated metric: where it lives and which direction is a regression."""

    metric: str
    #: "min" — current must stay above baseline * (1 - tolerance);
    #: "max" — current must stay below baseline * (1 + tolerance).
    direction: str
    tolerance: float


#: Gated metrics per benchmark name (the ``BENCH_<name>.json`` stem).
GATES: Dict[str, List[Gate]] = {
    "ilp_partitioning": [
        # Absolute cold-solve throughput of the portfolio over the builtin
        # workloads (heuristic ladder, certificate, HiGHS exact arm).
        Gate("accel_jobs_per_sec", "min", ABSOLUTE_TOLERANCE),
        # Absolute scipy solve time of the HLS-estimated DCT.  Without the
        # delay-bound row HiGHS needs tens of seconds to prove its optimum,
        # so losing the row fails this gate by more than an order of
        # magnitude.
        Gate("estimated_dct_scipy_seconds", "max", ABSOLUTE_TOLERANCE),
        # Absolute annealer time over the builtin set.  Re-checking every
        # move from scratch (all tasks, all edges, a fresh topological
        # sort) costs ~6x the incremental checks, far past the band.
        Gate("anneal_seconds", "max", ABSOLUTE_TOLERANCE),
        # Absolute model-build time of the HLS-estimated DCT at N = 6.
        # Building it through a per-term expression layer and a dense
        # export takes about eight times the baseline, far past the ceiling.
        Gate("formulation_seconds", "max", ABSOLUTE_TOLERANCE),
    ],
    "engine_scaling": [
        # Warm batches must stay a small fraction of cold ones.  The warm
        # side is a few milliseconds, so timer noise swamps a 20% band; a
        # 5x ceiling still catches any real cache regression (the fraction
        # jumps by orders of magnitude when hits stop being hits).
        Gate("warm_fraction_of_cold", "max", 4.0),
        # Absolute serial solve throughput (scipy MILP per job).
        Gate("serial_jobs_per_sec", "min", ABSOLUTE_TOLERANCE),
    ],
    "scheduler": [
        # The scheduled + merged frontier must be byte-identical to the
        # unsharded run — any divergence is a correctness bug, so zero
        # tolerance on this boolean.
        Gate("merged_equals_unsharded", "min", 0.0),
        # Absolute fleet throughput: protocol + store-streaming overhead
        # per scheduled range on a warm cache.
        Gate("ranges_per_sec", "min", ABSOLUTE_TOLERANCE),
        # Revoke + re-grant is one roundtrip of work; these are sub-ms,
        # so timer noise needs a wide band — a 10x ceiling still catches
        # the steal path picking up accidental sleeps or scans.
        Gate("steal_latency_ms_p50", "max", 9.0),
        # Wall time from SIGKILL to a fully drained schedule.  Stealing
        # makes this tens of milliseconds; if workers ever have to sit out
        # the 0.5 s lease expiry the value jumps past 10x baseline, so the
        # wide band keeps discrimination while absorbing runner noise.
        Gate("recovery_after_kill_s", "max", 9.0),
    ],
    "serve": [
        # Same-machine warm/cold ratio of the service daemon.  The warm
        # side is ~1-2 ms of pure service overhead, so timer noise moves
        # the ratio a lot; an 80% band still leaves the floor near 20x —
        # double the >= 10x dedup-by-cache claim the bench itself asserts.
        Gate("warm_speedup_vs_cold", "min", 0.80),
        # Absolute warm-path service throughput (submit + wait + result).
        Gate("warm_requests_per_sec", "min", ABSOLUTE_TOLERANCE),
        # N concurrent identical submissions must run exactly one partition
        # solve; any second solve is a dedup regression, so zero tolerance.
        Gate("concurrent_duplicate_solves", "max", 0.0),
    ],
    "explore": [
        # Warm exploration (engine caches hot) must stay a small fraction
        # of cold; like engine_scaling the warm side is milliseconds, so a
        # wide ceiling that still catches hits-stop-being-hits regressions.
        Gate("warm_fraction_of_cold", "max", 4.0),
        # A resumed exploration must run zero flow jobs — any nonzero value
        # means the run store stopped resuming, so zero tolerance.
        Gate("store_warm_flow_jobs", "max", 0.0),
        # Solver work of a 30-point CT sweep through one engine.  The
        # engine's solve memo runs each distinct HiGHS model and annealing
        # loop once (2 and 10); without it the sweep repeats them (7 and
        # 20).  Machine-independent counts, so zero tolerance.
        Gate("ct_sweep_highs_runs", "max", 0.0),
        Gate("ct_sweep_anneal_loops", "max", 0.0),
    ],
    "explore_sharded": [
        # The merged N-shard frontier must be byte-identical to the
        # unsharded frontier (1.0 = identical).  Machine-independent
        # correctness, so zero tolerance.
        Gate("merged_equals_unsharded", "min", 0.0),
        # Same-machine sharded/serial throughput ratio.  On few-core CI
        # runners the 2-shard smoke ratio hovers near 1.0 with process
        # startup noise, so a 50% band — the gate catches sharding becoming
        # a multiple-x slowdown, the >= 3x claim is asserted by the bench
        # itself on >= 4-CPU hardware.
        Gate("speedup_at_max_shards", "min", 0.50),
        # Absolute serial exploration throughput over distinct solves.
        Gate("cold_points_per_sec_serial", "min", ABSOLUTE_TOLERANCE),
    ],
    "huge_graphs": [
        # Same-machine multilevel-vs-flat ratio (baseline ~19x at the 2000-
        # node smoke tier).  A 50% band is looser than RATIO_TOLERANCE on
        # purpose: the flat side is a single long measurement that wobbles
        # with allocator behaviour, and the floor it leaves (~10x) is
        # exactly the scaling claim being enforced.
        Gate("multilevel_speedup_vs_flat", "min", 0.50),
        # Absolute full-flow throughput of the largest smoke tier.
        Gate("largest_tier_nodes_per_sec", "min", ABSOLUTE_TOLERANCE),
        # TaskGraph.copy() of the largest smoke tier's graph takes a few
        # milliseconds, so it gets the 10x ceiling of the sub-millisecond
        # gates.  A copy that re-checks acyclicity per edge is quadratic:
        # seconds, more than 100x past the ceiling.
        Gate("copy_seconds", "max", 9.0),
        # Multilevel uncoarsening and refinement of the largest smoke tier.
        # Building and re-validating a whole partitioning per trial move
        # takes about twice as long, past the ceiling.
        Gate("refine_seconds", "max", ABSOLUTE_TOLERANCE),
        # Multilevel coarsening of the largest smoke tier.  Merging in
        # name-keyed dicts takes three to five times as long, past the
        # ceiling.
        Gate("coarsen_seconds", "max", ABSOLUTE_TOLERANCE),
        # graph_content_digest of the largest smoke tier's graph.  Re-walking
        # the canonical form before serialising it takes two to three times
        # as long, past the ceiling on the same host.
        Gate("graph_digest_seconds", "max", ABSOLUTE_TOLERANCE),
        # PartitionJob.fingerprint of the largest smoke tier's problem.
        # Building a dict per task for json.dumps to walk again takes about
        # twice as long as writing the canonical text, past the ceiling.
        Gate("fingerprint_seconds", "max", ABSOLUTE_TOLERANCE),
        # GC collections during one annealer move-state build of the
        # largest smoke tier, and sorts of its graph during one flow.  Flat
        # edge lists allocate no per-edge tuples and the graph keeps the
        # sort add_edges ran, so both read 0; a tuple per edge end sets off
        # 19 collections and re-sorting the graph 3 sorts.  Machine-
        # independent counts, so zero tolerance.
        Gate("move_state_gc_collections", "max", 0.0),
        Gate("flow_graph_sorts", "max", 0.0),
    ],
}


def _load_metrics(path: Path) -> Dict[str, object]:
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    metrics = payload.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: 'metrics' is not an object")
    return metrics


def check(current_dir: Path, baseline_dir: Path) -> int:
    failures: List[str] = []
    checked = 0
    for bench, gates in sorted(GATES.items()):
        current_path = current_dir / f"BENCH_{bench}.json"
        baseline_path = baseline_dir / f"BENCH_{bench}.json"
        if not current_path.is_file():
            failures.append(f"{bench}: missing current report {current_path}")
            continue
        if not baseline_path.is_file():
            failures.append(
                f"{bench}: missing baseline {baseline_path} "
                "(run with --update and commit it)"
            )
            continue
        current = _load_metrics(current_path)
        baseline = _load_metrics(baseline_path)
        for gate in gates:
            if gate.metric not in current:
                failures.append(f"{bench}.{gate.metric}: absent from current report")
                continue
            if gate.metric not in baseline:
                failures.append(f"{bench}.{gate.metric}: absent from baseline")
                continue
            now = float(current[gate.metric])
            ref = float(baseline[gate.metric])
            checked += 1
            if gate.direction == "min":
                floor = ref * (1.0 - gate.tolerance)
                ok = now >= floor
                bound_text = f">= {floor:.4g}"
            else:
                ceiling = ref * (1.0 + gate.tolerance)
                ok = now <= ceiling
                bound_text = f"<= {ceiling:.4g}"
            status = "ok  " if ok else "FAIL"
            print(
                f"  [{status}] {bench}.{gate.metric}: {now:.4g} "
                f"(baseline {ref:.4g}, required {bound_text})"
            )
            if not ok:
                failures.append(
                    f"{bench}.{gate.metric}: {now:.4g} regressed past "
                    f"{bound_text} (baseline {ref:.4g})"
                )
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {checked} gated metrics within tolerance")
    return 0


def update(current_dir: Path, baseline_dir: Path) -> int:
    baseline_dir.mkdir(parents=True, exist_ok=True)
    missing = []
    for bench in sorted(GATES):
        current_path = current_dir / f"BENCH_{bench}.json"
        if not current_path.is_file():
            missing.append(str(current_path))
            continue
        shutil.copyfile(current_path, baseline_dir / current_path.name)
        print(f"  baseline updated: {baseline_dir / current_path.name}")
    if missing:
        print(f"missing current reports: {missing}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", type=Path, default=Path("."),
                        help="directory holding the freshly emitted "
                             "BENCH_*.json files (default: cwd)")
    parser.add_argument("--baselines", type=Path, default=BASELINE_DIR,
                        help="directory holding the committed baselines")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from the current reports "
                             "instead of checking")
    args = parser.parse_args(argv)
    if args.update:
        return update(args.current, args.baselines)
    return check(args.current, args.baselines)


if __name__ == "__main__":
    sys.exit(main())
