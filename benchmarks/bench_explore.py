"""Exploration throughput — points/sec cold vs. warm cache, serial vs. workers.

Explores the JPEG-DCT design space with the ``grid`` strategy three ways:

* **cold** — fresh partition caches, at each configured worker count;
* **warm** — the same exploration again on the same flow engine, so every
  partition solve is served from the engine's LRU/disk caches and only the
  cheap downstream stages re-run;
* **store-warm** — the same exploration against the persistent run store,
  which must evaluate zero flow jobs.

A second test counts solver work rather than time: a grid over
``jpeg_dct`` and ``wavelet_pyramid`` x CT {1, 2, 5, 10, 20} ms x {ilp,
anneal, portfolio} (FDH sequencing) through one in-process flow engine.
It records the HiGHS ``milp`` runs (``ct_sweep_highs_runs``) and the
annealing loops (``ct_sweep_anneal_loops``, the engine's anneal memo
misses) that sweep needs; both are machine-independent counts.

Run standalone (``python benchmarks/bench_explore.py [--smoke]``) or under
pytest.  Environment knobs for constrained CI runners:

* ``REPRO_BENCH_EXPLORE_BUDGET`` — design points to visit (default 36);
* ``REPRO_BENCH_WORKERS`` — comma-separated worker counts (default 0,2,4);
* ``REPRO_BENCH_STRICT=0`` — measure and print, but skip the hard
  warm-speedup assertions (pool startup dominates tiny budgets).
"""

from __future__ import annotations

import os
import sys

from bench_utils import record

from repro.explore import ExploreConfig, Explorer, RunStore, SearchSpace
from repro.runtime import EngineConfig
from repro.synth import FlowEngine
from repro.units import ms

BUDGET = int(os.environ.get("REPRO_BENCH_EXPLORE_BUDGET", "36"))
WORKER_COUNTS = [
    int(item) for item in os.environ.get("REPRO_BENCH_WORKERS", "0,2,4").split(",")
]
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"


def _space() -> SearchSpace:
    # Six points per CT value (3 partitioners x 2 sequencings); size the CT
    # axis so the grid walk is at least BUDGET points with no dedup.
    ct_count = max(2, (BUDGET + 5) // 6)
    return SearchSpace.for_workloads(
        ["jpeg_dct"],
        ct_values=tuple(ms(1 + index) for index in range(ct_count)),
        partitioners=("ilp", "list", "level"),
        sequencings=("fdh", "idh"),
    )


def _config(workers: int, cache_dir=None) -> ExploreConfig:
    return ExploreConfig(
        strategy="grid",
        budget=BUDGET,
        batch_size=min(12, BUDGET),
        objectives=("latency", "area", "overhead", "throughput"),
        workers=workers,
        cache_dir=cache_dir,
    )


def _rate(result) -> float:
    return result.visited / result.wall_time if result.wall_time else float("inf")


def test_explore_throughput_cold_warm_and_store(tmp_path):
    space = _space()
    budget = min(BUDGET, space.size)
    print()
    print(f"exploring {budget} of {space.size} points "
          f"({os.cpu_count()} CPU(s) available)")

    cold_rates = {}
    warm_rate = None
    reference_engine = None
    for workers in WORKER_COUNTS:
        engine = FlowEngine(
            config=EngineConfig(workers=workers, cache_dir=tmp_path / f"pc-{workers}")
        )
        result = Explorer(space, config=_config(workers), flow_engine=engine).run()
        assert result.ok, [r.error for r in result.records if not r.ok]
        assert len(result.front) >= 1
        cold_rates[workers] = _rate(result)
        print(f"  cold, {workers} worker(s):  {result.wall_time:8.2f} s  "
              f"({cold_rates[workers]:7.1f} points/s)")
        if reference_engine is None:
            reference_engine = engine
            cold_time = result.wall_time

    # Warm cache: same flow engine, fresh (memory) store — the partition
    # stage is served from the engine caches, only cheap stages re-run.
    warm = Explorer(space, config=_config(WORKER_COUNTS[0]),
                    flow_engine=reference_engine).run()
    warm_rate = _rate(warm)
    print(f"  warm cache:        {warm.wall_time:8.2f} s  "
          f"({warm_rate:7.1f} points/s, "
          f"{warm.wall_time / cold_time * 100:.1f}% of cold)")

    # Store-warm: a resumed exploration runs zero flow jobs.
    store_path = tmp_path / "store.jsonl"
    with RunStore(store_path, space.fingerprint()) as store:
        first = Explorer(space, config=_config(WORKER_COUNTS[0]),
                         flow_engine=reference_engine, store=store).run()
    with RunStore(store_path, space.fingerprint()) as store:
        resumed = Explorer(space, config=_config(WORKER_COUNTS[0]),
                           flow_engine=reference_engine, store=store).run()
    print(f"  store-warm:        {resumed.wall_time:8.2f} s  "
          f"({_rate(resumed):7.1f} points/s, {resumed.flow_evaluated} flow jobs)")

    assert first.visited == resumed.visited == budget
    assert resumed.flow_evaluated == 0
    assert resumed.front.to_json_dict() == first.front.to_json_dict()

    record(
        "explore",
        budget=budget,
        cold_points_per_sec_by_workers={str(w): r for w, r in cold_rates.items()},
        warm_points_per_sec=warm_rate,
        warm_fraction_of_cold=warm.wall_time / cold_time if cold_time else 0.0,
        store_warm_points_per_sec=_rate(resumed),
        store_warm_flow_jobs=resumed.flow_evaluated,
        engine_stats=first.engine_stats,
    )
    if STRICT:
        assert warm.wall_time < cold_time * 0.5, (
            f"warm exploration took {warm.wall_time:.2f} s vs. cold "
            f"{cold_time:.2f} s; expected under 50%"
        )


CT_SWEEP_MS = (1, 2, 5, 10, 20)


def test_ct_sweep_solver_runs(monkeypatch):
    # Imported here, not at module level: the cold throughput test above
    # times the first solve's scipy import, as a user's first run does.
    import scipy.optimize

    space = SearchSpace.for_workloads(
        ["jpeg_dct", "wavelet_pyramid"],
        ct_values=tuple(ms(ct) for ct in CT_SWEEP_MS),
        partitioners=("ilp", "anneal", "portfolio"),
        sequencings=("fdh",),
    )
    milp = scipy.optimize.milp
    highs_runs = []

    def counting_milp(*args, **kwargs):
        highs_runs.append(1)
        return milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counting_milp)
    engine = FlowEngine(workers=0)
    config = ExploreConfig(strategy="grid", budget=space.size)
    result = Explorer(space, config=config, flow_engine=engine).run()
    assert result.ok and result.visited == space.size == 30
    stats = engine.stats.snapshot()
    print()
    print(f"CT sweep of {space.size} points: {len(highs_runs)} HiGHS runs, "
          f"{stats['memo_anneal_misses']} annealing loops "
          f"(memo hits: milp {stats['memo_milp_hits']}, "
          f"anneal {stats['memo_anneal_hits']})")
    record(
        "explore",
        ct_sweep_highs_runs=len(highs_runs),
        ct_sweep_anneal_loops=stats["memo_anneal_misses"],
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget, no strict speedup assertions")
    args = parser.parse_args(argv)
    if args.smoke:
        os.environ.setdefault("REPRO_BENCH_EXPLORE_BUDGET", "12")
        os.environ.setdefault("REPRO_BENCH_WORKERS", "0,2")
        os.environ.setdefault("REPRO_BENCH_STRICT", "0")
    import pytest

    return pytest.main([__file__, "-x", "-q", "-s"])


if __name__ == "__main__":
    sys.exit(main())
