"""Engine scaling — batched parallel partitioning vs. the serial loop.

Solves a batch of DCT partitioning problems (the case-study graph swept
across distinct reconfiguration times, so no two jobs dedup) three ways:

* the plain serial loop over :class:`IlpTemporalPartitioner` (the baseline
  every caller used before the engine existed);
* a fresh :class:`PartitionEngine` at 1, 2, 4 and 8 workers (cold cache);
* the same engine again (warm cache; median of five batches, timed after
  a garbage collection so the cold batches' garbage is not charged to it).

It prints the speedup table and asserts the engine's results are identical
to the serial loop's, that a warm batch costs under 10 % of the cold one,
and — on machines with at least 4 CPUs — that 4 workers beat the serial
loop by at least 2x.

Environment knobs for constrained CI runners:

* ``REPRO_BENCH_BATCH`` — batch size (default 16);
* ``REPRO_BENCH_WORKERS`` — comma-separated worker counts (default 1,2,4,8);
* ``REPRO_BENCH_STRICT=0`` — measure and print, but skip the hard speedup
  assertion (for tiny smoke budgets where pool startup dominates).

Run standalone (``python benchmarks/bench_engine_scaling.py [--smoke]``) or
under pytest; ``--smoke`` presets a tiny batch with no strict assertions.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time

from bench_utils import record

from repro.partition import IlpTemporalPartitioner, PartitionProblem
from repro.runtime import EngineConfig, PartitionEngine, ct_sweep_jobs
from repro.units import ms

BATCH_SIZE = int(os.environ.get("REPRO_BENCH_BATCH", "16"))
WORKER_COUNTS = [
    int(item)
    for item in os.environ.get("REPRO_BENCH_WORKERS", "1,2,4,8").split(",")
]


def _ct_values():
    # Distinct CT values so every job is a genuine solve (no batch dedup).
    return [ms(1 + index) for index in range(BATCH_SIZE)]


def test_engine_scaling_and_warm_cache(dct_graph, paper_system, tmp_path):
    ct_values = _ct_values()
    problems = [
        PartitionProblem.from_system(
            dct_graph, paper_system.with_reconfiguration_time(ct)
        )
        for ct in ct_values
    ]

    # Baseline: the serial loop every caller used before the engine existed.
    partitioner = IlpTemporalPartitioner()
    start = time.perf_counter()
    serial_results = [partitioner.partition(problem) for problem in problems]
    serial_time = time.perf_counter() - start

    print()
    print(f"batch of {len(problems)} DCT problems (CT 1..{BATCH_SIZE} ms), "
          f"{os.cpu_count()} CPU(s) available")
    print(f"  serial loop: {serial_time:8.2f} s   (baseline)")

    engine_times = {}
    engines = {}
    for workers in WORKER_COUNTS:
        engine = PartitionEngine(EngineConfig(
            workers=workers, cache_dir=tmp_path / f"cache-{workers}",
        ))
        jobs = ct_sweep_jobs(engine, dct_graph, paper_system, ct_values)
        start = time.perf_counter()
        batch = engine.solve_batch(jobs)
        engine_times[workers] = time.perf_counter() - start
        engines[workers] = (engine, jobs)
        assert batch.ok, batch.describe()
        speedup = serial_time / engine_times[workers]
        print(f"  engine w={workers}: {engine_times[workers]:8.2f} s   "
              f"(speedup {speedup:4.2f}x)")

        # The engine must reproduce the serial loop's results exactly.
        for report, expected in zip(batch, serial_results):
            assert report.outcome.partition_count == expected.partition_count
            assert abs(report.outcome.total_latency - expected.total_latency) < 1e-12

    # Warm reruns: same jobs, same engine -> pure cache hits.  A collection
    # first keeps a cyclic-GC pass out of the few-millisecond timings.
    warm_workers = WORKER_COUNTS[-1]
    engine, jobs = engines[warm_workers]
    gc.collect()
    warm_times = []
    for _ in range(5):
        start = time.perf_counter()
        warm_batch = engine.solve_batch(jobs)
        warm_times.append(time.perf_counter() - start)
        assert warm_batch.ok
        assert all(report.cached for report in warm_batch)
    warm_time = statistics.median(warm_times)
    cold_time = engine_times[warm_workers]
    print(f"  warm cache:  {warm_time:8.4f} s   "
          f"({warm_time / cold_time * 100:4.1f}% of cold)")
    assert warm_time < 0.10 * cold_time, (
        f"warm batch took {warm_time:.3f} s, over 10% of the cold {cold_time:.3f} s"
    )

    # Cross-process cache reuse: a brand new engine reading the same disk
    # cache must also skip every solve.
    fresh = PartitionEngine(EngineConfig(
        workers=0, cache_dir=tmp_path / f"cache-{warm_workers}",
    ))
    disk_batch = fresh.solve_batch(
        ct_sweep_jobs(fresh, dct_graph, paper_system, ct_values)
    )
    assert disk_batch.ok
    assert all(report.cached for report in disk_batch)

    record(
        "engine_scaling",
        batch_size=len(problems),
        serial_seconds=serial_time,
        serial_jobs_per_sec=len(problems) / serial_time if serial_time else 0.0,
        engine_seconds_by_workers={str(w): t for w, t in engine_times.items()},
        warm_seconds=warm_time,
        warm_fraction_of_cold=warm_time / cold_time if cold_time else 0.0,
        cache_stats=engine.stats.snapshot(),
    )

    cpu_count = os.cpu_count() or 1
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if strict and cpu_count >= 4 and 4 in engine_times:
        assert serial_time / engine_times[4] >= 2.0, (
            f"4-worker speedup {serial_time / engine_times[4]:.2f}x < 2x "
            f"on a {cpu_count}-CPU machine"
        )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny batch, no strict speedup assertions")
    args = parser.parse_args(argv)
    if args.smoke:
        os.environ.setdefault("REPRO_BENCH_BATCH", "6")
        os.environ.setdefault("REPRO_BENCH_WORKERS", "1,2")
        os.environ.setdefault("REPRO_BENCH_STRICT", "0")
    import pytest

    return pytest.main([__file__, "-x", "-q", "-s"])


if __name__ == "__main__":
    sys.exit(main())
