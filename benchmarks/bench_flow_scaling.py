"""Flow-engine scaling — batched end-to-end flows vs. the serial loop.

Runs a batch of complete design flows (the case-study DCT graph swept
across distinct reconfiguration times, so no two jobs dedup) three ways:

* the plain serial loop over ``DesignFlow.build``, each call a one-job run
  of a fresh in-memory :class:`FlowEngine` (no cache or solve memo is
  shared between flows, so it is the cold single-flow baseline);
* a fresh :class:`FlowEngine` at 1, 2, 4 and 8 partition workers (cold
  cache);
* the same engine again (warm cache).

It prints the speedup table and asserts the engine's designs are identical
to the serial loop's, that a warm batch costs under 5 % of the cold one
(the ISSUE-2 acceptance bar), and — on machines with at least 4 CPUs —
that 4 workers beat the serial loop by at least 2x.

Environment knobs for constrained CI runners:

* ``REPRO_BENCH_BATCH`` — batch size (default 12);
* ``REPRO_BENCH_WORKERS`` — comma-separated worker counts (default 1,2,4,8);
* ``REPRO_BENCH_STRICT=0`` — measure and print, but skip the hard speedup
  and warm-cache-percentage assertions (for tiny smoke budgets where pool
  startup and fixed per-job costs dominate).
"""

from __future__ import annotations

import os
import time

from bench_utils import record

from repro.synth import DesignFlow, FlowEngine, FlowJob
from repro.units import ms

BATCH_SIZE = int(os.environ.get("REPRO_BENCH_BATCH", "12"))
WORKER_COUNTS = [
    int(item)
    for item in os.environ.get("REPRO_BENCH_WORKERS", "1,2,4,8").split(",")
]


def _ct_values():
    # Distinct CT values so every job is a genuine solve (no batch dedup).
    return [ms(1 + index) for index in range(BATCH_SIZE)]


def _flow_jobs(dct_graph, paper_system):
    return [
        FlowJob(
            graph=dct_graph,
            system=paper_system.with_reconfiguration_time(ct),
            tag=f"dct@ct={ct * 1e3:g}ms",
            workload="jpeg_dct",
        )
        for ct in _ct_values()
    ]


def test_flow_engine_scaling_and_warm_cache(dct_graph, paper_system, tmp_path):
    jobs = _flow_jobs(dct_graph, paper_system)

    # Baseline: the serial loop of one-call builds, one fresh engine each.
    start = time.perf_counter()
    serial_designs = [
        DesignFlow(job.system, job.options).build(job.graph) for job in jobs
    ]
    serial_time = time.perf_counter() - start

    print()
    print(f"batch of {len(jobs)} complete DCT flows (CT 1..{BATCH_SIZE} ms), "
          f"{os.cpu_count()} CPU(s) available")
    print(f"  serial loop:   {serial_time:8.2f} s   (baseline)")

    engine_times = {}
    engines = {}
    for workers in WORKER_COUNTS:
        engine = FlowEngine(
            workers=workers, cache_dir=tmp_path / f"cache-{workers}"
        )
        start = time.perf_counter()
        batch = engine.run_batch(jobs)
        engine_times[workers] = time.perf_counter() - start
        engines[workers] = engine
        assert batch.ok, batch.describe()
        speedup = serial_time / engine_times[workers]
        print(f"  engine w={workers}:  {engine_times[workers]:8.2f} s   "
              f"(speedup {speedup:4.2f}x)")

        # The engine must reproduce the serial flow's designs exactly.
        for report, expected in zip(batch, serial_designs):
            design = report.design
            assert design.partition_count == expected.partition_count
            assert design.computations_per_run == expected.computations_per_run
            assert abs(design.block_delay - expected.block_delay) < 1e-12
            assert design.partitioning.assignment == expected.partitioning.assignment

    # Warm rerun: same jobs, same engine -> every partitioning from cache,
    # only the (cheap) downstream stages re-run.
    warm_workers = WORKER_COUNTS[-1]
    engine = engines[warm_workers]
    start = time.perf_counter()
    warm_batch = engine.run_batch(jobs)
    warm_time = time.perf_counter() - start
    cold_time = engine_times[warm_workers]
    print(f"  warm cache:    {warm_time:8.4f} s   "
          f"({warm_time / cold_time * 100:4.1f}% of cold)")
    assert warm_batch.ok
    assert all(report.cached_partition for report in warm_batch)
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if strict:
        assert warm_time < 0.05 * cold_time, (
            f"warm batch took {warm_time:.3f} s, over 5% of the cold {cold_time:.3f} s"
        )

    # Cross-process cache reuse: a brand new engine reading the same disk
    # cache must also skip every solve.
    fresh = FlowEngine(workers=0, cache_dir=tmp_path / f"cache-{warm_workers}")
    disk_batch = fresh.run_batch(jobs)
    assert disk_batch.ok
    assert all(report.cached_partition for report in disk_batch)

    record(
        "flow_scaling",
        batch_size=len(jobs),
        serial_seconds=serial_time,
        serial_flows_per_sec=len(jobs) / serial_time if serial_time else 0.0,
        engine_seconds_by_workers={str(w): t for w, t in engine_times.items()},
        warm_seconds=warm_time,
        warm_fraction_of_cold=warm_time / cold_time if cold_time else 0.0,
        stage_stats=engine.stage_stats,
        cache_stats=engine.stats.snapshot(),
    )

    cpu_count = os.cpu_count() or 1
    if strict and cpu_count >= 4 and 4 in engine_times:
        assert serial_time / engine_times[4] >= 2.0, (
            f"4-worker speedup {serial_time / engine_times[4]:.2f}x < 2x "
            f"on a {cpu_count}-CPU machine"
        )
