"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow_exact --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --describe

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first repeats those untraced passes, then runs as many
passes again with every layer entry point wrapped (``layers.py``), and
reports per-layer self time and counts per pass, plus the tracing overhead
(traced minus untraced value of every end-to-end metric).  The traced
passes are written to ``.perfbench-out/`` as Chrome trace-event JSON.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_SAMPLES = 3
#: A failed or refused operation misses every latency limit (seconds).
FAILED_LATENCY_S = 1e6

#: End-to-end metric -> unit.  An operation is one design compile
#: (flow_exact), the huge flow (huge_graph), one HTTP request
#: (serve_mixed) or one cold exploration (explore_sweep).
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
#: End-to-end times also reported unnormalised (``raw.<name>``, trace 1).
RAW_METRICS = ("setup_s", "total_s", "op_p50_ms", "op_p99_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="flow_exact")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the workloads and the layer map, then exit")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_child(workload: str, seed: int) -> int:
    """One set-up: import, then generate the inputs; report the split."""
    from scenarios import SCENARIOS

    began = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    import scipy.optimize  # noqa: F401

    solver_imported = time.perf_counter()
    SCENARIOS[workload].generate(seed)
    print(json.dumps({
        "import.repro_s": imported - began,
        "import.scipy_optimize_s": solver_imported - imported,
        "workloads.build_graph_s": time.perf_counter() - solver_imported,
    }), flush=True)
    return 0


def setup_sample(workload: str, seed: int):
    """Spawn one set-up child; ``(interval until it is ready, its split)``."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-child",
               "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        ready = time.monotonic()
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up child for {workload} failed ({proc.returncode})")
    return (started, ready), json.loads(line)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def run_passes(scenario, inputs, tracer, checker, workdir, seconds, count=None, **extra):
    """Passes until *seconds* are spent (at least one), or exactly *count*."""
    serve = scenario.name == "serve_mixed"
    minimum = 3 if serve else 1  # serve: >= 3 set-up samples
    passes: List = []
    started = time.monotonic()
    while True:
        kwargs = dict(extra, index=len(passes)) if serve else {}
        passes.append(scenario.run_pass(inputs, tracer, checker, workdir, **kwargs))
        if count is not None:
            if len(passes) >= count:
                return passes
        elif len(passes) >= minimum and time.monotonic() - started >= seconds:
            return passes


def interval_s(interval) -> float:
    """An interval's raw (not speed-normalised) length in seconds."""
    return interval[1] - interval[0]


def tail_kinds(passes, op_time, limit_s: float) -> Dict[str, int]:
    """How many operations of each kind take *limit_s* or longer."""
    kinds: Dict[str, int] = {}
    for p in passes:
        for op, kind in zip(p.ops, p.extra["kinds"]):
            if op is None or op_time(op) >= limit_s:
                kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p99(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(passes, setup, rss_mb: float, op_time, setup_time) -> Dict[str, float]:
    """The end-to-end metrics; *op_time*/*setup_time* normalise an interval."""
    latencies = [
        op_time(op) if op is not None else FAILED_LATENCY_S for p in passes for op in p.ops
    ]
    return {
        "setup_s": statistics.median(setup_time(interval) for interval in setup),
        "total_s": statistics.median(op_time(p.wall) for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": p99(latencies) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(scenario, passes, tracers, setup_splits, counters, scale) -> Dict[str, float]:
    """Per-pass self seconds and counts of every layer, plus the ratios.

    Layer seconds are scaled by *scale*, the traced window's speed factor.
    """
    import layers

    count = len(passes)
    windows = [p.wall for p in passes]  # e.g. not the daemon's untimed warm-up
    totals: Dict[str, List[float]] = {}
    for tracer in tracers:
        for name, (self_s, calls) in tracer.totals(windows).items():
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
    metrics = {
        name: statistics.median(split[name] for split in setup_splits)
        for name in ("import.repro_s", "import.scipy_optimize_s", "workloads.build_graph_s")
    }
    for layer in layers.TIMED_LAYERS:
        metrics[f"{layer}_s"] = totals.get(layer, [0.0, 0])[0] * scale / count
    metrics["taskgraph.topological_order_calls"] = (
        totals.get("taskgraph.topological_order", [0.0, 0])[1] / count
    )
    metrics["ilp.milp_calls"] = totals.get("ilp.milp", [0.0, 0])[1] / count
    metrics["hls.estimate_runs"] = counters.get("estimate_runs", 0) / count
    bounds = sum(t.counters.get("ilp.bounds_attempted", 0) for t in tracers)
    runs = sum(t.counters.get("ilp.partition_runs", 0) for t in tracers)
    metrics["ilp.bounds_attempted"] = _ratio(bounds, runs)
    hits = counters.get("cache_memory_hits", 0) + counters.get("cache_disk_hits", 0)
    metrics["runtime.cache_hit_ratio"] = _ratio(hits, hits + counters.get("cache_misses", 0))
    metrics["runtime.dedup_ratio"] = _ratio(counters.get("deduped", 0), counters.get("jobs", 0))
    metrics["synth.stage_hit_ratio"] = _ratio(
        counters.get("stage_hits", 0), counters.get("stage_lookups", 0)
    )
    requests = sum(p.attempted for p in passes) if scenario.name == "serve_mixed" else 0
    queue_s = worker_s = client_s = 0.0
    for tracer in tracers:
        for _, name, start, end, _, _, _, _ in tracer.in_windows(windows):
            if name == "serve.queue_wait":
                queue_s += end - start
            elif name == "serve.worker":
                worker_s += end - start
            elif name == "serve.request":
                client_s += end - start
    metrics["serve.queue_wait_ms"] = _ratio(queue_s, requests) * scale * 1e3
    metrics["serve.worker_ms"] = _ratio(worker_s, requests) * scale * 1e3
    metrics["serve.http_ms"] = _ratio(client_s - queue_s - worker_s, requests) * scale * 1e3
    metrics["serve.coalesced_ratio"] = _ratio(
        counters.get("coalesced", 0), counters.get("submitted", 0)
    )
    return metrics


def sum_counters(passes) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for p in passes:
        for key, value in p.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def collect(args, scenario, checker, workdir, daemon_cpu: int) -> dict:
    """Run set-up samples and passes; everything raw (intervals, spans)."""
    import layers
    import spans

    raw = {"samples": []}
    if scenario.name != "serve_mixed" or args.trace:
        raw["samples"] = [setup_sample(scenario.name, args.seed) for _ in range(SETUP_SAMPLES)]
    import repro  # noqa: F401 - the measuring process's own set-up
    import scipy.optimize  # noqa: F401

    inputs = scenario.generate(args.seed)
    extra = {"daemon_cpu": daemon_cpu} if scenario.name == "serve_mixed" else {}
    raw["untraced"] = run_passes(scenario, inputs, None, checker, workdir, args.seconds,
                                 **extra)
    raw["rss"] = peak_rss_mb()
    if args.trace:
        tracer = spans.Tracer()
        began = time.monotonic()
        layers.install(tracer)
        raw["install_s"] = time.monotonic() - began
        raw["traced"] = run_passes(scenario, inputs, tracer, checker, workdir, args.seconds,
                                   count=len(raw["untraced"]), **extra)
        raw["traced_rss"] = peak_rss_mb()
        raw["tracers"] = [tracer]
        if scenario.name == "serve_mixed":
            for p in raw["traced"]:
                for began_s, ended_s, key in p.extra["request_spans"]:
                    tracer.record("serve.request", began_s, ended_s, key)
                raw["tracers"].append(spans.load_dump(p.extra["daemon_trace"]))
    return raw


def measure(args) -> dict:
    """Measure one run: raw collection under speed sampling, then metrics."""
    import expected
    import layers
    import spans
    from scenarios import SCENARIOS

    scenario = SCENARIOS[args.workload]
    serve = scenario.name == "serve_mixed"
    checker = expected.Checker(expected.load_expected()[scenario.name])
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{scenario.name}-", dir=str(OUT_DIR))
    main_cpu, daemon_cpu = speed.measuring_cpus()
    speed.pin(main_cpu)
    samplers = []
    try:
        try:
            samplers.append(
                speed.SpeedSampler(main_cpu, os.path.join(workdir, "speed-main.json"))
            )
            if serve and daemon_cpu != main_cpu:
                samplers.append(
                    speed.SpeedSampler(daemon_cpu, os.path.join(workdir, "speed-daemon.json"))
                )
            raw = collect(args, scenario, checker, workdir, daemon_cpu)
        finally:
            for sampler in samplers:
                sampler.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def op_time(interval):
        return speed.normalise(samplers, *interval)

    def setup_time(interval):
        return speed.normalise(samplers[-1:] if serve else samplers[:1], *interval)

    untraced = raw["untraced"]
    if serve:
        setup = [p.setup for p in untraced]
        rss = max(p.peak_rss_mb for p in untraced)
    else:
        setup = [interval for interval, _ in raw["samples"]]
        rss = raw["rss"]
    baseline = end_to_end(untraced, setup, rss, op_time, setup_time)
    unnormalised = end_to_end(untraced, setup, rss, interval_s, interval_s)
    passes = list(untraced)
    report = {
        "baseline": baseline,
        "passes": len(untraced),
        "raw": {f"raw.{name}": unnormalised[name] for name in RAW_METRICS},
        "drag": speed.workload_drag(samplers, [p.wall for p in untraced]),
        "cold_penalty": speed.cold_penalty(samplers, [p.wall for p in untraced]),
        "factor": statistics.median(op_time(p.wall) / interval_s(p.wall) for p in untraced),
    }
    if serve:
        report["p99_kinds"] = tail_kinds(untraced, op_time, baseline["op_p99_ms"] / 1e3)
    if args.trace:
        traced = raw["traced"]
        passes += traced
        if serve:
            traced_setup = [p.setup for p in traced]
            traced_rss = max(p.peak_rss_mb for p in traced)
            setup_time_traced = setup_time
        else:
            traced_setup = setup
            traced_rss = raw["traced_rss"]

            def setup_time_traced(interval):
                return setup_time(interval) + raw["install_s"]

        traced_e2e = end_to_end(traced, traced_setup, traced_rss, op_time, setup_time_traced)
        window = (traced[0].wall[0], traced[-1].wall[1])
        scale = op_time(window) / (window[1] - window[0])
        metrics = per_layer(scenario, traced, raw["tracers"],
                            [split for _, split in raw["samples"]], sum_counters(traced), scale)
        metrics.update(report["raw"])
        metrics["speed.factor"] = report["factor"]
        metrics["speed.drag"] = report["drag"]
        metrics["speed.cold_penalty"] = report["cold_penalty"]
        for name, value in baseline.items():
            metrics[f"trace.overhead.{name}"] = traced_e2e[name] - value
        trace_path = OUT_DIR / f"trace-{scenario.name}-seed{args.seed}.json"
        events = [
            event for tracer in raw["tracers"]
            for event in tracer.trace_events()
        ]
        spans.write_chrome_trace(str(trace_path), events, {
            "workload": scenario.name, "seed": args.seed, "per_layer": metrics,
            "layer_map": layers.LAYER_METRICS,
        })
        report.update(trace_path=str(trace_path),
                      wall_per_pass=statistics.mean(op_time(p.wall) for p in traced))
    else:
        metrics = dict(baseline)
    report.update(
        metrics=metrics,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        problems=checker.problems,
        samples=sum(len(p.ops) for p in untraced),
        untraced=untraced,
    )
    return report


def unit_of(name: str) -> str:
    if name.startswith("trace.overhead."):
        return END_TO_END[name[len("trace.overhead."):]]
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("speed."):
        return "ratio"
    if name == "ilp.bounds_attempted":
        return "bounds/run"
    return "count"


def print_summary(args, report, out) -> None:
    """Human-readable lines: metrics with units, aliases and shares."""
    import layers

    base = report["baseline"]
    untraced = report["untraced"]
    print(f"perfbench {args.workload} seed={args.seed} passes={report['passes']} "
          f"operations={report['samples']}", file=out)
    for name, value in base.items():
        print(f"  {name:<14} {value:14.4f} {END_TO_END[name]}", file=out)
    for name, value in report["raw"].items():
        print(f"  {name:<18} {value:10.4f} {unit_of(name)} (not speed-normalised)", file=out)
    print(f"  speed factor {report['factor']:.4f}; the measured work slows the timed "
          f"probe by {report['drag']:+.2%} (limit {speed.DRAG_TOLERANCE:.0%}), "
          f"an unwarmed one by {report['cold_penalty']:+.2%}", file=out)
    total = base["total_s"]
    if args.workload in ("flow_exact", "huge_graph"):
        print(f"  flow_total_s   {total:14.4f} s", file=out)
    if args.workload == "flow_exact":
        print(f"  flow_p50_s     {base['op_p50_ms'] / 1e3:14.4f} s", file=out)
    if args.workload == "explore_sweep":
        points = statistics.median(p.extra["points"] for p in untraced)
        print(f"  points_per_s   {points / total:14.4f} 1/s", file=out)
    if args.workload == "serve_mixed":
        requests = statistics.median(p.attempted for p in untraced)
        print(f"  request_p50_ms {base['op_p50_ms']:14.4f} ms", file=out)
        print(f"  request_p99_ms {base['op_p99_ms']:14.4f} ms", file=out)
        print(f"  requests_per_s {requests / total:14.4f} 1/s", file=out)
        tail = ", ".join(f"{count} {kind}" for kind, count in sorted(report["p99_kinds"].items()))
        print(f"  requests at or beyond p99: {tail}", file=out)
    share = report["failed"] / max(report["attempted"], 1)
    print(f"  failed_share   {share:14.4f} ({report['failed']}/{report['attempted']})",
          file=out)
    for problem in report["problems"][:20]:
        print(f"  FAILED {problem}", file=out)
    if not args.trace:
        return
    metrics = report["metrics"]
    wall = report["wall_per_pass"]
    print(f"  traced pass wall {wall:.4f} s; layer self time per pass:", file=out)
    for layer in layers.TIMED_LAYERS:
        value = metrics[f"{layer}_s"]
        print(f"    {layer + '_s':<32} {value:10.4f} s  {100 * value / wall:5.1f}%", file=out)
    groups = {
        "ilp.*": ("ilp.",),
        "taskgraph.* + partition.multilevel": ("taskgraph.", "partition.multilevel"),
    }
    for label, prefixes in groups.items():
        seconds = sum(v for k, v in metrics.items()
                      if k.endswith("_s") and k.startswith(prefixes))
        print(f"  share of traced pass: {label} = {100 * seconds / wall:.1f}%", file=out)
    for name, value in metrics.items():
        if name.startswith("trace.overhead."):
            print(f"  {name} = {value:+.4f} {unit_of(name)}", file=out)
    print(f"  trace: {report['trace_path']}", file=out)


def describe(out) -> None:
    import layers
    from scenarios import HELD_OUT_SEED, WHY

    print("workloads:", file=out)
    for name, why in WHY.items():
        print(f"  {name}: {why}", file=out)
    print(f"held-out seed: {HELD_OUT_SEED}", file=out)
    print("end-to-end metrics: " + ", ".join(
        f"{name} ({unit})" for name, unit in END_TO_END.items()), file=out)
    print("layer -> end-to-end metric (workload):", file=out)
    for name, (metric, workload) in layers.LAYER_METRICS.items():
        print(f"  {name:<34} -> {metric} ({workload})", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    if args.describe:
        describe(sys.stdout)
        return 0
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    # Native code (HiGHS) may print to fd 1; keep it off the result stream.
    sys.stdout.flush()
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    report = measure(args)
    print_summary(args, report, out)
    out.flush()
    if report["drag"] > speed.DRAG_TOLERANCE:
        print(f"error: the measured work slowed the timed speed probe by "
              f"{report['drag']:+.2%}, beyond {speed.DRAG_TOLERANCE:.0%}; normalised "
              "times would partly cancel the program's own changes", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in report["metrics"].items()
    }
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
