"""The benchmark's own checks: seed discipline, expected-results coverage,
span accounting and speed normalisation.

Run with ``python -m pytest perfbench/test_perfbench.py`` from the
repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import expected  # noqa: E402
import layers  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_same_seed_same_input_fingerprint(name):
    scenario = scenarios.SCENARIOS[name]
    first = scenario.fingerprint(scenario.generate(7))
    assert first == scenario.fingerprint(scenario.generate(7))


@pytest.mark.parametrize("name", ["flow_exact", "serve_mixed", "explore_sweep"])
def test_seed_changes_the_inputs(name):
    scenario = scenarios.SCENARIOS[name]
    fingerprints = {
        scenario.fingerprint(scenario.generate(seed))
        for seed in (0, 1, scenarios.HELD_OUT_SEED)
    }
    assert len(fingerprints) == 3


def test_serve_stream_composition_is_seed_independent():
    stream = scenarios.ServeMixed().generate(3)
    other = scenarios.ServeMixed().generate(scenarios.HELD_OUT_SEED)
    key = lambda spec: json.dumps(spec, sort_keys=True)  # noqa: E731
    assert sorted(map(key, stream)) == sorted(map(key, other))
    assert len(stream) == scenarios.STREAM_SIZE
    distinct = {key(spec) for spec in stream if spec not in scenarios.HOT_SPECS}
    variants = len(scenarios.HOT_SPECS) * len(scenarios.SERVE_CT_MS)
    assert len(distinct) == variants + len(scenarios.COLD_SEEDS)


def test_expected_results_cover_every_design():
    recorded = expected.load_expected()
    flow = {label for label, _ in scenarios.flow_exact_jobs()}
    assert flow == set(recorded["flow_exact"])
    assert expected.PAPER_LABEL in flow
    assert set(recorded["huge_graph"]) == {scenarios.HUGE_LABEL}
    points = {point.label for point in scenarios.explore_space().enumerate()}
    assert points == set(recorded["explore_sweep"])
    requests = {scenarios.request_label(spec) for spec in scenarios.serve_specs()}
    assert requests == set(recorded["serve_mixed"])


def test_checker_compares_exact_results_bit_for_bit():
    checker = expected.Checker({"a": 0.5, "jpeg_dct": 0.3})
    ok = {"status": "ok", "total_latency_s": 0.5}
    assert checker.check_row("a", ok, "ilp")
    assert not checker.check_row("a", dict(ok, total_latency_s=0.5000000001), "ilp")
    assert checker.check_row("a", dict(ok, total_latency_s=0.4), "list")
    assert not checker.check_row("a", dict(ok, total_latency_s=0.6), "list")
    paper = dict(ok, total_latency_s=0.3, partitions=3, k=2048, block_delay_ns=8440.0)
    assert checker.check_row("jpeg_dct", paper, "ilp")
    assert not checker.check_row("jpeg_dct", dict(paper, k=1024), "ilp")


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    totals = tracer.totals([(float("-inf"), float("inf"))])
    (_, _, inner_start, inner_end, _, inner_parent, _, _) = tracer.spans[0]
    (outer_id, _, outer_start, outer_end, outer_self, _, _, _) = tracer.spans[1]
    assert inner_parent == outer_id
    duration = (outer_end - outer_start) - (inner_end - inner_start)
    assert outer_self == pytest.approx(duration)
    assert totals["outer"][1] == totals["inner"][1] == 1


def test_trace_events_are_chrome_complete_events(tmp_path):
    tracer = spans.Tracer()
    tracer.set_op("design-1")
    wrapped = tracer.wrap(lambda x: x + 1, "layer.fn")
    assert wrapped(1) == 2
    path = tmp_path / "trace.json"
    spans.write_chrome_trace(str(path), tracer.trace_events(), {"seed": 1})
    event = json.loads(path.read_text())["traceEvents"][0]
    assert event["ph"] == "X" and event["name"] == "layer.fn"
    assert event["args"]["op"] == "design-1" and event["dur"] >= 0


def test_every_timed_layer_is_a_wrapped_span():
    spans_wrapped = {span for span, _, _ in layers.TARGETS} | {"explore.propose"}
    assert set(layers.TIMED_LAYERS) <= spans_wrapped


def test_speed_factor_uses_the_probes_inside_the_interval():
    sampler = speed.SpeedSampler.__new__(speed.SpeedSampler)
    sampler.times = [float(t) for t in range(20)]
    sampler.probes = [speed.REFERENCE_PROBE_S] * 10 + [2 * speed.REFERENCE_PROBE_S] * 10
    assert sampler.factor(0.0, 8.0) == pytest.approx(1.0)
    assert sampler.factor(11.0, 19.0) == pytest.approx(0.5)
    assert speed.normalise([sampler], 12.0, 13.0) == pytest.approx(0.5)


def test_drag_compares_the_two_halves_of_each_probe():
    sampler = speed.SpeedSampler.__new__(speed.SpeedSampler)
    sampler.times = [0.0, 1.0, 2.0]
    half = speed.REFERENCE_PROBE_S / 2
    warmup = half * speed.WARMUP_ITERATIONS / (speed.PROBE_ITERATIONS / 2)
    sampler.parts = [(warmup, half, half), (warmup, 1.1 * half, half), (2 * warmup, half, half)]
    assert speed.workload_drag([sampler], [(0.0, 0.5)]) == pytest.approx(0.0)
    assert speed.workload_drag([sampler], [(0.5, 1.5)]) == pytest.approx(0.1)
    assert speed.cold_penalty([sampler], [(1.5, 2.5)]) == pytest.approx(warmup / (2 * half))


def test_describe_prints_workloads_and_layer_map():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--describe"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert str(scenarios.HELD_OUT_SEED) in done.stdout
    for name in list(scenarios.WHY) + list(layers.LAYER_METRICS):
        assert name in done.stdout
