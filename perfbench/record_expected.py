"""Regenerate ``expected.json``: every design's ``total_latency_s``.

Usage (from the repository root)::

    python3 perfbench/record_expected.py

Runs every design any workload can produce (whatever the seed) cold and
in-process, checks each with the independent constraint checker and the
paper case-study spec, and records ``canonical_metric(total_latency)``
per design label.  Re-record only when a change is *meant* to alter
designs; the benchmark compares later runs against these values.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import expected  # noqa: E402
import scenarios  # noqa: E402


def _record(label: str, report) -> float:
    """The report's latency, after the paper-spec and validity checks."""
    latency = report.row()["total_latency_s"]
    checker = expected.Checker({label: latency})
    if not checker.check_report(label, report):
        raise SystemExit("\n".join(checker.problems))
    return latency


def record_flows(jobs) -> dict:
    from repro.synth.flow_engine import FlowEngine

    return {
        label: _record(label, FlowEngine(workers=0).run_batch([job])[0])
        for label, job in jobs
    }


def record_explore() -> dict:
    from repro.explore.engine import ExploreConfig, Explorer

    space = scenarios.explore_space()
    with tempfile.TemporaryDirectory() as tmp:
        engine = scenarios.capturing_engine(None, tmp)
        config = ExploreConfig(strategy="grid", budget=space.size)
        Explorer(space, config=config, flow_engine=engine).run()
    return {report.job.tag: _record(report.job.tag, report) for report in engine.reports}


def record_serve() -> dict:
    from repro.serve import JobSpec, build_flow_job
    from repro.synth.flow_engine import FlowEngine

    engine = FlowEngine(workers=0)
    recorded = {}
    for spec in scenarios.serve_specs():
        label = scenarios.request_label(spec)
        report = engine.run_batch([build_flow_job(JobSpec(**spec))])[0]
        recorded[label] = _record(label, report)
    return recorded


def main() -> int:
    recorded = {
        "flow_exact": record_flows(scenarios.flow_exact_jobs()),
        "huge_graph": record_flows(scenarios.HugeGraph().generate(0)),
        "explore_sweep": record_explore(),
        "serve_mixed": record_serve(),
    }
    with expected.EXPECTED_PATH.open("w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, designs in recorded.items():
        print(f"{workload}: {len(designs)} designs recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
