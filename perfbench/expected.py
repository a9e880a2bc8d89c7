"""Expected-output checks: every operation's result is checked before it counts.

Three checks, in order of strength:

* the paper case study (``jpeg_dct`` with the paper's costs) must give the
  published design: 3 partitions, k = 2048, 8440 ns block delay;
* every other design's ``total_latency_s`` (after ``canonical_metric``)
  is compared with ``expected.json``, recorded from this program by
  ``record_expected.py``: bit-for-bit for exact (ILP) solves, and
  "no worse than recorded" for heuristic partitioners (list, anneal,
  portfolio, multilevel);
* every design the benchmark holds in-process is re-checked by the
  independent constraint checker, ``repro.partition.validate``.

A design that fails any check counts as a failed operation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The DAC'99 case study's published design (hand-written, not recorded).
PAPER_SPEC = {"partitions": 3, "k": 2048, "block_delay_ns": 8440.0}
PAPER_LABEL = "jpeg_dct"

#: Partitioners whose result is the proven optimum (compared exactly).
EXACT_PARTITIONERS = ("ilp",)


def load_expected() -> Dict[str, Dict[str, float]]:
    """``{workload: {design label: total_latency_s}}`` from expected.json."""
    with EXPECTED_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Checks result rows and designs of one workload; collects the problems."""

    def __init__(self, expected: Dict[str, float]) -> None:
        self.expected = expected
        self.problems: List[str] = []

    def check_row(self, label: str, row: Dict[str, object], partitioner: str) -> bool:
        """Check one flow-report row (or ``/result`` body) against the record."""
        problems = []
        if row.get("status") != "ok":
            problems.append(f"status {row.get('status')!r}: {row.get('error')}")
        elif label == PAPER_LABEL:
            got = {key: row.get(key) for key in PAPER_SPEC}
            if got != PAPER_SPEC:
                problems.append(f"paper case study gave {got}, expected {PAPER_SPEC}")
        if not problems:
            recorded = self.expected.get(label)
            latency = row.get("total_latency_s")
            if recorded is None:
                problems.append("no recorded expected total_latency_s")
            elif partitioner in EXACT_PARTITIONERS and latency != recorded:
                problems.append(f"total_latency_s {latency!r} != recorded {recorded!r}")
            elif partitioner not in EXACT_PARTITIONERS and not latency <= recorded:
                problems.append(f"heuristic total_latency_s {latency!r} > recorded {recorded!r}")
        self.problems.extend(f"{label}: {problem}" for problem in problems)
        return not problems

    def check_report(self, label: str, report) -> bool:
        """Check one in-process :class:`FlowReport`: its row, then its design."""
        from repro.partition.spec import PartitionProblem
        from repro.partition.validate import validate_partitioning

        if not self.check_row(label, report.row(), report.job.options.partitioner):
            return False
        partitioning = report.design.partitioning
        problem = PartitionProblem.from_system(partitioning.graph, report.job.system)
        violations = validate_partitioning(problem, partitioning).violations
        self.problems.extend(f"{label}: invalid design: {v}" for v in violations)
        return not violations
