"""Engine-backed ILP sweeps over the case-study instance.

Unlike the Table-1/Table-2 sweeps — which vary only the *analytic* timing
model — these re-solve the temporal-partitioning ILP itself as the target
parameters change: a slower device (larger ``CT``) tilts the objective
``N*CT + sum_p d_p`` towards fewer partitions, and a larger device changes
the resource lower bound.  The :class:`~repro.runtime.engine.PartitionEngine`
does the heavy lifting (batching, caching, worker fan-out), so re-running a
sweep is nearly free once warm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..arch.catalog import paper_case_study_system
from ..jpeg.taskgraph_builder import build_dct_task_graph
from ..runtime.engine import PartitionEngine, ct_sweep_jobs, shared_engine


def partitioning_ct_sweep(
    ct_values: Sequence[float],
    engine: Optional[PartitionEngine] = None,
) -> List[Dict[str, object]]:
    """Optimal DCT partitionings as the reconfiguration time varies.

    Returns one row per ``CT`` value (seconds) with the optimal partition
    count, total latency and cache provenance; the whole sweep is submitted
    to the engine as a single batch.
    """
    engine = engine or shared_engine()
    graph = build_dct_task_graph()
    system = paper_case_study_system()
    jobs = ct_sweep_jobs(engine, graph, system, ct_values)
    batch = engine.solve_batch(jobs)
    rows: List[Dict[str, object]] = []
    for ct, report in zip(ct_values, batch):
        row: Dict[str, object] = {
            "ct_ms": ct * 1e3,
            "status": report.outcome.status.value,
            "source": report.source.value,
        }
        if report.ok:
            row.update(
                {
                    "partitions": report.outcome.partition_count,
                    "total_latency_s": report.outcome.total_latency,
                    "compute_latency_ns": report.outcome.computation_latency * 1e9,
                }
            )
        else:
            row["error"] = report.outcome.error
        rows.append(row)
    return rows
