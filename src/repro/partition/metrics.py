"""Metrics and comparisons over temporal partitionings.

These are the quantities the evaluation section talks about: latency with and
without the reconfiguration overhead, per-partition device utilisation, the
memory pressure at each boundary, and head-to-head comparisons between the
ILP partitioner and the heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..arch.device import CLB, ResourceVector
from .result import TemporalPartitioning


@dataclass
class PartitioningMetrics:
    """Summary metrics of a single temporal partitioning."""

    method: str
    partition_count: int
    computation_latency: float
    total_latency: float
    reconfiguration_overhead: float
    partition_delays: List[float] = field(default_factory=list)
    partition_clbs: List[int] = field(default_factory=list)
    utilisations: List[float] = field(default_factory=list)
    boundary_words: List[int] = field(default_factory=list)
    max_boundary_words: int = 0

    @property
    def delay_imbalance(self) -> float:
        """Max partition delay divided by mean partition delay (1.0 = balanced)."""
        if not self.partition_delays:
            return 0.0
        mean = sum(self.partition_delays) / len(self.partition_delays)
        if mean == 0:
            return 0.0
        return max(self.partition_delays) / mean

    @property
    def mean_utilisation(self) -> float:
        """Mean CLB utilisation across partitions."""
        if not self.utilisations:
            return 0.0
        return sum(self.utilisations) / len(self.utilisations)


def compute_metrics(
    result: TemporalPartitioning, capacity: ResourceVector
) -> PartitioningMetrics:
    """Compute :class:`PartitioningMetrics` for *result* against *capacity*."""
    clb_capacity = max(1, capacity[CLB])
    partition_clbs = [info.clbs for info in result.partitions]
    utilisations = [clbs / clb_capacity for clbs in partition_clbs]
    boundaries = result.boundary_volumes()
    return PartitioningMetrics(
        method=result.method,
        partition_count=result.partition_count,
        computation_latency=result.computation_latency,
        total_latency=result.total_latency,
        reconfiguration_overhead=result.partition_count * result.reconfiguration_time,
        partition_delays=list(result.partition_delays),
        partition_clbs=partition_clbs,
        utilisations=utilisations,
        boundary_words=boundaries,
        max_boundary_words=max(boundaries, default=0),
    )


@dataclass
class PartitioningComparison:
    """Head-to-head comparison of two partitionings of the same task graph."""

    baseline_method: str
    candidate_method: str
    baseline_latency: float
    candidate_latency: float
    baseline_computation_latency: float
    candidate_computation_latency: float
    baseline_partitions: int
    candidate_partitions: int

    @property
    def computation_latency_improvement(self) -> float:
        """Fractional computation-latency improvement (reconfiguration excluded)."""
        if self.baseline_computation_latency == 0:
            return 0.0
        return (
            self.baseline_computation_latency - self.candidate_computation_latency
        ) / self.baseline_computation_latency

    @property
    def candidate_wins(self) -> bool:
        """Whether the candidate achieves strictly lower total latency."""
        return self.candidate_latency < self.baseline_latency


def compare_partitionings(
    baseline: TemporalPartitioning, candidate: TemporalPartitioning
) -> PartitioningComparison:
    """Compare *candidate* against *baseline* (same task graph expected)."""
    return PartitioningComparison(
        baseline_method=baseline.method,
        candidate_method=candidate.method,
        baseline_latency=baseline.total_latency,
        candidate_latency=candidate.total_latency,
        baseline_computation_latency=baseline.computation_latency,
        candidate_computation_latency=candidate.computation_latency,
        baseline_partitions=baseline.partition_count,
        candidate_partitions=candidate.partition_count,
    )


def partition_summary_rows(result: TemporalPartitioning) -> List[Dict[str, object]]:
    """Per-partition rows for tabular reports (used by examples and benches)."""
    rows: List[Dict[str, object]] = []
    for info in result.partitions:
        type_histogram: Dict[str, int] = {}
        for name in info.tasks:
            task_type = result.graph.task(name).task_type or "untyped"
            type_histogram[task_type] = type_histogram.get(task_type, 0) + 1
        rows.append(
            {
                "partition": info.index,
                "tasks": info.task_count,
                "task_types": dict(sorted(type_histogram.items())),
                "clbs": info.clbs,
                "delay_ns": info.delay * 1e9,
            }
        )
    return rows
