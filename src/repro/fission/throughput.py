"""Throughput analysis: static vs. RTR comparisons, breakeven, CT sweeps.

This module turns the per-strategy timing models of
:mod:`repro.fission.strategies` into the quantities the paper's evaluation
reports: improvement of the RTR design over the static design for a workload
size, the breakeven number of computations at which the reconfiguration
overhead is absorbed, and how the improvement changes as the reconfiguration
time varies (the XC6000 conjecture and the A3 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..arch.board import RtrSystem
from ..errors import FissionError
from ..memmap.mapper import MemoryMap, build_memory_map
from ..memmap.segments import SegmentKind
from ..partition.result import TemporalPartitioning
from ..units import ceil_div
from .analysis import FissionAnalysis
from .strategies import (
    RtrTimingSpec,
    SequencingStrategy,
    StaticTimingSpec,
    TimingBreakdown,
    execution_time,
    static_execution_time,
)


def rtr_timing_spec(
    partitioning: TemporalPartitioning,
    analysis: FissionAnalysis,
    memory_map: Optional[MemoryMap] = None,
) -> RtrTimingSpec:
    """Build the :class:`RtrTimingSpec` for a partitioned, fissioned design."""
    if memory_map is None:
        memory_map = build_memory_map(
            partitioning, round_to_power_of_two=analysis.rounded_blocks
        )
    env_in: List[int] = []
    env_out: List[int] = []
    cross_in: List[int] = []
    cross_out: List[int] = []
    for index in range(1, partitioning.partition_count + 1):
        block = memory_map.block(index)
        env_in.append(sum(s.words for s in block.segments_of_kind(SegmentKind.ENV_INPUT)))
        env_out.append(sum(s.words for s in block.segments_of_kind(SegmentKind.ENV_OUTPUT)))
        cross_in.append(sum(s.words for s in block.segments_of_kind(SegmentKind.CROSS_INPUT)))
        cross_out.append(sum(s.words for s in block.segments_of_kind(SegmentKind.CROSS_OUTPUT)))
    return RtrTimingSpec(
        partition_delays=list(partitioning.partition_delays),
        partition_env_input_words=env_in,
        partition_env_output_words=env_out,
        partition_cross_input_words=cross_in,
        partition_cross_output_words=cross_out,
        computations_per_run=analysis.computations_per_run,
    )


def static_timing_spec(
    block_delay: float,
    env_input_words: int,
    env_output_words: int,
    blocks_per_invocation: int = 1,
) -> StaticTimingSpec:
    """Convenience constructor for the static design's timing spec."""
    return StaticTimingSpec(
        block_delay=block_delay,
        env_input_words=env_input_words,
        env_output_words=env_output_words,
        blocks_per_invocation=blocks_per_invocation,
    )


@dataclass
class StrategyComparison:
    """Static vs. RTR comparison for one workload size and one strategy."""

    strategy: SequencingStrategy
    total_computations: int
    software_loop_count: int
    static: TimingBreakdown
    rtr: TimingBreakdown

    @property
    def improvement(self) -> float:
        """Fractional improvement of the RTR design over the static design.

        Positive when the RTR design is faster; negative when the static
        design wins (the situation the paper reports for FDH).
        """
        if self.static.total == 0:
            return 0.0
        return (self.static.total - self.rtr.total) / self.static.total

    @property
    def speedup(self) -> float:
        """Static time divided by RTR time."""
        if self.rtr.total == 0:
            return float("inf")
        return self.static.total / self.rtr.total

    @property
    def rtr_wins(self) -> bool:
        """Whether the RTR design beats the static design."""
        return self.rtr.total < self.static.total


def compare_static_vs_rtr(
    strategy: SequencingStrategy,
    static_spec: StaticTimingSpec,
    rtr_spec: RtrTimingSpec,
    total_computations: int,
    system: RtrSystem,
    include_transfers: bool = True,
) -> StrategyComparison:
    """Time both designs on the same workload and wrap the result."""
    static_time = static_execution_time(
        static_spec, total_computations, system, include_transfers
    )
    rtr_time = execution_time(
        strategy, rtr_spec, total_computations, system, include_transfers
    )
    runs = (
        ceil_div(total_computations, rtr_spec.computations_per_run)
        if total_computations
        else 0
    )
    return StrategyComparison(
        strategy=strategy,
        total_computations=total_computations,
        software_loop_count=runs,
        static=static_time,
        rtr=rtr_time,
    )


def sweep_workload_sizes(
    strategy: SequencingStrategy,
    static_spec: StaticTimingSpec,
    rtr_spec: RtrTimingSpec,
    workload_sizes: Sequence[int],
    system: RtrSystem,
    include_transfers: bool = True,
) -> List[StrategyComparison]:
    """Compare static and RTR across several workload sizes (a table's rows)."""
    return [
        compare_static_vs_rtr(
            strategy, static_spec, rtr_spec, size, system, include_transfers
        )
        for size in workload_sizes
    ]


def breakeven_computations(
    strategy: SequencingStrategy,
    static_spec: StaticTimingSpec,
    rtr_spec: RtrTimingSpec,
    system: RtrSystem,
    upper_bound: int = 1 << 34,
    include_transfers: bool = True,
) -> Optional[int]:
    """Smallest workload size for which the RTR design beats the static design.

    Returns ``None`` when no workload up to *upper_bound* ever breaks even
    (for example FDH with a 100 ms reconfiguration and a small memory — the
    situation of Table 1, where the per-batch reconfiguration cost grows as
    fast as the savings).
    """
    if upper_bound < 1:
        raise FissionError("upper_bound must be at least 1")

    def rtr_wins(size: int) -> bool:
        return compare_static_vs_rtr(
            strategy, static_spec, rtr_spec, size, system, include_transfers
        ).rtr_wins

    if not rtr_wins(upper_bound):
        return None
    low, high = 1, upper_bound
    while low < high:
        mid = (low + high) // 2
        if rtr_wins(mid):
            high = mid
        else:
            low = mid + 1
    return low


def reconfiguration_absorption_point(
    rtr_spec: RtrTimingSpec, system: RtrSystem
) -> int:
    """Computations per partition run at which execution time equals the
    per-run reconfiguration overhead (``N*CT``) — the quantity behind the
    paper's "roughly 42,553 blocks" remark."""
    per_block = rtr_spec.block_delay
    if per_block <= 0:
        raise FissionError("the RTR design has zero per-block delay")
    overhead = rtr_spec.partition_count * system.reconfiguration_time
    return ceil_div(int(overhead * 1e12), int(per_block * 1e12))


def reconfiguration_time_sweep(
    strategy: SequencingStrategy,
    static_spec: StaticTimingSpec,
    rtr_spec: RtrTimingSpec,
    total_computations: int,
    system: RtrSystem,
    reconfiguration_times: Sequence[float],
    include_transfers: bool = True,
) -> List[Dict[str, float]]:
    """Improvement of the RTR design as the reconfiguration time varies.

    Used for the XC6000 conjecture (CT = 500 us) and the A3 ablation that
    sweeps CT from the Time-Multiplexed-FPGA regime (ns) to the WildForce
    regime (100 ms).
    """
    rows: List[Dict[str, float]] = []
    for ct in reconfiguration_times:
        swept_system = system.with_reconfiguration_time(ct)
        comparison = compare_static_vs_rtr(
            strategy, static_spec, rtr_spec, total_computations, swept_system,
            include_transfers,
        )
        rows.append(
            {
                "reconfiguration_time": ct,
                "static_total": comparison.static.total,
                "rtr_total": comparison.rtr.total,
                "improvement": comparison.improvement,
            }
        )
    return rows
