"""Analyses over operation-level data-flow graphs.

These helpers answer the questions the HLS estimator and the software-cost
model ask about a DFG: how many operations of each kind, how long is the
critical path, how many functional units could usefully run in parallel, and
how many input/output values cross the task boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .graph import DataFlowGraph
from .operations import OpKind


@dataclass(frozen=True)
class DfgProfile:
    """Summary statistics of a data-flow graph."""

    name: str
    operation_count: int
    compute_operation_count: int
    input_count: int
    output_count: int
    constant_count: int
    critical_path_operations: int
    max_parallelism: int
    kind_histogram: Dict[str, int]

    @property
    def average_parallelism(self) -> float:
        """Compute operations divided by critical-path length."""
        if self.critical_path_operations == 0:
            return 0.0
        return self.compute_operation_count / self.critical_path_operations


def asap_levels(dfg: DataFlowGraph) -> Dict[str, int]:
    """ASAP level of each operation (zero-cost nodes do not advance levels).

    The level of an operation is the earliest "time step" it could execute in
    an unconstrained schedule where every compute operation takes one step.
    """
    levels: Dict[str, int] = {}
    for name in dfg.topological_order():
        op = dfg.operation(name)
        pred_levels = [levels[p] for p in dfg.predecessors(name)]
        base = max(pred_levels, default=0)
        levels[name] = base if op.is_zero_cost else base + 1
    return levels


def max_parallelism(dfg: DataFlowGraph) -> int:
    """Maximum number of compute operations sharing an ASAP level."""
    levels = asap_levels(dfg)
    histogram: Dict[int, int] = {}
    for name, level in levels.items():
        if dfg.operation(name).is_zero_cost:
            continue
        histogram[level] = histogram.get(level, 0) + 1
    return max(histogram.values(), default=0)


def profile(dfg: DataFlowGraph) -> DfgProfile:
    """Compute a :class:`DfgProfile` for *dfg*."""
    histogram = {kind.value: count for kind, count in dfg.operation_counts().items()}
    return DfgProfile(
        name=dfg.name,
        operation_count=len(dfg),
        compute_operation_count=len(dfg.compute_operations()),
        input_count=len(dfg.inputs()),
        output_count=len(dfg.outputs()),
        constant_count=len(dfg.constants()),
        critical_path_operations=dfg.longest_path_length(),
        max_parallelism=max_parallelism(dfg),
        kind_histogram=histogram,
    )


def io_words(dfg: DataFlowGraph) -> Dict[str, int]:
    """Number of input and output data words the task exchanges per execution.

    Constants are excluded: they are baked into the datapath and never cross
    the task boundary.  This is the per-execution data volume that the task
    graph's environment edges ``B(env, t)`` / ``B(t, env)`` and inter-task
    edges are derived from.
    """
    return {"inputs": len(dfg.inputs()), "outputs": len(dfg.outputs())}


def software_operation_count(dfg: DataFlowGraph, weights: Dict[OpKind, float] = None) -> float:
    """Weighted operation count used to estimate a software implementation.

    Multiplications are weighted more heavily than additions by default,
    reflecting a mid-1990s host without a fully pipelined multiplier.
    """
    default_weights = {
        OpKind.MUL: 4.0,
        OpKind.MAC: 5.0,
        OpKind.MEMORY_READ: 1.0,
        OpKind.MEMORY_WRITE: 1.0,
    }
    if weights:
        default_weights.update(weights)
    total = 0.0
    for op in dfg.compute_operations():
        total += default_weights.get(op.kind, 1.0)
    return total
