"""Functional-unit allocation and operation binding.

Allocation decides how many instances of each functional-unit class a task
datapath gets; binding assigns every operation to a specific instance.  The
estimator explores a small set of allocation candidates (resource-minimal up
to parallelism-limited) and keeps the cheapest one that meets the optional
latency target — a simplified but faithful stand-in for DSS's design-space
exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..dfg.analysis import max_parallelism
from ..dfg.graph import DataFlowGraph
from ..errors import AllocationError
from .component import Component, functional_unit_class
from .library import ComponentLibrary
from .scheduling import Schedule


@dataclass
class Allocation:
    """Number of instances and the widest component per functional-unit class."""

    instances: Dict[str, int] = field(default_factory=dict)
    components: Dict[str, Component] = field(default_factory=dict)

    def total_functional_area(self) -> int:
        """CLBs occupied by all allocated functional-unit instances."""
        return sum(
            self.components[unit_class].area_clbs * count
            for unit_class, count in self.instances.items()
        )

    def slowest_component_delay(self) -> float:
        """Largest combinational delay among allocated components (seconds)."""
        return max((c.delay for c in self.components.values()), default=0.0)

    def unit_limits(self) -> Dict[str, int]:
        """Instance counts in the shape the list scheduler expects."""
        return dict(self.instances)


def required_unit_classes(dfg: DataFlowGraph) -> Dict[str, int]:
    """Operation count per functional-unit class for *dfg*."""
    counts: Dict[str, int] = {}
    for op in dfg.compute_operations():
        unit_class = functional_unit_class(op.kind)
        counts[unit_class] = counts.get(unit_class, 0) + 1
    return counts


def component_width(dfg: DataFlowGraph, operation_name: str) -> int:
    """Characterisation width of the component executing *operation_name*.

    Multipliers and MACs are characterised by their widest *operand* (a 9x9
    multiplier producing a 17-bit product is still a 9-bit multiplier, which
    is how the paper counts them); other units are characterised by their
    result width.
    """
    op = dfg.operation(operation_name)
    from ..dfg.operations import OpKind

    if op.kind in (OpKind.MUL, OpKind.MAC):
        input_widths = [dfg.operation(p).width for p in dfg.predecessors(operation_name)]
        if input_widths:
            return max(input_widths)
    return op.width


def widest_component_per_class(
    dfg: DataFlowGraph, library: ComponentLibrary
) -> Dict[str, Component]:
    """For each needed unit class, the component sized for the widest operation.

    Sharing a unit between operations of different widths requires the unit to
    be as wide as the widest operation bound to it, which is the conservative
    sizing DSS-style estimators use.
    """
    widest: Dict[str, int] = {}
    sample_kind: Dict[str, object] = {}
    for op in dfg.compute_operations():
        unit_class = functional_unit_class(op.kind)
        width = component_width(dfg, op.name)
        if width > widest.get(unit_class, 0):
            widest[unit_class] = width
            sample_kind[unit_class] = op.kind
    return {
        unit_class: library.component_for(sample_kind[unit_class], width)
        for unit_class, width in widest.items()
    }


def minimal_allocation(dfg: DataFlowGraph, library: ComponentLibrary) -> Allocation:
    """One instance of each needed functional-unit class (cheapest datapath)."""
    components = widest_component_per_class(dfg, library)
    if not components:
        raise AllocationError(
            f"DFG {dfg.name!r} has no compute operations to allocate units for"
        )
    return Allocation(
        instances={unit_class: 1 for unit_class in components},
        components=components,
    )


def parallelism_limited_allocation(
    dfg: DataFlowGraph, library: ComponentLibrary
) -> Allocation:
    """As many instances per class as the DFG can ever use simultaneously."""
    components = widest_component_per_class(dfg, library)
    if not components:
        raise AllocationError(
            f"DFG {dfg.name!r} has no compute operations to allocate units for"
        )
    ceiling = max(1, max_parallelism(dfg))
    needed = required_unit_classes(dfg)
    return Allocation(
        instances={
            unit_class: min(ceiling, needed[unit_class]) for unit_class in components
        },
        components=components,
    )


def allocation_candidates(
    dfg: DataFlowGraph, library: ComponentLibrary, max_candidates: int = 4
) -> List[Allocation]:
    """A small ladder of allocations between minimal and parallelism-limited.

    Intermediate rungs scale every class's instance count proportionally; the
    estimator walks the ladder and keeps the best area/latency point for the
    requested objective.
    """
    minimal = minimal_allocation(dfg, library)
    maximal = parallelism_limited_allocation(dfg, library)
    if max_candidates < 2 or minimal.instances == maximal.instances:
        return [minimal] if minimal.instances == maximal.instances else [minimal, maximal]
    candidates = [minimal]
    steps = max_candidates - 1
    for step in range(1, steps + 1):
        fraction = step / steps
        instances = {}
        for unit_class in minimal.instances:
            low = minimal.instances[unit_class]
            high = maximal.instances[unit_class]
            instances[unit_class] = round(low + (high - low) * fraction)
        candidate = Allocation(instances=instances, components=dict(minimal.components))
        if candidate.instances != candidates[-1].instances:
            candidates.append(candidate)
    return candidates


@dataclass
class Binding:
    """Assignment of operations to functional-unit instances."""

    assignments: Dict[str, str] = field(default_factory=dict)


def bind_schedule(schedule: Schedule, dfg: DataFlowGraph) -> Binding:
    """Derive the operation-to-instance binding implied by a list schedule.

    The list scheduler already records which instance index executed each
    operation; the binding simply re-labels those indices per class.  Zero-cost
    operations are not bound.
    """
    binding = Binding()
    for name, placed in schedule.operations.items():
        if dfg.operation(name).is_zero_cost:
            continue
        binding.assignments[name] = f"{placed.unit_class}#{placed.instance}"
    return binding


def steering_inputs(binding: Binding, dfg: DataFlowGraph) -> Dict[str, int]:
    """Number of distinct sources feeding each functional-unit instance.

    Used by the estimator to size input multiplexers: an instance fed from
    ``k`` distinct producers needs a ``k``-to-1 mux per operand port.
    """
    sources: Dict[str, set] = {}
    for name, label in binding.assignments.items():
        producer_set = sources.setdefault(label, set())
        for producer in dfg.predecessors(name):
            producer_set.add(producer)
    return {label: len(producers) for label, producers in sources.items()}
