"""The end-to-end design flow of Figure 2.

``behaviour spec -> task estimation -> temporal partitioning -> loop fission ->
memory mapping -> controller/RTL synthesis -> host code``

:class:`DesignFlow` is the one-call form of the flow, as the SPARCS
environment offered it: :meth:`~DesignFlow.build` runs one job through a
fresh, in-memory :class:`~repro.synth.flow_engine.FlowEngine` (so no cache or
solve memo outlives the call), and :meth:`~DesignFlow.estimate` runs the
estimation stage alone.  The stages themselves are the pure, versioned
transforms of :mod:`repro.synth.stages`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..arch.board import RtrSystem
from ..errors import SynthesisError
from ..partition.registry import SolverSpec, check_partitioner
from ..taskgraph.graph import TaskGraph
from ..units import ns
from . import stages
from .rtr_design import RtrDesign


@dataclass
class FlowOptions:
    """Options controlling the end-to-end flow."""

    partitioner: str = "ilp"
    #: Seed for the stochastic partitioners ("anneal", and the anneal arm of
    #: "portfolio"); the deterministic partitioners ignore it.
    partitioner_seed: int = 0
    max_clock_period: float = ns(100)
    round_memory_blocks: bool = False
    generate_rtl: bool = False
    estimate_missing_costs: bool = True

    def __post_init__(self) -> None:
        check_partitioner(self.partitioner, SynthesisError)
        if self.max_clock_period <= 0:
            raise SynthesisError("max_clock_period must be positive")

    def solver_spec(self, explore_extra_partitions: int = 0) -> SolverSpec:
        """The partitioner configuration these options select."""
        return SolverSpec(
            partitioner=self.partitioner,
            explore_extra_partitions=explore_extra_partitions,
            seed=self.partitioner_seed,
        )


class DesignFlow:
    """Runs the Figure-2 flow on a task graph and an RTR system."""

    def __init__(self, system: RtrSystem, options: Optional[FlowOptions] = None) -> None:
        self.system = system
        self.options = options or FlowOptions()

    def estimate(self, graph: TaskGraph) -> TaskGraph:
        """Task-estimation stage: fill in missing ``R(t)``/``D(t)`` values.

        Fully-estimated graphs pass through untouched; otherwise estimation
        runs on a copy (the caller's graph is never mutated).
        """
        return stages.run_estimate(graph, self.system, self.options)

    def build(self, graph: TaskGraph) -> RtrDesign:
        """Run every stage and return the finished :class:`RtrDesign`.

        One job through a fresh in-memory
        :class:`~repro.synth.flow_engine.FlowEngine`; a failed stage raises
        :class:`~repro.errors.SynthesisError` naming it and its error kind.
        """
        # Imported here: flow_engine imports FlowOptions from this module.
        from .flow_engine import FlowEngine, FlowJob

        return FlowEngine(workers=0).run(FlowJob(graph, self.system, self.options))
