"""The end-to-end design flow of Figure 2.

``behaviour spec -> task estimation -> temporal partitioning -> loop fission ->
memory mapping -> controller/RTL synthesis -> host code``

:class:`DesignFlow` wires the library's pieces together with one call.  Every
stage is one of the pure, versioned transforms of :mod:`repro.synth.stages`,
exposed as its own method (:meth:`~DesignFlow.estimate`,
:meth:`~DesignFlow.partition`, :meth:`~DesignFlow.map_memory`,
:meth:`~DesignFlow.analyse`, :meth:`~DesignFlow.timing`,
:meth:`~DesignFlow.generate_rtl`, :meth:`~DesignFlow.assemble`) so drivers
that want per-stage control — most importantly the batched
:class:`~repro.synth.flow_engine.FlowEngine`, which runs the same transforms
through the content-addressed stage pipeline and the caching/parallel
partition engine — run exactly the same code as the one-call
:meth:`~DesignFlow.build` experience the SPARCS environment offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..arch.board import RtrSystem
from ..errors import SynthesisError
from ..fission.sequencer import generate_host_code
from ..fission.strategies import SequencingStrategy
from ..hls.allocation import minimal_allocation
from ..hls.controller import controller_for_schedule
from ..hls.datapath import build_datapath
from ..hls.estimator import TaskEstimator, merge_dfgs
from ..hls.library import library_for_family
from ..hls.rtl import RtlDesign
from ..memmap.mapper import build_memory_map
from ..partition.registry import SolverSpec, check_partitioner, make_partitioner
from ..partition.result import TemporalPartitioning
from ..partition.spec import PartitionProblem
from ..partition.validate import assert_valid
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

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def estimate(self, graph: TaskGraph) -> TaskGraph:
        """Task-estimation stage: fill in missing ``R(t)``/``D(t)`` values.

        Fully-estimated graphs pass through untouched; otherwise estimation
        runs on a copy (the caller's graph is never mutated).
        """
        return stages.run_estimate(graph, self.system, self.options)

    def partition(self, graph: TaskGraph) -> TemporalPartitioning:
        """Temporal-partitioning stage (ILP or a heuristic baseline)."""
        problem = PartitionProblem.from_system(graph, self.system)
        result = make_partitioner(self.options.solver_spec()).partition(problem)
        assert_valid(problem, result)
        return result

    def map_memory(self, partitioning: TemporalPartitioning):
        """Memory-mapping stage: lay inter-partition data out in board memory."""
        return stages.run_memory_map(partitioning, self.options)

    def analyse(self, partitioning: TemporalPartitioning, memory_map):
        """Loop-fission stage: derive ``k`` and the limiting partition."""
        return stages.run_fission(partitioning, memory_map, self.system, self.options)

    def timing(self, partitioning: TemporalPartitioning, fission, memory_map):
        """Timing stage: the RTR timing spec the analytic models consume."""
        return stages.run_timing(partitioning, fission, memory_map)

    def stage_plan(self, graph: TaskGraph) -> stages.StagePlan:
        """The DAG of content-addressed stage keys this flow would execute.

        The plan is what the batched :class:`~repro.synth.flow_engine.FlowEngine`
        caches by; exposing it here lets callers inspect key derivation (and
        equality across jobs) without running anything.
        """
        return stages.build_stage_plan(graph, self.system, self.options)

    def assemble(
        self,
        graph: TaskGraph,
        partitioning: TemporalPartitioning,
        name: Optional[str] = None,
        memory_map=None,
        fission=None,
        timing=None,
        configurations: Optional[List[RtlDesign]] = None,
    ) -> RtrDesign:
        """Run every post-partitioning stage and return the :class:`RtrDesign`.

        *graph* must be the estimated graph the partitioning was produced
        from.  Splitting this from :meth:`build` lets batch drivers obtain
        the partitioning elsewhere (e.g. from the partition engine's cache)
        and still finish the flow through the exact same code path.  Stage
        artefacts already computed (memory map, fission analysis, timing
        spec, RTL configurations) can be passed in so drivers that time the
        stages individually do not pay for them twice.
        """
        if memory_map is None:
            memory_map = self.map_memory(partitioning)
        if fission is None:
            fission = self.analyse(partitioning, memory_map)
        if timing is None:
            timing = self.timing(partitioning, fission, memory_map)
        if configurations is None:
            configurations = []
            if self.options.generate_rtl:
                configurations = self.generate_rtl(graph, partitioning, fission)
        design = RtrDesign(
            name=name or f"{graph.name}-rtr",
            system=self.system,
            partitioning=partitioning,
            memory_map=memory_map,
            fission=fission,
            timing_spec=timing,
            configurations=configurations,
        )
        for strategy in (SequencingStrategy.FDH, SequencingStrategy.IDH):
            design.host_code[strategy.value] = generate_host_code(
                design.sequencer_plan(strategy)
            )
        return design

    def build(self, graph: TaskGraph, name: Optional[str] = None) -> RtrDesign:
        """Run every stage and return the finished :class:`RtrDesign`."""
        graph = self.estimate(graph)
        partitioning = self.partition(graph)
        return self.assemble(graph, partitioning, name=name)

    # ------------------------------------------------------------------
    # RTL generation per temporal partition
    # ------------------------------------------------------------------

    def generate_rtl(
        self,
        graph: TaskGraph,
        partitioning: TemporalPartitioning,
        fission,
    ) -> List[RtlDesign]:
        library = library_for_family(self.system.fpga.family)
        memory_map = build_memory_map(partitioning)
        configurations: List[RtlDesign] = []
        for index in range(1, partitioning.partition_count + 1):
            members = partitioning.tasks_in_partition(index)
            dfgs = []
            for task_name in members:
                task = graph.task(task_name)
                if task.dfg is None:
                    raise SynthesisError(
                        f"task {task_name!r} has no DFG; RTL generation needs the "
                        "operation-level behaviour (or disable generate_rtl)"
                    )
                dfgs.append(task.dfg)
            merged = merge_dfgs(dfgs, name=f"{graph.name}-p{index}")
            estimator = TaskEstimator(
                self.system.fpga, max_clock_period=self.options.max_clock_period
            )
            estimate = estimator.estimate_dfg(merged)
            allocation = estimate.allocation or minimal_allocation(merged, library)
            controller = controller_for_schedule(
                name=f"{graph.name}-p{index}",
                schedule_cycles=estimate.cycles,
                iteration_bound=max(1, fission.computations_per_run),
                counter_width=max(16, fission.computations_per_run.bit_length() + 1),
            )
            datapath = build_datapath(
                name=f"{graph.name}-p{index}",
                dfg=merged,
                allocation=allocation,
                schedule=estimate.schedule,
                library=library,
                needs_memory_port=True,
                memory_port_width=self.system.board.memory.word_bits,
            )
            configurations.append(
                RtlDesign(
                    name=f"{graph.name}-config{index}",
                    datapath=datapath,
                    controller=controller,
                    clock_period=estimate.clock_period,
                    estimated_clbs=estimate.clbs,
                    memory_layout=dict(memory_map.block(index).offsets),
                )
            )
        return configurations
