"""The declarative stage transforms of the Figure-2 design flow.

Every stage of the flow — estimate, partition, memory map, fission, timing —
is expressed here as a *pure, versioned transform* with canonically hashed
inputs:

* the **transform** is a plain function from input artifacts to an output
  artifact; :class:`~repro.synth.flow_engine.FlowEngine` runs them (the
  one-call :meth:`~repro.synth.flow.DesignFlow.build` is a one-job engine
  run), and so can any driver that wants per-stage control;
* the **stage key** is a content digest of everything the transform can
  observe, chained Merkle-style through the stage DAG (the partition key
  hashes the estimate key, the memory-map key hashes the partition key, and
  so on), so a flow job reduces to a DAG of stage keys and two jobs that
  share a prefix of the DAG share the cached artifacts for that prefix;
* the **version tag** is baked into every digest; bumping a stage's entry in
  :data:`STAGE_VERSIONS` invalidates that stage's (and its dependents')
  cached entries without touching the rest of the cache.

The two uncached finishing steps, :func:`generate_rtl` and :func:`assemble`,
live here too.

Reconfiguration time is the interesting axis: ``CT`` enters the ILP
objective only as the constant ``N * CT`` per fixed bound, and the default
relax-N loop stops at the first feasible bound, so the solved *assignment*
is provably independent of ``CT`` (the constant never reaches the solver —
it is carried in ``objective_constant`` outside the matrices).  The
heuristic partitioners never read ``CT`` at all.  For such *CT-invariant*
solver configurations the partition stage therefore solves a CT-normalised
problem (``CT = 0``) and re-attaches the job's true ``CT`` on rehydration —
which is what lets a CT-only explore neighbour reuse the cached estimate
*and* partition artifacts and re-run nothing but the cheap downstream
stages.  Rehydration re-tags the validated partitioning an in-process
solve handed over and rebuilds every other one (a cache hit, a batch-dedup
copy, a pool result) from its outcome; see :func:`rehydrate_partitioning`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..arch.board import RtrSystem
from ..arch.device import ResourceVector
from ..errors import SynthesisError
from ..fission.analysis import FissionAnalysis, analyse_fission
from ..fission.strategies import RtrTimingSpec, SequencingStrategy
from ..fission.throughput import rtr_timing_spec
from ..hls.allocation import minimal_allocation
from ..hls.controller import controller_for_schedule
from ..hls.datapath import build_datapath
from ..hls.estimator import TaskEstimator, merge_dfgs
from ..hls.library import library_for_family
from ..hls.rtl import RtlDesign
from ..memmap.mapper import MemoryMap, build_memory_map
from ..partition.registry import ct_invariant_solver
from ..partition.result import TemporalPartitioning
from ..partition.spec import PartitionProblem
from ..runtime.cache import PARTITION_STAGE, PARTITION_VERSION
from ..runtime.canonical import (
    canonical_device_dict,
    canonical_fingerprint,
    canonical_graph_text,
    text_digest,
)
from ..runtime.jobs import JobOutcome
from ..taskgraph.graph import TaskGraph
from ..taskgraph.task import TaskCost
from .rtr_design import RtrDesign

#: Stage names, in flow order (the values of
#: :class:`~repro.synth.flow_engine.FlowStage` for the cached stages).
ESTIMATE = "estimate"
PARTITION = PARTITION_STAGE
MEMORY_MAP = "memory-map"
FISSION = "fission"
TIMING = "timing"

#: The cached pipeline stages in dependency order.
PIPELINE_STAGES: Tuple[str, ...] = (ESTIMATE, PARTITION, MEMORY_MAP, FISSION, TIMING)

#: Per-stage version tags.  A bump invalidates every cached entry of that
#: stage (and, through key chaining, of its downstream dependents) while
#: leaving the rest of the disk cache valid.
STAGE_VERSIONS: Dict[str, int] = {
    ESTIMATE: 1,
    # The stored partition outcomes carry the same tag (its history is at
    # repro.runtime.cache.PARTITION_VERSION).
    PARTITION: PARTITION_VERSION,
    MEMORY_MAP: 1,
    FISSION: 1,
    TIMING: 1,
}


@dataclass(frozen=True)
class StageKey:
    """Content address of one stage invocation: name, version tag, digest."""

    stage: str
    version: int
    digest: str
    parents: Tuple[str, ...] = ()

    @property
    def short(self) -> str:
        """Compact display form (``stage@v1:digest12``)."""
        return f"{self.stage}@v{self.version}:{self.digest[:12]}"


@dataclass(frozen=True)
class StagePlan:
    """The DAG of stage keys one flow job reduces to.

    Keys are chained: each stage's digest hashes its parents' digests plus
    its own direct inputs, so equality of a stage key implies equality of
    the whole upstream computation.
    """

    keys: Tuple[StageKey, ...]

    def key(self, stage: str) -> StageKey:
        """The :class:`StageKey` of *stage* (raising on unknown stages)."""
        for key in self.keys:
            if key.stage == stage:
                return key
        raise SynthesisError(f"stage {stage!r} is not part of this plan")

    def digest(self, stage: str) -> str:
        """The content digest of *stage*."""
        return self.key(stage).digest

    def describe(self) -> str:
        """One-line human readable summary of the key chain."""
        return " -> ".join(key.short for key in self.keys)


def _stage_digest(stage: str, version: int, payload: Dict[str, object]) -> str:
    return canonical_fingerprint(
        {"stage": stage, "version": version, "inputs": payload}
    )


# ---------------------------------------------------------------------------
# Stage keys
# ---------------------------------------------------------------------------

def graph_content_digest(graph: TaskGraph) -> str:
    """Content digest of a task graph: the sha256 of its canonical text
    (:func:`~repro.runtime.canonical.canonical_graph_text`).

    Canonicalising walks every task's DFG, so batch drivers that submit one
    graph object under many jobs (CT sweeps, explore neighbourhoods) pass
    the digest down through *graph_digest* rather than re-hashing per job.
    Any such memoisation must be scoped to a window in which the graph is
    provably not mutated — :meth:`FlowEngine.run_batch` memoises per batch
    (the engine never mutates a submitted graph; estimation works on a
    copy), never across caller turns, because no cheap salt can detect
    every in-place content mutation.
    """
    return text_digest(canonical_graph_text(graph))


def estimate_stage_key(
    graph: TaskGraph,
    system: RtrSystem,
    options,
    graph_digest: Optional[str] = None,
) -> StageKey:
    """Key of the estimation stage: graph content, device, clock constraint.

    *graph_digest* short-circuits the graph hashing when the caller already
    holds :func:`graph_content_digest` for this graph's current content.
    """
    version = STAGE_VERSIONS[ESTIMATE]
    digest = _stage_digest(
        ESTIMATE,
        version,
        {
            "graph": graph_digest or graph_content_digest(graph),
            "device": canonical_device_dict(system.fpga),
            "max_clock_period": float(options.max_clock_period),
            "estimate_missing_costs": bool(options.estimate_missing_costs),
        },
    )
    return StageKey(ESTIMATE, version, digest)


def partition_stage_key(
    estimate_key: StageKey,
    system: RtrSystem,
    options,
    explore_extra_partitions: int = 0,
) -> StageKey:
    """Key of the partition stage: estimate key, capacity, memory, solver.

    ``CT`` is part of the key only for CT-dependent solver configurations;
    CT-invariant configurations (the default) share one key across the whole
    reconfiguration-time axis.
    """
    version = STAGE_VERSIONS[PARTITION]
    invariant = ct_invariant_solver(options.partitioner, explore_extra_partitions)
    digest = _stage_digest(
        PARTITION,
        version,
        {
            "estimate": estimate_key.digest,
            "capacity": {
                kind: int(amount)
                for kind, amount in sorted(system.resource_capacity.as_dict().items())
            },
            "memory_words": int(system.memory_capacity_words),
            "solver": options.solver_spec(explore_extra_partitions).cache_key_fields(),
            "ct": None if invariant else float(system.reconfiguration_time),
        },
    )
    return StageKey(PARTITION, version, digest, parents=(ESTIMATE,))


def memory_map_stage_key(partition_key: StageKey, options) -> StageKey:
    """Key of the memory-map stage: partition key plus the rounding switch."""
    version = STAGE_VERSIONS[MEMORY_MAP]
    digest = _stage_digest(
        MEMORY_MAP,
        version,
        {
            "partition": partition_key.digest,
            "round_memory_blocks": bool(options.round_memory_blocks),
        },
    )
    return StageKey(MEMORY_MAP, version, digest, parents=(PARTITION,))


def fission_stage_key(memory_map_key: StageKey, system: RtrSystem) -> StageKey:
    """Key of the fission stage: memory-map key plus the memory capacity."""
    version = STAGE_VERSIONS[FISSION]
    digest = _stage_digest(
        FISSION,
        version,
        {
            "memory_map": memory_map_key.digest,
            "memory_words": int(system.memory_capacity_words),
        },
    )
    return StageKey(FISSION, version, digest, parents=(MEMORY_MAP,))


def timing_stage_key(fission_key: StageKey) -> StageKey:
    """Key of the timing stage (fully determined by the fission key)."""
    version = STAGE_VERSIONS[TIMING]
    digest = _stage_digest(TIMING, version, {"fission": fission_key.digest})
    return StageKey(TIMING, version, digest, parents=(FISSION,))


def build_stage_plan(
    graph: TaskGraph,
    system: RtrSystem,
    options,
    explore_extra_partitions: int = 0,
    graph_digest: Optional[str] = None,
) -> StagePlan:
    """The full DAG of stage keys for one (graph, system, options) flow job."""
    estimate = estimate_stage_key(graph, system, options, graph_digest=graph_digest)
    partition = partition_stage_key(
        estimate, system, options, explore_extra_partitions
    )
    memory_map = memory_map_stage_key(partition, options)
    fission = fission_stage_key(memory_map, system)
    timing = timing_stage_key(fission)
    return StagePlan(keys=(estimate, partition, memory_map, fission, timing))


# ---------------------------------------------------------------------------
# Estimate: transform + artifact codec
# ---------------------------------------------------------------------------

def run_estimate(graph: TaskGraph, system: RtrSystem, options) -> TaskGraph:
    """The estimation transform: fill in missing ``R(t)``/``D(t)`` values.

    Fully-estimated graphs pass through untouched; otherwise the estimation
    runs on a copy, so a graph shared by several jobs never inherits the
    first job's costs.
    """
    if graph.all_estimated():
        return graph
    if not options.estimate_missing_costs:
        raise SynthesisError(
            "the task graph has unestimated tasks and estimate_missing_costs "
            "is disabled"
        )
    estimator = TaskEstimator(
        system.fpga, max_clock_period=options.max_clock_period
    )
    return estimator.estimate_task_graph(graph.copy())


def estimate_artifact(graph: TaskGraph) -> Dict[str, object]:
    """The JSON-able artifact of an estimated graph: every task's cost.

    Floats are stored bit-exactly (``float.hex``) so a rehydrated cost is
    byte-identical to the freshly estimated one.
    """
    payload: Dict[str, object] = {}
    for name in graph.task_names():
        task = graph.task(name)
        cost = task.cost
        payload[name] = {
            "resources": {
                kind: int(amount)
                for kind, amount in sorted(cost.resources.as_dict().items())
            },
            "delay": float(cost.delay).hex(),
            "cycles": cost.cycles,
            "clock_period": (
                None if cost.clock_period is None else float(cost.clock_period).hex()
            ),
        }
    return payload


def apply_estimate_artifact(
    graph: TaskGraph, payload: Dict[str, object]
) -> TaskGraph:
    """Rehydrate an estimated graph from a cached estimate artifact.

    The costs are applied to a copy of *graph* (never mutating the caller's
    object), reproducing exactly what :func:`run_estimate` would have
    attached.
    """
    estimated = graph.copy()
    for name, entry in payload.items():
        if name not in estimated:
            raise SynthesisError(
                f"estimate artifact names unknown task {name!r}; the stage key "
                "should have prevented this"
            )
        estimated.set_cost(
            name,
            TaskCost(
                resources=ResourceVector(
                    {kind: int(amount) for kind, amount in entry["resources"].items()}
                ),
                delay=float.fromhex(entry["delay"]),
                cycles=entry["cycles"],
                clock_period=(
                    None
                    if entry["clock_period"] is None
                    else float.fromhex(entry["clock_period"])
                ),
            ),
        )
    return estimated


# ---------------------------------------------------------------------------
# Partition: problem normalisation + rehydration
# ---------------------------------------------------------------------------

def normalised_partition_problem(
    problem: PartitionProblem, explore_extra_partitions: int, partitioner: str
) -> PartitionProblem:
    """The problem actually submitted to the partition engine.

    For CT-invariant solver configurations the reconfiguration time is
    normalised to zero, so the engine's content-addressed caches collapse
    the whole CT axis onto a single solve; CT-dependent configurations keep
    the true problem.
    """
    if not ct_invariant_solver(partitioner, explore_extra_partitions):
        return problem
    if problem.reconfiguration_time == 0.0:
        return problem
    return replace(problem, reconfiguration_time=0.0)


def rehydrate_partitioning(
    problem: PartitionProblem,
    outcome: JobOutcome,
    solved_ct: float,
    solved: Optional[TemporalPartitioning] = None,
) -> TemporalPartitioning:
    """The job's true partitioning from a (possibly normalised) outcome.

    *problem* carries the job's true reconfiguration time; *solved_ct* is
    the reconfiguration time the outcome was solved under.  *solved* is
    the validated partitioning an in-process solve of this outcome
    produced (:attr:`~repro.runtime.jobs.JobReport.solved`): it is
    re-tagged with the job's CT and the outcome's method, backend,
    objective and solve time, which makes it equal, field by field, to
    the object rebuilt from the outcome.  Without one (a cache hit, a
    batch-dedup copy, a pool result) the partitioning is rebuilt from the
    assignment, its per-partition delays recomputed.  Either way the
    solver's objective value — whose only CT dependence is the additive
    constant ``N * CT`` — is shifted accordingly.

    The shift uses the *realised* partition count.  The solver's own
    objective charges ``N*CT`` for the relax-loop bound ``N``, which can
    exceed the realised count when an optimal solve leaves a partition
    empty (empty partitions are compressed away); in that rare case the
    rehydrated value is the meaningful total for the returned assignment
    (it matches :attr:`TemporalPartitioning.total_latency`) rather than the
    solver's bound-based number.  When *solved_ct* equals the job's CT the
    stored objective passes through bit-exactly.
    """
    from ..runtime.jobs import outcome_to_partitioning

    if solved is None:
        partitioning = outcome_to_partitioning(problem, outcome)
    else:
        partitioning = solved
        partitioning.reconfiguration_time = problem.reconfiguration_time
        partitioning.method = outcome.method
        partitioning.solver_backend = outcome.backend
        partitioning.objective_value = outcome.objective_value
        partitioning.solve_time = outcome.solve_time
    if (
        partitioning.objective_value is not None
        and solved_ct != problem.reconfiguration_time
    ):
        shift = partitioning.partition_count * (
            problem.reconfiguration_time - solved_ct
        )
        partitioning.objective_value = partitioning.objective_value + shift
    return partitioning


# ---------------------------------------------------------------------------
# Downstream transforms (memory map, fission, timing)
# ---------------------------------------------------------------------------

def run_memory_map(partitioning: TemporalPartitioning, options) -> MemoryMap:
    """The memory-mapping transform."""
    return build_memory_map(
        partitioning, round_to_power_of_two=options.round_memory_blocks
    )


def run_fission(
    partitioning: TemporalPartitioning,
    memory_map: MemoryMap,
    system: RtrSystem,
    options,
) -> FissionAnalysis:
    """The loop-fission transform (``k`` and the limiting partition)."""
    return analyse_fission(
        partitioning,
        system.memory_capacity_words,
        memory_map=memory_map,
        round_blocks_to_power_of_two=options.round_memory_blocks,
    )


def run_timing(
    partitioning: TemporalPartitioning,
    fission: FissionAnalysis,
    memory_map: MemoryMap,
):
    """The timing transform: the RTR timing spec the analytic models use."""
    return rtr_timing_spec(partitioning, fission, memory_map)


# ---------------------------------------------------------------------------
# Finish: RTL generation and assembly (never cached)
# ---------------------------------------------------------------------------

def generate_rtl(
    graph: TaskGraph,
    partitioning: TemporalPartitioning,
    memory_map: MemoryMap,
    fission: FissionAnalysis,
    system: RtrSystem,
    options,
) -> List[RtlDesign]:
    """One RTL configuration per temporal partition.

    *graph* is the estimated graph the partitioning was produced from; every
    task needs its DFG.  Each configuration's memory layout is its block's
    segment offsets in *memory_map* (rounding changes block sizes, never
    offsets).
    """
    library = library_for_family(system.fpga.family)
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
            system.fpga, max_clock_period=options.max_clock_period
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
            memory_port_width=system.board.memory.word_bits,
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


def assemble(
    name: str,
    system: RtrSystem,
    partitioning: TemporalPartitioning,
    memory_map: MemoryMap,
    fission: FissionAnalysis,
    timing: RtrTimingSpec,
    configurations: List[RtlDesign],
) -> RtrDesign:
    """The finished :class:`RtrDesign`, with its FDH and IDH host code."""
    design = RtrDesign(
        name=name,
        system=system,
        partitioning=partitioning,
        memory_map=memory_map,
        fission=fission,
        timing_spec=timing,
        configurations=configurations,
    )
    for strategy in (SequencingStrategy.FDH, SequencingStrategy.IDH):
        design.host_code_for(strategy)  # generated once, kept on the design
    return design
