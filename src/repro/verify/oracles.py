"""Cross-implementation oracles for differential verification.

An *oracle* inspects the artifacts two (or more) independent implementations
produced for one scenario and checks an invariant the paper's claims rest
on.  Seven oracles ship with the library:

==================== =======================================================
``ilp-not-worse``     the ILP partitioner's objective is never beaten by the
                      list scheduler on any instance both solve (skipped
                      when the scenario's primary partitioner is a
                      heuristic, e.g. multilevel on the huge family — no
                      optimality claim exists to check)
``feasibility``       the two partitioners agree on feasibility — the list
                      scheduler never solves an instance the exact ILP calls
                      infeasible, and a list-infeasible instance is
                      ILP-infeasible too; a *heuristic* primary dead-ending
                      on a list-feasible instance is documented
                      incompleteness, not a failure
``timing-model``      the timing stage's spec matches a recomputation from
                      the partitioning, and the analytic FDH/IDH models
                      match the independent RTR event simulator within
                      floating-point tolerance
``warm-vs-cold``      a cache-served (warm) flow is bit-identical to the
                      cold flow that populated the cache — same design, or
                      the same structured failure
``memory-legality``   the memory map is legal: no boundary overflows the
                      board memory, every cross-partition edge is mapped
                      exactly once on each side, segments never overlap, and
                      the chosen ``k`` fits the worst per-iteration block
``partition-valid``   every produced partitioning passes the shared
                      validator (precedence, resources, memory, contiguous
                      indices)
``kpaths-vs-enum``    the nonenumerative k-longest-paths analysis reports
                      delays bit-identical to brute-force path enumeration
                      (top-1 cross-checked against the critical-path DP when
                      the graph has too many paths to enumerate)
==================== =======================================================

Each oracle returns an :class:`OracleVerdict` — ``pass``, ``fail`` or
``skip`` (the invariant's precondition did not hold, e.g. both partitioners
found the instance infeasible) plus JSON-able counterexample evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fission.strategies import SequencingStrategy, execution_time
from ..memmap.mapper import boundary_words_from_map
from ..memmap.segments import SegmentKind
from ..partition.spec import PartitionProblem
from ..partition.validate import validate_partitioning
from ..runtime.canonical import canonical_fingerprint
from ..simulate import RtrExecutionSimulator
from ..synth.flow_engine import FlowReport
from ..synth.rtr_design import RtrDesign
from ..synth.stages import run_timing
from ..taskgraph.analysis import (
    count_root_to_leaf_paths,
    critical_path,
    path_delay,
    root_to_leaf_paths,
)
from ..taskgraph.kpaths import k_longest_path_delays
from .scenarios import Scenario

#: Relative/absolute tolerances for cross-implementation float comparisons
#: (the simulator accumulates many small event durations, the analytic model
#: multiplies once — anything beyond this is a modelling bug, not rounding).
REL_TOL = 1e-6
ABS_TOL = 1e-9

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class OracleVerdict:
    """The outcome of one oracle on one scenario."""

    oracle: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether the oracle found a violation."""
        return self.status == FAIL

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form (canonically ordered for byte-stable stores)."""
        return {
            "oracle": self.oracle,
            "status": self.status,
            "detail": self.detail,
            "data": {key: self.data[key] for key in sorted(self.data)},
        }


@dataclass
class ScenarioArtifacts:
    """Everything the oracle suite inspects for one scenario.

    ``ilp_report`` / ``list_report`` are the cold flow-engine reports of the
    two partitioner implementations; ``warm_ilp_report`` is the same ILP job
    re-run through a fresh engine against the cache the cold run populated.
    ``blocks`` is the workload size timing comparisons are evaluated at.
    """

    scenario: Scenario
    system: object  # RtrSystem
    graph: object  # TaskGraph (as submitted)
    ilp_report: FlowReport
    list_report: FlowReport
    warm_ilp_report: Optional[FlowReport] = None
    blocks: int = 257
    #: The partitioner behind ``ilp_report`` — ``"ilp"`` for the small
    #: families, ``"multilevel"`` for the huge scale family.  Oracles whose
    #: invariant only holds for an exact primary consult this.
    primary_partitioner: str = "ilp"

    @property
    def primary_is_exact(self) -> bool:
        """Whether the primary implementation makes an optimality claim."""
        return self.primary_partitioner == "ilp"


def design_fingerprint(design: Optional[RtrDesign]) -> str:
    """A content hash of everything a design's consumers can observe.

    Floats are hex-encoded, so two designs fingerprint equal iff they are
    bit-identical — the equality the warm-vs-cold oracle demands.
    """
    if design is None:
        return ""
    partitioning = design.partitioning
    memory_map = design.memory_map
    spec = design.timing_spec
    payload = {
        "assignment": dict(partitioning.assignment),
        "partition_count": partitioning.partition_count,
        "delays": [float(d).hex() for d in partitioning.partition_delays],
        "reconfiguration_time": float(partitioning.reconfiguration_time).hex(),
        "k": design.computations_per_run,
        "blocks": {
            str(index): {
                "offsets": {
                    name: int(offset)
                    for name, offset in sorted(
                        memory_map.block(index).offsets.items()
                    )
                },
                "allocated": memory_map.block(index).allocated_words,
            }
            for index in memory_map.partition_indices
        },
        "timing": {
            "delays": [float(d).hex() for d in spec.partition_delays],
            "env_in": list(spec.partition_env_input_words),
            "env_out": list(spec.partition_env_output_words),
            "cross_in": list(spec.partition_cross_input_words),
            "cross_out": list(spec.partition_cross_output_words),
            "k": spec.computations_per_run,
        },
    }
    return canonical_fingerprint(payload)


def _failure_signature(report: FlowReport) -> Dict[str, object]:
    return {
        "failed_stage": report.failed_stage,
        "error_kind": report.error_kind,
        "error": report.error,
    }


class Oracle:
    """Base class: a named invariant check over :class:`ScenarioArtifacts`."""

    name = "oracle"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        raise NotImplementedError

    def _verdict(self, status: str, detail: str = "", **data) -> OracleVerdict:
        return OracleVerdict(oracle=self.name, status=status, detail=detail, data=data)


class IlpNotWorseOracle(Oracle):
    """ILP objective <= list-scheduler objective on every instance both solve."""

    name = "ilp-not-worse"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        if not artifacts.primary_is_exact:
            return self._verdict(
                SKIP,
                f"primary partitioner {artifacts.primary_partitioner!r} is a "
                "heuristic; it makes no never-beaten optimality claim",
            )
        ilp, lst = artifacts.ilp_report, artifacts.list_report
        if not (ilp.ok and lst.ok):
            return self._verdict(SKIP, "both implementations must solve to compare")
        ilp_latency = ilp.design.partitioning.total_latency
        list_latency = lst.design.partitioning.total_latency
        if ilp_latency <= list_latency + max(ABS_TOL, REL_TOL * abs(list_latency)):
            return self._verdict(
                PASS,
                "ILP objective no worse than the list scheduler",
                ilp_latency=ilp_latency,
                list_latency=list_latency,
            )
        return self._verdict(
            FAIL,
            f"ILP latency {ilp_latency:.9g} s exceeds list latency "
            f"{list_latency:.9g} s — the optimal partitioner was beaten by "
            "the heuristic",
            ilp_latency=ilp_latency,
            list_latency=list_latency,
            ilp_assignment=dict(ilp.design.partitioning.assignment),
            list_assignment=dict(lst.design.partitioning.assignment),
        )


def infeasibility_certificate(graph, system) -> str:
    """A cheap *proof* that no partitioning of *graph* on *system* exists.

    Returns a human-readable certificate (empty string = no proof found).
    The only sound cheap certificate is a single task exceeding the device:
    aggregate memory/resource pressure can always in principle be resolved
    by a different assignment, so it proves nothing on its own.
    """
    capacity = system.resource_capacity
    for task in graph.tasks():
        if not task.resources.fits_within(capacity):
            return (
                f"task {task.name!r} needs {task.resources.as_dict()} which "
                f"exceeds the device capacity {capacity.as_dict()}"
            )
    return ""


class FeasibilityOracle(Oracle):
    """The partitioners agree on feasibility at the partition stage.

    Two sound directions are enforced:

    * **list-feasible => ILP-feasible** — the exact solver can never call an
      instance infeasible when the heuristic exhibits a solution;
    * **certified-infeasible => ILP-infeasible** — when the instance carries
      a cheap infeasibility proof (a task larger than the device), the ILP
      must not "solve" it.

    A list failure *without* a certificate on an instance the ILP solves is
    recorded as a pass with full evidence: the list scheduler's conservative
    memory admission (unplaced consumers are assumed to cross every later
    boundary) makes it deliberately incomplete, so such dead-ends are a
    documented property of the baseline, not a disagreement between correct
    implementations.  Symmetrically, when the scenario's *primary*
    partitioner is itself a heuristic (multilevel on the huge family), its
    dead-ends on list-feasible instances are recorded as passes with
    evidence — only an exact primary promises completeness.
    """

    name = "feasibility"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        ilp, lst = artifacts.ilp_report, artifacts.list_report
        ilp_infeasible = (not ilp.ok) and ilp.failed_stage == "partition"
        list_infeasible = (not lst.ok) and lst.failed_stage == "partition"
        if ilp.ok and lst.ok:
            return self._verdict(PASS, "both partitioners solved the instance")
        if ilp_infeasible and list_infeasible:
            return self._verdict(
                PASS,
                "both partitioners report the instance infeasible",
                ilp_error=ilp.error,
                list_error=lst.error,
            )
        if lst.ok and ilp_infeasible:
            if not artifacts.primary_is_exact:
                # A heuristic primary (multilevel on the huge family) is
                # incomplete by design: its coarsening can paint itself into
                # a corner the list scheduler happens to avoid.  Record the
                # dead-end with evidence; only an *exact* primary missing a
                # feasible instance is a soundness violation.
                return self._verdict(
                    PASS,
                    f"the heuristic primary ({artifacts.primary_partitioner}) "
                    "dead-ended on an instance the list scheduler solved",
                    primary_error=ilp.error,
                    list_partitions=lst.design.partition_count,
                )
            return self._verdict(
                FAIL,
                "the list scheduler found a feasible partitioning but the "
                "exact ILP reports the instance infeasible",
                ilp_error=ilp.error,
                list_assignment=dict(lst.design.partitioning.assignment),
            )
        if ilp.ok and list_infeasible:
            certificate = infeasibility_certificate(
                ilp.design.partitioning.graph, artifacts.system
            )
            if certificate:
                return self._verdict(
                    FAIL,
                    "the ILP claims to have solved a provably infeasible "
                    f"instance ({certificate}) that the list scheduler "
                    "correctly rejected",
                    certificate=certificate,
                    ilp_assignment=dict(ilp.design.partitioning.assignment),
                )
            return self._verdict(
                PASS,
                "list scheduler dead-ended on a feasible instance (its "
                "conservative memory admission is incomplete by design); "
                "the exact ILP solved it",
                list_error=lst.error,
                ilp_partitions=ilp.design.partition_count,
            )
        # One or both flows failed past the partition stage (e.g. fission on
        # a tight memory) — feasibility itself was not contradicted.
        return self._verdict(
            SKIP,
            "a flow failed outside the partition stage",
            ilp=_failure_signature(ilp),
            list=_failure_signature(lst),
        )


class TimingModelOracle(Oracle):
    """Timing stage == recomputation, and analytic models == event simulator."""

    name = "timing-model"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        report = artifacts.ilp_report
        if not report.ok:
            return self._verdict(SKIP, "no finished design to time")
        design = report.design
        recomputed = run_timing(design.partitioning, design.fission, design.memory_map)
        stored = design.timing_spec
        if recomputed != stored:
            return self._verdict(
                FAIL,
                "the design's timing spec differs from a recomputation from "
                "its own partitioning/fission/memory map",
                stored_delays=[float(d).hex() for d in stored.partition_delays],
                recomputed_delays=[
                    float(d).hex() for d in recomputed.partition_delays
                ],
                stored_k=stored.computations_per_run,
                recomputed_k=recomputed.computations_per_run,
            )
        simulator = RtrExecutionSimulator(artifacts.system, check_memory=False)
        comparisons: Dict[str, object] = {}
        for strategy in (SequencingStrategy.FDH, SequencingStrategy.IDH):
            analytic = execution_time(
                strategy, stored, artifacts.blocks, artifacts.system
            ).total
            simulated = simulator.simulate(stored, strategy, artifacts.blocks).total_time
            comparisons[strategy.value] = {
                "analytic_s": analytic,
                "simulated_s": simulated,
            }
            if not math.isclose(simulated, analytic, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return self._verdict(
                    FAIL,
                    f"{strategy.value.upper()} analytic latency {analytic:.12g} s "
                    f"disagrees with the event simulator's {simulated:.12g} s "
                    f"at {artifacts.blocks} computations",
                    strategy=strategy.value,
                    blocks=artifacts.blocks,
                    **comparisons,
                )
        return self._verdict(
            PASS,
            "timing stage matches the RTR event simulator for FDH and IDH",
            blocks=artifacts.blocks,
            **comparisons,
        )


class WarmColdOracle(Oracle):
    """A cache-served flow must be bit-identical to the cold flow."""

    name = "warm-vs-cold"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        cold, warm = artifacts.ilp_report, artifacts.warm_ilp_report
        if warm is None:
            return self._verdict(SKIP, "no warm re-run was performed")
        if cold.ok != warm.ok:
            return self._verdict(
                FAIL,
                "cold and warm flows disagree on success",
                cold=_failure_signature(cold),
                warm=_failure_signature(warm),
            )
        if not cold.ok:
            if _failure_signature(cold) == _failure_signature(warm):
                return self._verdict(
                    PASS,
                    "cold and warm flows fail identically",
                    failure=_failure_signature(cold),
                )
            return self._verdict(
                FAIL,
                "cold and warm flows fail differently",
                cold=_failure_signature(cold),
                warm=_failure_signature(warm),
            )
        cold_print = design_fingerprint(cold.design)
        warm_print = design_fingerprint(warm.design)
        if cold_print == warm_print:
            return self._verdict(
                PASS,
                "warm (cache-served) design is bit-identical to the cold one",
                fingerprint=cold_print,
            )
        return self._verdict(
            FAIL,
            "warm (cache-served) design differs from the cold one",
            cold_fingerprint=cold_print,
            warm_fingerprint=warm_print,
            cold_partitions=cold.design.partition_count,
            warm_partitions=warm.design.partition_count,
            cold_k=cold.design.computations_per_run,
            warm_k=warm.design.computations_per_run,
        )


class MemoryLegalityOracle(Oracle):
    """The memory map is legal: bounded, complete and non-overlapping."""

    name = "memory-legality"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        report = artifacts.ilp_report
        if not report.ok:
            return self._verdict(SKIP, "no finished design to check")
        design = report.design
        partitioning = design.partitioning
        memory_map = design.memory_map
        capacity = artifacts.system.memory_capacity_words
        violations: List[str] = []

        for boundary, words in enumerate(partitioning.boundary_volumes(), start=1):
            if words > capacity:
                violations.append(
                    f"boundary {boundary} stores {words} words, exceeding the "
                    f"{capacity}-word board memory"
                )
            mapped = boundary_words_from_map(memory_map, boundary)
            if mapped != words:
                violations.append(
                    f"boundary {boundary}: memory map carries {mapped} live "
                    f"words but the partitioning says {words}"
                )

        # Every cross-partition edge must be mapped on both sides.
        graph = partitioning.graph
        for producer, consumer, words in graph.weighted_edges():
            source = partitioning.partition_of(producer)
            target = partitioning.partition_of(consumer)
            if source == target or words == 0:
                continue
            segment = f"flow:{producer}->{consumer}"
            out_names = {
                s.name
                for s in memory_map.block(source).segments_of_kind(
                    SegmentKind.CROSS_OUTPUT
                )
            }
            in_names = {
                s.name
                for s in memory_map.block(target).segments_of_kind(
                    SegmentKind.CROSS_INPUT
                )
            }
            if segment not in out_names:
                violations.append(
                    f"edge {producer!r}->{consumer!r} has no CROSS_OUTPUT "
                    f"segment in partition {source}"
                )
            if segment not in in_names:
                violations.append(
                    f"edge {producer!r}->{consumer!r} has no CROSS_INPUT "
                    f"segment in partition {target}"
                )

        # Segments inside each block must not overlap, and the chosen k must
        # keep the worst per-iteration block within the board memory.
        for index in memory_map.partition_indices:
            block = memory_map.block(index)
            intervals = sorted(
                (block.offset_of(segment.name),
                 block.offset_of(segment.name) + segment.words)
                for segment in block.segments
            )
            for (_, first_end), (second_start, _) in zip(intervals, intervals[1:]):
                if second_start < first_end:
                    violations.append(
                        f"partition {index}: overlapping memory segments"
                    )
                    break
        k = design.computations_per_run
        worst = memory_map.max_per_iteration_words()
        if worst and k * worst > capacity:
            violations.append(
                f"k={k} iterations of the worst {worst}-word block need "
                f"{k * worst} words, exceeding the {capacity}-word memory"
            )

        if violations:
            return self._verdict(
                FAIL,
                "; ".join(violations),
                violations=violations,
                k=k,
                capacity=capacity,
            )
        return self._verdict(
            PASS,
            "memory map is legal (bounded boundaries, every edge mapped, "
            "disjoint segments, k within memory)",
            k=k,
            capacity=capacity,
        )


class PartitionValidityOracle(Oracle):
    """Every produced partitioning passes the shared constraint validator."""

    name = "partition-valid"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        checked = 0
        for label, report in (("ilp", artifacts.ilp_report),
                              ("list", artifacts.list_report)):
            if not report.ok:
                continue
            checked += 1
            partitioning = report.design.partitioning
            problem = PartitionProblem.from_system(
                partitioning.graph, artifacts.system
            )
            validation = validate_partitioning(problem, partitioning)
            if not validation.is_valid:
                return self._verdict(
                    FAIL,
                    f"the {label} partitioning violates the problem "
                    "constraints: " + "; ".join(validation.violations),
                    implementation=label,
                    violations=list(validation.violations),
                    assignment=dict(partitioning.assignment),
                )
        if not checked:
            return self._verdict(SKIP, "no finished partitioning to validate")
        return self._verdict(
            PASS, f"{checked} partitioning(s) satisfy every problem constraint"
        )


#: Path-count budget above which the kpaths oracle stops enumerating and
#: falls back to the top-1 critical-path cross-check.
KPATHS_ENUM_LIMIT = 2000


class KPathsOracle(Oracle):
    """Nonenumerative k-longest-paths delays == brute-force enumeration.

    The delay analysis (:mod:`repro.taskgraph.kpaths`) promises delays
    *bit-identical* to summing each enumerated path root-first — that
    equality is what lets the ILP's Eq. 7 path generation switch to the
    nonenumerative algorithm without perturbing any solve.  This oracle
    checks it differentially on the scenario's own graph:

    * when the graph's path count is within :data:`KPATHS_ENUM_LIMIT`, every
      enumerated ``path_delay`` must appear, bitwise, in the nonenumerative
      top-``count`` output (full multiset equality);
    * on larger graphs (the huge family) enumeration is the very thing the
      algorithm exists to avoid, so only the top-1 delay is cross-checked —
      against the independent critical-path DP, which folds delays in the
      same root-first order.
    """

    name = "kpaths-vs-enum"

    def check(self, artifacts: ScenarioArtifacts) -> OracleVerdict:
        graph = artifacts.graph
        top1 = k_longest_path_delays(graph, 1)[0]
        _, cp_delay = critical_path(graph)
        if top1 != cp_delay:
            return self._verdict(
                FAIL,
                "the nonenumerative top-1 path delay differs from the "
                "critical-path DP",
                kpaths_top1=float(top1).hex(),
                critical_path=float(cp_delay).hex(),
            )
        count = count_root_to_leaf_paths(graph)
        if count > KPATHS_ENUM_LIMIT:
            return self._verdict(
                PASS,
                f"{count} root-to-leaf paths exceed the {KPATHS_ENUM_LIMIT}-"
                "path enumeration budget; top-1 verified against the "
                "critical-path DP",
                path_count=count,
            )
        enumerated = sorted(
            (path_delay(graph, path) for path in root_to_leaf_paths(graph)),
            reverse=True,
        )
        nonenumerative = k_longest_path_delays(graph, count)
        if [float(d).hex() for d in enumerated] != [
            float(d).hex() for d in nonenumerative
        ]:
            mismatch = next(
                index
                for index, (a, b) in enumerate(zip(enumerated, nonenumerative))
                if float(a).hex() != float(b).hex()
            )
            return self._verdict(
                FAIL,
                f"nonenumerative path delays diverge from enumeration at "
                f"rank {mismatch} of {count}",
                rank=mismatch,
                enumerated=float(enumerated[mismatch]).hex(),
                nonenumerative=float(nonenumerative[mismatch]).hex(),
                path_count=count,
            )
        return self._verdict(
            PASS,
            f"all {count} path delays bit-identical between enumeration and "
            "the nonenumerative analysis",
            path_count=count,
        )


def default_oracles() -> List[Oracle]:
    """The full oracle suite, in report order."""
    return [
        IlpNotWorseOracle(),
        FeasibilityOracle(),
        TimingModelOracle(),
        WarmColdOracle(),
        MemoryLegalityOracle(),
        PartitionValidityOracle(),
        KPathsOracle(),
    ]
