"""Portfolio temporal partitioner: race heuristics against the ILP.

Runs a fixed ladder of solver arms per problem and returns the first result
that is *provably optimal*, falling back to the exact ILP when no cheap arm
can prove its candidate:

1. the greedy heuristics (list scheduling under two priority rules, level
   clustering) and the seeded annealer, all cheap and deterministic;
2. an optimality certificate: any feasible partitioning costs at least
   ``N_min * CT + max(CP, DLB)`` where ``N_min`` is the preprocessing lower
   bound on the partition count, ``CP`` the graph's critical-path delay
   (every root-to-leaf path's delay is split across the ``d_p`` terms, so
   ``sum_p d_p >= CP``) and ``DLB`` the delay-level bound of
   :meth:`PartitionProblem.delay_lower_bound`.  A heuristic candidate that
   meets this bound is optimal — no ILP needed;
3. the exact ILP (:class:`IlpTemporalPartitioner`), solved from scratch:
   no heuristic candidate is passed to the solver.

Determinism: a wall-clock race between arms would make the winner depend on
machine load, so the "race" is a fixed arm order instead — ties on the
objective are broken by the ladder position (earliest arm wins), every arm
is itself deterministic, and the annealer's seed is pinned.  The same
problem therefore always yields byte-identical assignments, which the
content-addressed stage pipeline and the differential-verification oracles
both rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import PartitioningError
from ..taskgraph.analysis import critical_path
from .anneal_partitioner import AnnealTemporalPartitioner
from .greedy_partitioner import LevelClusteringPartitioner
from .ilp_formulation import FormulationOptions
from .ilp_partitioner import IlpPartitionerReport, IlpTemporalPartitioner
from .list_partitioner import ListTemporalPartitioner
from .result import TemporalPartitioning
from .spec import PartitionProblem
from .validate import validate_partitioning

#: Relative tolerance for the optimality-certificate comparison.  The
#: candidate's latency and the lower bound are sums of the same task delays
#: in different association orders, so they can differ by a few ulps.
CERTIFICATE_RTOL = 1e-9


@dataclass
class PortfolioReport:
    """Diagnostics of one portfolio run."""

    #: Arm names in the order they ran (e.g. ``"list-resource"``, ``"ilp"``).
    arms_run: List[str] = field(default_factory=list)
    #: Arms that produced a feasible candidate, with their objective.
    candidates: List[tuple] = field(default_factory=list)
    #: Name of the arm whose result was returned.
    winner: str = ""
    #: Whether the lower-bound certificate proved a heuristic optimal
    #: (when True, no ILP solve happened).
    certified: bool = False
    #: The certificate lower bound ``N_min * CT + max(CP, DLB)`` in seconds
    #: (see :meth:`PortfolioPartitioner.objective_lower_bound`).
    lower_bound: float = 0.0
    #: The ILP partitioner's report when the ILP arm ran.
    ilp_report: Optional[IlpPartitionerReport] = None
    total_time: float = 0.0

    @property
    def attempted_bounds(self) -> List[int]:
        """Bounds the ILP arm tried (empty when a certificate decided)."""
        if self.ilp_report is None:
            return []
        return list(self.ilp_report.attempted_bounds)


class PortfolioPartitioner:
    """First-provably-optimal-wins portfolio over heuristic and exact arms.

    Parameters
    ----------
    anneal_seed / anneal_iterations:
        Forwarded to the :class:`AnnealTemporalPartitioner` arm.
    use_certificate:
        Allow the lower-bound certificate to short-circuit the ILP.  With
        ``False`` the portfolio always ends in the exact arm (useful for
        differential testing of the certificate itself).
    ilp_options:
        Formulation switches forwarded to the exact arm (``None`` keeps the
        defaults).  The multilevel partitioner passes the
        ``"auto"`` delay form here so reconvergent coarse graphs fall back
        to the chain formulation instead of failing on the path limit.
    time_limit:
        Optional per-solve wall-clock limit (seconds) for the exact arm;
        hitting it fails the run like it fails a plain ILP solve.
    """

    def __init__(
        self,
        anneal_seed: int = 0,
        anneal_iterations: int = 2000,
        use_certificate: bool = True,
        ilp_options: Optional[FormulationOptions] = None,
        time_limit: Optional[float] = None,
    ) -> None:
        self.anneal_seed = anneal_seed
        self.anneal_iterations = anneal_iterations
        self.use_certificate = use_certificate
        self.ilp_options = ilp_options
        self.time_limit = time_limit
        self.last_report: Optional[PortfolioReport] = None

    def partition(self, problem: PartitionProblem) -> TemporalPartitioning:
        """Run the arm ladder and return a provably optimal partitioning."""
        report = PortfolioReport()
        start = time.perf_counter()

        best: Optional[TemporalPartitioning] = None
        best_arm = ""
        for arm_name, candidate in self._heuristic_arms(problem, report):
            if candidate is None:
                continue
            if not validate_partitioning(problem, candidate).is_valid:
                continue
            report.candidates.append((arm_name, candidate.total_latency))
            # Strict inequality: on a tie the earliest ladder arm wins, so
            # the choice never depends on arm timing.
            if best is None or candidate.total_latency < best.total_latency:
                best = candidate
                best_arm = arm_name

        report.lower_bound = self.objective_lower_bound(problem)
        if (
            self.use_certificate
            and best is not None
            and best.total_latency
            <= report.lower_bound * (1.0 + CERTIFICATE_RTOL)
        ):
            report.winner = best_arm
            report.certified = True
            report.total_time = time.perf_counter() - start
            self.last_report = report
            return self._label(best, best_arm, certified=True)

        # No certificate: the exact arm decides.  It solves from scratch;
        # the heuristic candidates only ever serve the certificate.
        ilp = IlpTemporalPartitioner(
            options=self.ilp_options, time_limit=self.time_limit
        )
        report.arms_run.append("ilp")
        result = ilp.partition(problem)
        report.ilp_report = ilp.last_report
        report.candidates.append(("ilp", result.total_latency))
        report.winner = "ilp"
        report.total_time = time.perf_counter() - start
        self.last_report = report
        return self._label(result, "ilp", certified=False)

    # ------------------------------------------------------------------

    def _heuristic_arms(self, problem: PartitionProblem, report: PortfolioReport):
        """Yield ``(arm_name, candidate-or-None)`` in the fixed ladder order.

        The anneal arm starts from the ``list-resource`` arm's result, the
        start the annealer would otherwise pack again with the same rule;
        when that packing failed, the arm has no start and yields ``None``.
        """
        start = self._run_arm(
            report, "list-resource", lambda: ListTemporalPartitioner("resource").partition(problem)
        )
        yield "list-resource", start

        def anneal() -> Optional[TemporalPartitioning]:
            annealer = AnnealTemporalPartitioner(
                seed=self.anneal_seed, iterations=self.anneal_iterations
            )
            return None if start is None else annealer._refine(problem, start)

        arms = (
            ("list-delay", lambda: ListTemporalPartitioner("delay").partition(problem)),
            ("level", lambda: LevelClusteringPartitioner().partition(problem)),
            (f"anneal[seed={self.anneal_seed}]", anneal),
        )
        for arm_name, run in arms:
            yield arm_name, self._run_arm(report, arm_name, run)

    @staticmethod
    def _run_arm(report: PortfolioReport, arm_name: str, run) -> Optional[TemporalPartitioning]:
        """Run one arm: its candidate, or ``None`` when it fails."""
        report.arms_run.append(arm_name)
        try:
            return run()
        except PartitioningError:
            # A heuristic may legitimately fail (e.g. level clustering
            # violating the memory constraint); the ladder continues.
            return None

    @staticmethod
    def objective_lower_bound(problem: PartitionProblem) -> float:
        """``N_min * CT + max(CP, DLB)``: a latency bound no feasible solution beats.

        ``N >= N_min`` by the preprocessing bounds.  ``sum_p d_p`` is bounded
        twice: by ``CP``, because the critical path's delay is distributed
        over the partitions it crosses (each segment is a dependency chain
        inside one partition, hence a lower bound on that partition's
        ``d_p``); and by ``DLB`` (:meth:`PartitionProblem.delay_lower_bound`),
        because the tasks of each delay level need enough partitions to hold
        them, each with ``d_p`` at least that delay.
        """
        _, cp_delay = critical_path(problem.graph)
        return problem.minimum_partitions() * problem.reconfiguration_time + max(
            cp_delay, problem.delay_lower_bound()
        )

    @staticmethod
    def _label(
        result: TemporalPartitioning, arm: str, certified: bool
    ) -> TemporalPartitioning:
        """Re-tag the winning result so downstream reports name the arm."""
        suffix = "certified" if certified else "exact"
        return TemporalPartitioning(
            graph=result.graph,
            assignment=dict(result.assignment),
            partition_count=result.partition_count,
            reconfiguration_time=result.reconfiguration_time,
            method=f"portfolio[{arm},{suffix}]",
            objective_value=result.objective_value,
            solve_time=result.solve_time,
            solver_backend=result.solver_backend,
        )
