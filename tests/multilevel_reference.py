"""The multilevel partitioner's refinement as it was before it ran incrementally.

:class:`ReferenceRefiner` keeps ``_refine``, ``_improving_move`` and
``_longest_chain`` verbatim from the version that built a full
:class:`~repro.partition.TemporalPartitioning` and ran
:func:`~repro.partition.validate_partitioning` for every trial move, so any
divergence of :class:`~repro.partition.MultilevelPartitioner` (assignment,
its order, method or number of accepted moves) shows up as a failed
comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.partition import PartitionProblem, TemporalPartitioning, validate_partitioning
from repro.partition.hierarchy import MultilevelReport


class ReferenceRefiner:
    """Bounded greedy refinement that re-validates every trial from scratch."""

    def __init__(self, max_refine_moves: int = 4) -> None:
        self.max_refine_moves = max_refine_moves

    def refine(
        self, problem: PartitionProblem, start: TemporalPartitioning
    ) -> Tuple[TemporalPartitioning, int]:
        """The refined partitioning of *start* and the number of moves applied."""
        report = MultilevelReport()
        result = self._refine(problem, start, report)
        return result, report.refinement_moves

    def _refine(
        self,
        problem: PartitionProblem,
        result: TemporalPartitioning,
        report: MultilevelReport,
    ) -> TemporalPartitioning:
        """Bounded greedy boundary refinement on the uncoarsened assignment.

        Each round targets the partition with the largest delay, extracts
        its longest internal chain, and tries to move the chain's first
        task one partition earlier or its last task one partition later.  A
        move is kept only when the full partitioning stays valid and the
        computation latency strictly decreases (the partition count never
        changes, so that is exactly the objective delta).  Stops at the
        first round with no improving move.
        """
        for _ in range(self.max_refine_moves):
            moved = self._improving_move(problem, result)
            if moved is None:
                break
            result = moved
            report.refinement_moves += 1
        return result

    def _improving_move(
        self, problem: PartitionProblem, result: TemporalPartitioning
    ) -> Optional[TemporalPartitioning]:
        delays = result.partition_delays
        worst = max(range(len(delays)), key=lambda i: (delays[i], -i)) + 1
        chain = self._longest_chain(result, worst)
        if not chain:
            return None
        candidates = []
        if worst > 1:
            candidates.append((chain[0], worst - 1))
        if worst < result.partition_count:
            candidates.append((chain[-1], worst + 1))
        for task_name, target in candidates:
            if len(result.tasks_in_partition(worst)) < 2:
                continue
            trial_assignment = dict(result.assignment)
            trial_assignment[task_name] = target
            trial = TemporalPartitioning(
                graph=result.graph,
                assignment=trial_assignment,
                partition_count=result.partition_count,
                reconfiguration_time=result.reconfiguration_time,
                method=result.method,
                solver_backend=result.solver_backend,
            )
            if not validate_partitioning(problem, trial).is_valid:
                continue
            if trial.computation_latency < result.computation_latency:
                return trial
        return None

    @staticmethod
    def _longest_chain(result: TemporalPartitioning, index: int) -> List[str]:
        """The longest dependency chain inside partition *index*."""
        members = set(result.tasks_in_partition(index))
        graph = result.graph
        longest: Dict[str, float] = {}
        best_pred: Dict[str, Optional[str]] = {}
        for name in graph.topological_order():
            if name not in members:
                continue
            delay = graph.task(name).delay
            chosen: Optional[str] = None
            best = 0.0
            for pred in graph.predecessors(name):
                if pred in members and longest[pred] > best:
                    best = longest[pred]
                    chosen = pred
            longest[name] = best + delay
            best_pred[name] = chosen
        if not longest:
            return []
        end = max(longest, key=lambda n: (longest[n], n))
        chain = [end]
        while best_pred[chain[-1]] is not None:
            chain.append(best_pred[chain[-1]])
        chain.reverse()
        return chain
