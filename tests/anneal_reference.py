"""Reference implementations the incremental partition code is checked against.

:class:`ReferenceAnnealPartitioner` is the annealer as it was before its
moves were checked incrementally: every move re-checks the resource
constraint over all tasks and the memory constraint over all edges, and
re-scores the assignment over a fresh topological sort.  Its ``partition``,
``_move_is_feasible`` and ``_score`` are kept verbatim, so any divergence of
:class:`~repro.partition.AnnealTemporalPartitioner` (assignment, its order,
method or latency bits) shows up as a failed comparison.

:func:`reference_partition_infos` is the per-partition walk
:class:`~repro.partition.TemporalPartitioning` used to build its
:class:`~repro.partition.result.PartitionInfo` list: one pass over the
topological order per partition.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

from repro.arch.device import ResourceVector
from repro.partition import AnnealTemporalPartitioner, ListTemporalPartitioner, PartitionProblem
from repro.partition.anneal_partitioner import _compress
from repro.partition.result import PartitionInfo, TemporalPartitioning


class ReferenceAnnealPartitioner(AnnealTemporalPartitioner):
    """The from-scratch annealer (same constructor, seed and moves)."""

    def partition(self, problem: PartitionProblem) -> TemporalPartitioning:
        """Refine the list-scheduler solution by annealed single-task moves."""
        start = ListTemporalPartitioner().partition(problem)
        assignment = dict(start.assignment)
        bound = start.partition_count
        graph = problem.graph
        names = graph.task_names()
        rng = random.Random(self.seed)

        best_assignment = dict(assignment)
        current_score = self._score(problem, assignment)
        best_score = current_score
        temperature = max(current_score * self.initial_temperature, 1e-30)

        for _ in range(self.iterations):
            name = names[rng.randrange(len(names))]
            target = rng.randint(1, bound)
            if target == assignment[name]:
                temperature *= self.cooling
                continue
            if not self._move_is_feasible(problem, assignment, name, target):
                temperature *= self.cooling
                continue
            previous = assignment[name]
            assignment[name] = target
            score = self._score(problem, assignment)
            delta = score - current_score
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current_score = score
                if score < best_score - 1e-30:
                    best_score = score
                    best_assignment = dict(assignment)
            else:
                assignment[name] = previous
            temperature *= self.cooling

        compressed, used = _compress(best_assignment)
        return TemporalPartitioning(
            graph=graph,
            assignment=compressed,
            partition_count=used,
            reconfiguration_time=problem.reconfiguration_time,
            method=f"anneal[seed={self.seed}]",
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _move_is_feasible(
        problem: PartitionProblem,
        assignment: Dict[str, int],
        name: str,
        target: int,
    ) -> bool:
        """Whether moving *name* to partition *target* keeps every constraint."""
        graph = problem.graph
        # Temporal order: stay at or after every producer, at or before
        # every consumer (Eq. 2).
        for pred in graph.predecessors(name):
            if assignment[pred] > target:
                return False
        for succ in graph.successors(name):
            if assignment[succ] < target:
                return False
        # Resource constraint of the receiving partition (Eq. 6).
        usage = ResourceVector({})
        for other in graph.task_names():
            if other != name and assignment[other] == target:
                usage = usage + graph.task(other).resources
        usage = usage + graph.task(name).resources
        if not usage.fits_within(problem.resource_capacity):
            return False
        # Memory constraint on every boundary the move touches (Eq. 3).
        trial = dict(assignment)
        trial[name] = target
        low = min(assignment[name], target)
        high = max(assignment[name], target)
        for boundary in range(low, high):
            words = 0
            for producer, consumer in graph.edges():
                if trial[producer] <= boundary < trial[consumer]:
                    words += graph.edge_words(producer, consumer)
            if words > problem.memory_words:
                return False
        return True

    @staticmethod
    def _score(problem: PartitionProblem, assignment: Dict[str, int]) -> float:
        """The paper's objective for *assignment*, empty partitions dropped.

        Recomputes per-partition delays with the same longest-chain rule as
        :meth:`_ReferencePartitionWalk._partition_delay`, so accepting a move
        can never disagree with how the final result will be measured.
        """
        graph = problem.graph
        used = set(assignment.values())
        longest: Dict[str, float] = {}
        per_partition: Dict[int, float] = {}
        for name in graph.topological_order():
            partition = assignment[name]
            chain = graph.task(name).delay
            best_pred = 0.0
            for pred in graph.predecessors(name):
                if assignment[pred] == partition:
                    best_pred = max(best_pred, longest[pred])
            longest[name] = best_pred + chain
            per_partition[partition] = max(
                per_partition.get(partition, 0.0), longest[name]
            )
        return len(used) * problem.reconfiguration_time + sum(per_partition.values())


class _ReferencePartitionWalk:
    """The per-partition info build, one topological walk per partition."""

    def __init__(self, result: TemporalPartitioning) -> None:
        self.graph = result.graph
        self.assignment = result.assignment
        self.partition_count = result.partition_count
        self.tasks_in_partition = result.tasks_in_partition

    def _build_partition_infos(self) -> List[PartitionInfo]:
        infos: List[PartitionInfo] = []
        for index in range(1, self.partition_count + 1):
            tasks = self.tasks_in_partition(index)
            delay = self._partition_delay(tasks)
            resources = ResourceVector({})
            for name in tasks:
                resources = resources + self.graph.task(name).resources
            infos.append(
                PartitionInfo(index=index, tasks=tasks, delay=delay, resources=resources)
            )
        return infos

    def _partition_delay(self, tasks: Sequence[str]) -> float:
        """Delay of a partition: the longest dependency chain inside it.

        This recomputes the paper's Eq. 7 semantics from the assignment rather
        than trusting the solver's ``d_p`` values, so every partitioner
        (ILP, list, greedy) is measured with exactly the same rule.
        """
        members = set(tasks)
        longest: Dict[str, float] = {}
        for name in self.graph.topological_order():
            if name not in members:
                continue
            delay = self.graph.task(name).delay
            best_pred = 0.0
            for pred in self.graph.predecessors(name):
                if pred in members:
                    best_pred = max(best_pred, longest[pred])
            longest[name] = best_pred + delay
        return max(longest.values(), default=0.0)


def reference_partition_infos(result: TemporalPartitioning) -> List[PartitionInfo]:
    """*result*'s partition infos, rebuilt by the per-partition reference walk."""
    return _ReferencePartitionWalk(result)._build_partition_infos()
