"""Simulated-annealing temporal partitioner (stochastic refinement arm).

Starts from the list-scheduler solution and performs single-task moves
between partitions, accepting worsening moves with the usual Metropolis
probability under a geometric cooling schedule.  Unlike the list and level
heuristics it is latency-aware — the score is the paper's objective
``N*CT + sum_p d_p`` — so it can undo exactly the greedy packing mistakes
the DCT case study illustrates, without paying for an ILP solve.

Each call indexes the graph once (tasks, a topological order, edges with
their words, delays and per-kind resources as plain lists) and then keeps
the per-partition resource usage and the words crossing each boundary up
to date move by move.  A proposed move is checked against the temporal
order, resource and memory constraints (Eqs. 2, 6, 3) from that state and
the moving task's own edges, and scored in one pass over the cached order.
Resource amounts and edge words are integers, so the incremental sums are
exact, and the score uses the float operations of a from-scratch score in
the same order, so the result is the one a from-scratch check of every
move gives.

Determinism: the random stream is ``random.Random(seed)`` with a fixed
default seed, every candidate set is iterated in sorted order, and no
wall-clock input enters any decision, so the same problem and seed always
produce byte-identical assignments.  The portfolio partitioner relies on
this for reproducible racing.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Mapping, Optional

from ..errors import PartitioningError
from .list_partitioner import ListTemporalPartitioner
from .result import TemporalPartitioning
from .spec import PartitionProblem


class AnnealTemporalPartitioner:
    """Seeded simulated annealing over task-to-partition assignments.

    Parameters
    ----------
    seed:
        Seed of the private random stream; the same seed reproduces the
        same result bit for bit.
    iterations:
        Number of proposed moves.
    initial_temperature:
        Starting temperature as a fraction of the initial objective (so the
        schedule adapts to the problem's latency scale).
    cooling:
        Geometric cooling factor applied every iteration.  Once the
        temperature underflows to zero, worsening moves are rejected.
    """

    def __init__(
        self,
        seed: int = 0,
        iterations: int = 2000,
        initial_temperature: float = 0.1,
        cooling: float = 0.995,
    ) -> None:
        if iterations < 0:
            raise PartitioningError("iterations must be non-negative")
        if not 0.0 < cooling < 1.0:
            raise PartitioningError("cooling must lie strictly between 0 and 1")
        self.seed = seed
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling

    def partition(self, problem: PartitionProblem) -> TemporalPartitioning:
        """Refine the list-scheduler solution by annealed single-task moves."""
        start = ListTemporalPartitioner().partition(problem)
        bound = start.partition_count
        state = _MoveState(problem, start.assignment, bound)
        assignment = state.assignment
        rng = random.Random(self.seed)

        best_assignment = list(assignment)
        current_score = state.score()
        best_score = current_score
        temperature = max(current_score * self.initial_temperature, 1e-30)

        for _ in range(self.iterations):
            task = rng.randrange(len(assignment))
            target = rng.randint(1, bound)
            previous = assignment[task]
            if target == previous:
                temperature *= self.cooling
                continue
            boundary_words = state.check_move(task, target)
            if boundary_words is None:
                temperature *= self.cooling
                continue
            assignment[task] = target
            score = state.score()
            delta = score - current_score
            if delta <= 0 or (
                temperature > 0.0 and rng.random() < math.exp(-delta / temperature)
            ):
                state.commit_move(task, previous, boundary_words)
                current_score = score
                if score < best_score - 1e-30:
                    best_score = score
                    best_assignment = list(assignment)
            else:
                assignment[task] = previous
            temperature *= self.cooling

        position = state.position
        compressed, used = _compress(
            {name: best_assignment[position[name]] for name in start.assignment}
        )
        return TemporalPartitioning(
            graph=problem.graph,
            assignment=compressed,
            partition_count=used,
            reconfiguration_time=problem.reconfiguration_time,
            method=f"anneal[seed={self.seed}]",
        )


class _MoveState:
    """One problem as index arrays, plus the state a move is checked against.

    Tasks are numbered in ``task_names()`` order and resource kinds by
    name.  ``assignment[i]`` is task ``i``'s partition (1..bound),
    ``usage[p][k]`` partition ``p``'s amount of kind ``k``, and
    ``crossing[b]`` the words of every edge ``u -> v`` with
    ``assignment[u] <= b < assignment[v]``.
    """

    def __init__(
        self, problem: PartitionProblem, assignment: Mapping[str, int], bound: int
    ) -> None:
        graph = problem.graph
        names = graph.task_names()
        self.position = {name: i for i, name in enumerate(names)}
        position = self.position
        self.order = [position[name] for name in graph.topological_order()]
        self.preds = [
            [(position[pred], graph.edge_words(pred, name)) for pred in graph.predecessors(name)]
            for name in names
        ]
        self.succs = [
            [(position[succ], graph.edge_words(name, succ)) for succ in graph.successors(name)]
            for name in names
        ]
        tasks = [graph.task(name) for name in names]
        self.delays = [task.delay for task in tasks]
        kinds = sorted({kind for task in tasks for kind in task.resources.amounts})
        self.amounts = [[task.resources[kind] for kind in kinds] for task in tasks]
        self.capacity = [problem.resource_capacity[kind] for kind in kinds]
        self.memory_words = problem.memory_words
        self.reconfiguration_time = problem.reconfiguration_time

        self.assignment = [assignment[name] for name in names]
        self.usage = [[0] * len(kinds) for _ in range(bound + 1)]
        self.crossing = [0] * (bound + 1)
        for task, partition in enumerate(self.assignment):
            row = self.usage[partition]
            for kind, amount in enumerate(self.amounts[task]):
                row[kind] += amount
            for succ, words in self.succs[task]:
                for boundary in range(partition, self.assignment[succ]):
                    self.crossing[boundary] += words

    def check_move(self, task: int, target: int) -> Optional[List[int]]:
        """The crossing words of the boundaries between *task*'s partition
        and *target* after the move, or ``None`` if the move breaks the
        temporal order (Eq. 2), the resource capacity of *target* (Eq. 6)
        or the memory size on one of those boundaries (Eq. 3)."""
        assignment = self.assignment
        for pred, _ in self.preds[task]:
            if assignment[pred] > target:
                return None
        for succ, _ in self.succs[task]:
            if assignment[succ] < target:
                return None
        row = self.usage[target]
        for kind, amount in enumerate(self.amounts[task]):
            if row[kind] + amount > self.capacity[kind]:
                return None
        current = assignment[task]
        boundary_words = []
        for boundary in range(min(current, target), max(current, target)):
            # Swap the task's own edges' contribution from its current
            # partition to *target*; every other edge is unchanged.
            words = self.crossing[boundary]
            for pred, edge_words in self.preds[task]:
                if assignment[pred] <= boundary:
                    words += edge_words * ((boundary < target) - (boundary < current))
            for succ, edge_words in self.succs[task]:
                if boundary < assignment[succ]:
                    words += edge_words * ((target <= boundary) - (current <= boundary))
            if words > self.memory_words:
                return None
            boundary_words.append(words)
        return boundary_words

    def commit_move(self, task: int, previous: int, boundary_words: List[int]) -> None:
        """Account for the accepted move of *task* out of partition *previous*
        (``assignment`` already holds its target); *boundary_words* is what
        :meth:`check_move` returned for it."""
        target = self.assignment[task]
        source_row, target_row = self.usage[previous], self.usage[target]
        for kind, amount in enumerate(self.amounts[task]):
            source_row[kind] -= amount
            target_row[kind] += amount
        self.crossing[min(previous, target):max(previous, target)] = boundary_words

    def score(self) -> float:
        """The paper's objective for ``assignment``, empty partitions dropped.

        Uses the longest-chain rule of :class:`TemporalPartitioning`'s
        partition delays, so accepting a move can never disagree with how
        the final result will be measured.  The per-partition delays are
        summed in the order the partitions first appear in the topological
        order.
        """
        assignment = self.assignment
        delays = self.delays
        preds = self.preds
        longest = [0.0] * len(delays)
        per_partition: Dict[int, float] = {}
        for task in self.order:
            partition = assignment[task]
            best_pred = 0.0
            for pred, _ in preds[task]:
                if assignment[pred] == partition:
                    best_pred = max(best_pred, longest[pred])
            chain = best_pred + delays[task]
            longest[task] = chain
            per_partition[partition] = max(per_partition.get(partition, 0.0), chain)
        return len(per_partition) * self.reconfiguration_time + sum(per_partition.values())


def _compress(assignment: Dict[str, int]):
    """Renumber partitions 1..N' dropping empty indices (order preserved)."""
    used = sorted(set(assignment.values()))
    renumber = {old: new for new, old in enumerate(used, start=1)}
    return {task: renumber[p] for task, p in assignment.items()}, len(used)
