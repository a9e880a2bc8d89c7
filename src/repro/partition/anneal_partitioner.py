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
move gives.  The multilevel partitioner refines its uncoarsened assignment
on the same state.

Determinism: the random stream is ``random.Random(seed)`` with a fixed
default seed, every candidate set is iterated in sorted order, and no
wall-clock input enters any decision, so the same problem and seed always
produce byte-identical assignments.  The portfolio partitioner relies on
this for reproducible racing.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import cached_property
from itertools import accumulate, chain
from typing import Container, Dict, List, Mapping, Optional, Tuple

from ..errors import PartitioningError
from ..memo import digest, run_kernel
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
        return self._refine(problem, ListTemporalPartitioner().partition(problem))

    def _refine(
        self, problem: PartitionProblem, start: TemporalPartitioning
    ) -> TemporalPartitioning:
        """Refine *start*, the ``resource``-rule list scheduler's result on
        *problem* (the portfolio hands over the one its own arm computed)."""
        state = _MoveState(problem, start.assignment, start.partition_count)
        best_assignment = run_kernel(
            "anneal", key=lambda: self._loop_key(state), compute=lambda: self._anneal(state)
        )

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

    def _loop_key(self, state: "_MoveState") -> str:
        """Digest of every input of :meth:`_anneal` on *state*: the index
        structure and integers by ``repr``, the floats by their IEEE bits."""
        structure = (
            state.order, state.pred_start, state.pred_task, state.pred_words,
            state.succ_start, state.succ_task, state.succ_words, state.amounts,
            state.capacity, state.memory_words, state.bound, state.assignment,
            self.seed, self.iterations,
        )
        floats = array(
            "d",
            [*state.delays, state.reconfiguration_time,
             self.initial_temperature, self.cooling],
        )
        return digest([repr(structure).encode(), floats.tobytes()])

    def _anneal(self, state: "_MoveState") -> Tuple[int, ...]:
        """The best assignment the annealing loop visits from *state*.

        Both indices of a move are drawn the way ``rng.randrange(count)``
        and ``rng.randint(1, bound)`` draw them (CPython's
        ``Random._randbelow_with_getrandbits``: redraw ``getrandbits(k)``,
        ``k = n.bit_length()``, until it is below ``n``), so the stream and
        every decision are theirs, without their argument checks.

        A move's check and score read nothing but the assignment (usage and
        crossing words follow from it), so a proposal repeated from an
        assignment visited before reuses its verdict: ``None`` for an
        illegal move, else its boundary words and score.
        """
        assignment = state.assignment
        bound = state.bound
        if bound == 1:
            # randint(1, 1) proposes every task's own partition: no move is
            # ever tried, so the start is the best assignment.
            return tuple(assignment)
        rng = random.Random(self.seed)
        getrandbits, uniform, exp = rng.getrandbits, rng.random, math.exp
        check_move, commit_move, score_of = state.check_move, state.commit_move, state.score
        cooling = self.cooling
        count = len(assignment)
        task_bits, target_bits = count.bit_length(), bound.bit_length()
        # Assignments are numbered in the order they are first visited.
        visited = {tuple(assignment): 0}
        here = 0
        verdicts: Dict[int, Optional[Tuple[List[int], float]]] = {}
        unseen = object()

        best_assignment = list(assignment)
        current_score = score_of()
        best_score = current_score
        temperature = max(current_score * self.initial_temperature, 1e-30)

        for _ in range(self.iterations):
            task = getrandbits(task_bits)
            while task >= count:
                task = getrandbits(task_bits)
            target = getrandbits(target_bits)
            while target >= bound:
                target = getrandbits(target_bits)
            target += 1
            previous = assignment[task]
            if target == previous:
                temperature *= cooling
                continue
            proposal = (here * count + task) * bound + target - 1
            verdict = verdicts.get(proposal, unseen)
            if verdict is unseen:
                verdict = boundary_words = check_move(task, target)
                if boundary_words is not None:
                    assignment[task] = target
                    verdict = (boundary_words, score_of())
                    assignment[task] = previous
                verdicts[proposal] = verdict
            if verdict is None:
                temperature *= cooling
                continue
            boundary_words, score = verdict
            delta = score - current_score
            if delta <= 0 or (
                temperature > 0.0 and uniform() < exp(-delta / temperature)
            ):
                assignment[task] = target
                commit_move(task, previous, boundary_words)
                here = visited.setdefault(tuple(assignment), len(visited))
                current_score = score
                if score < best_score - 1e-30:
                    best_score = score
                    best_assignment = list(assignment)
            temperature *= cooling
        return tuple(best_assignment)


#: One task's edges and amounts as :meth:`_MoveState.check_move` reads
#: them: ``(preds, succs, amounts)``, each edge an ``(index, words)`` pair.
_Row = Tuple[List[Tuple[int, int]], List[Tuple[int, int]], List[int]]


class _MoveState:
    """One problem as flat index lists, plus the state a move is checked against.

    Tasks are numbered in ``task_names()`` order and resource kinds by
    name.  The edges are kept once per direction in CSR form: task ``i``'s
    predecessors are ``pred_task[pred_start[i]:pred_start[i + 1]]``, in
    edge order, with their words at the same positions of ``pred_words``,
    and ``succ_start``/``succ_task``/``succ_words`` hold its successors
    the same way.  Task ``i``'s amount of kind ``k`` is
    ``amounts[i * len(kinds) + k]``.  ``assignment[i]`` is task ``i``'s
    partition (1..bound), ``usage[p][k]`` partition ``p``'s amount of kind
    ``k``, and ``crossing[b]`` the words of every edge ``u -> v`` with
    ``assignment[u] <= b < assignment[v]``.  An assignment outside
    1..bound raises :class:`PartitioningError` before anything is summed.

    :meth:`check_move` and :meth:`commit_move` read ``rows[i]``, task
    ``i``'s edges and amounts as a :data:`_Row`.  A row is built from the
    flat lists the first time a move of its task is checked, so a build
    allocates a handful of lists whatever the graph's size, and multilevel
    refinement of a 10k-task state builds rows only for the tasks it tries
    to move.  Every other query reads the flat lists.

    :meth:`check_move` is exact only from a valid assignment: it checks the
    moving task's own edges, its target's resources and the boundaries it
    crosses, and trusts everything else.  :meth:`violations` checks a
    whole assignment once.
    """

    def __init__(
        self, problem: PartitionProblem, assignment: Mapping[str, int], bound: int
    ) -> None:
        graph = problem.graph
        tasks, _, _, succ, pred = graph.maps()
        names = list(tasks)
        self.names = names
        self.position = {name: i for i, name in enumerate(names)}
        position = self.position
        self.order = [position[name] for name in graph.topological_order()]
        self.pred_start, self.pred_task, self.pred_words = _adjacency(pred, names, position)
        self.succ_start, self.succ_task, self.succ_words = _adjacency(succ, names, position)
        self.delays = [task.delay for task in tasks.values()]
        vectors = [task.resources.amounts for task in tasks.values()]
        kinds = sorted({kind for vector in vectors for kind in vector})
        self.kinds = kinds
        self.amounts = [vector.get(kind, 0) for vector in vectors for kind in kinds]
        self.capacity = [problem.resource_capacity[kind] for kind in kinds]
        self.memory_words = problem.memory_words
        self.reconfiguration_time = problem.reconfiguration_time
        self.rows: List[Optional[_Row]] = [None] * len(names)

        self.bound = bound
        self.assignment = [assignment[name] for name in names]
        for task, partition in enumerate(self.assignment):
            if not 1 <= partition <= bound:
                raise PartitioningError(
                    f"task {names[task]!r} assigned to partition {partition}, "
                    f"outside 1..{bound}"
                )
        width = len(kinds)
        usage = self.usage = [[0] * width for _ in range(bound + 1)]
        for kind in range(width):
            for partition, amount in zip(self.assignment, self.amounts[kind::width]):
                usage[partition][kind] += amount
        # Each forward edge adds its words from its producer's partition on
        # and takes them off from its consumer's: the running sum at ``b``
        # is then the words of every edge with ``producer <= b < consumer``.
        # The walk reads *assignment* by name, every value now in range.
        change = [0] * (bound + 1)
        for producer, consumers in succ.items():
            first = assignment[producer]
            for consumer, words in consumers.items():
                last = assignment[consumer]
                if first < last:
                    change[first] += words
                    change[last] -= words
        self.crossing = list(accumulate(change))

    def _row(self, task: int) -> _Row:
        """Build and keep task *task*'s row (see the class docstring)."""
        start, end = self.pred_start[task], self.pred_start[task + 1]
        preds = list(zip(self.pred_task[start:end], self.pred_words[start:end]))
        start, end = self.succ_start[task], self.succ_start[task + 1]
        succs = list(zip(self.succ_task[start:end], self.succ_words[start:end]))
        width = len(self.kinds)
        row = self.rows[task] = (preds, succs, self.amounts[task * width:(task + 1) * width])
        return row

    def check_move(self, task: int, target: int) -> Optional[List[int]]:
        """The crossing words of the boundaries between *task*'s partition
        and *target* after the move, or ``None`` if the move breaks the
        temporal order (Eq. 2), the resource capacity of *target* (Eq. 6)
        or the memory size on one of those boundaries (Eq. 3)."""
        preds, succs, amounts = self.rows[task] or self._row(task)
        assignment = self.assignment
        for pred, _ in preds:
            if assignment[pred] > target:
                return None
        for succ, _ in succs:
            if assignment[succ] < target:
                return None
        row = self.usage[target]
        for kind, amount in enumerate(amounts):
            if row[kind] + amount > self.capacity[kind]:
                return None
        current = assignment[task]
        boundary_words = []
        for boundary in range(min(current, target), max(current, target)):
            # Swap the task's own edges' contribution from its current
            # partition to *target*; every other edge is unchanged.
            words = self.crossing[boundary]
            for pred, edge_words in preds:
                if assignment[pred] <= boundary:
                    words += edge_words * ((boundary < target) - (boundary < current))
            for succ, edge_words in succs:
                if boundary < assignment[succ]:
                    words += edge_words * ((target <= boundary) - (current <= boundary))
            if words > self.memory_words:
                return None
            boundary_words.append(words)
        return boundary_words

    def commit_move(self, task: int, previous: int, boundary_words: List[int]) -> None:
        """Account for the accepted move of *task* out of partition *previous*
        (``assignment`` already holds its target); *boundary_words* is what
        :meth:`check_move` returned for it, so the task's row is built."""
        target = self.assignment[task]
        source_row, target_row = self.usage[previous], self.usage[target]
        for kind, amount in enumerate(self.rows[task][2]):
            source_row[kind] -= amount
            target_row[kind] += amount
        self.crossing[min(previous, target):max(previous, target)] = boundary_words

    def violations(self) -> List[str]:
        """Every constraint ``assignment`` breaks, in the order and words of
        :func:`~repro.partition.validate.validate_partitioning`: the
        temporal order (Eq. 2), resources (Eq. 6), memory (Eq. 3) and
        contiguous partition indices."""
        assignment, names = self.assignment, self.names
        succ_start, succ_task = self.succ_start, self.succ_task
        found = []
        for task in range(len(names)):
            for succ in succ_task[succ_start[task]:succ_start[task + 1]]:
                if assignment[task] > assignment[succ]:
                    found.append(
                        f"temporal order violated: {names[task]!r} "
                        f"(P{assignment[task]}) feeds {names[succ]!r} (P{assignment[succ]})"
                    )
        for partition in range(1, self.bound + 1):
            for kind, used in enumerate(self.usage[partition]):
                if used > self.capacity[kind]:
                    found.append(
                        f"partition {partition} uses {used} {self.kinds[kind]}, "
                        f"exceeding the capacity of {self.capacity[kind]}"
                    )
        for boundary in range(1, self.bound):
            if self.crossing[boundary] > self.memory_words:
                found.append(
                    f"boundary {boundary} stores {self.crossing[boundary]} words, "
                    f"exceeding the memory constraint of {self.memory_words} words"
                )
        used = sorted(set(assignment))
        if used != list(range(1, self.bound + 1)):
            found.append(f"partition indices {used} are not contiguous 1..{self.bound}")
        return found

    def _preds_of(self, task: int) -> List[int]:
        """Task *task*'s predecessor indices, in edge order."""
        return self.pred_task[self.pred_start[task]:self.pred_start[task + 1]]

    def partition_delays(
        self, partitions: Optional[Container[int]] = None
    ) -> Dict[int, float]:
        """The delay of every non-empty partition, or of those in
        *partitions*, keyed in the order they first appear in the
        topological order.

        A partition's delay is its longest same-partition chain, the rule
        of :func:`~repro.partition.result.in_partition_chain_delays`, so
        the values are bit for bit the ones a :class:`TemporalPartitioning`
        of ``assignment`` reports.
        """
        assignment = self.assignment
        delays = self.delays
        preds_of = self._preds_of
        longest = [0.0] * len(delays)
        per_partition: Dict[int, float] = {}
        for task in self.order:
            partition = assignment[task]
            if partitions is not None and partition not in partitions:
                continue
            best_pred = 0.0
            for pred in preds_of(task):
                if assignment[pred] == partition:
                    best_pred = max(best_pred, longest[pred])
            chain = best_pred + delays[task]
            longest[task] = chain
            per_partition[partition] = max(per_partition.get(partition, 0.0), chain)
        return per_partition

    def longest_chain(self, partition: int) -> List[int]:
        """The tasks of the longest dependency chain inside *partition*,
        first task first (empty for an empty partition).

        Each task's chain predecessor is its first same-partition
        predecessor, in edge order, whose chain is strictly longer than any
        before it; the chain ends at the task with the longest chain, ties
        going to the larger name.
        """
        assignment = self.assignment
        delays = self.delays
        preds_of = self._preds_of
        longest: Dict[int, float] = {}
        chain_pred: Dict[int, Optional[int]] = {}
        for task in self.order:
            if assignment[task] != partition:
                continue
            chosen: Optional[int] = None
            best = 0.0
            for pred in preds_of(task):
                if assignment[pred] == partition and longest[pred] > best:
                    best = longest[pred]
                    chosen = pred
            longest[task] = best + delays[task]
            chain_pred[task] = chosen
        if not longest:
            return []
        names = self.names
        chain = [max(longest, key=lambda task: (longest[task], names[task]))]
        while chain_pred[chain[-1]] is not None:
            chain.append(chain_pred[chain[-1]])
        chain.reverse()
        return chain

    @cached_property
    def _score_walk(self) -> List[Tuple[int, List[int], float]]:
        """Every task in topological order with its pred indices and delay.

        Built on the first :meth:`score`: multilevel refinement never
        scores, so its 10k-task states never pay for it.
        """
        preds_of, delays = self._preds_of, self.delays
        return [(task, preds_of(task), delays[task]) for task in self.order]

    def score(self) -> float:
        """The paper's objective for ``assignment``, empty partitions dropped.

        Uses the longest-chain rule of :class:`TemporalPartitioning`'s
        partition delays, so accepting a move can never disagree with how
        the final result will be measured.  The floats are those of
        :meth:`partition_delays`, bit for bit: ``value > best`` keeps
        ``best`` exactly when ``max(best, value)`` does (NaN and signed
        zeros included), and ``sum()`` adds the delays in the order the
        partitions first appear in the topological order.
        """
        assignment = self.assignment
        longest = [0.0] * len(assignment)
        slots: List[Optional[float]] = [None] * (self.bound + 1)
        appeared = []
        for task, preds, delay in self._score_walk:
            partition = assignment[task]
            best = 0.0
            for pred in preds:
                if assignment[pred] == partition:
                    value = longest[pred]
                    if value > best:
                        best = value
            chain = best + delay
            longest[task] = chain
            slot = slots[partition]
            if slot is None:
                appeared.append(partition)
                slots[partition] = chain if chain > 0.0 else 0.0
            elif chain > slot:
                slots[partition] = chain
        total = sum([slots[partition] for partition in appeared])
        return len(appeared) * self.reconfiguration_time + total


def _adjacency(
    neighbours: Dict[str, Dict[str, int]], names: List[str], position: Dict[str, int]
) -> Tuple[List[int], List[int], List[int]]:
    """One direction of the edges as CSR lists: ``(start, task, words)``,
    rows in *names* order and each row in edge order."""
    rows = [neighbours[name] for name in names]
    start = list(accumulate(map(len, rows), initial=0))
    task = list(map(position.__getitem__, chain.from_iterable(rows)))
    words = list(chain.from_iterable(map(dict.values, rows)))
    return start, task, words


def _compress(assignment: Dict[str, int]):
    """Renumber partitions 1..N' dropping empty indices (order preserved)."""
    used = sorted(set(assignment.values()))
    renumber = {old: new for new, old in enumerate(used, start=1)}
    return {task: renumber[p] for task, p in assignment.items()}, len(used)
