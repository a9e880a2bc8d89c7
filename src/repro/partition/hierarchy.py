"""Multilevel clustering pre-partitioner for huge task graphs.

The flat partitioners see every task: the ILP's variable count and the
heuristics' bookkeeping both grow with the task count, so 10k-100k-node
graphs are out of reach.  The classic answer — METIS-style multilevel
partitioning, restricted to *acyclic* clusterings because temporal
partitions are ordered — is to

1. **coarsen**: repeatedly merge pairs of tasks into clusters until the
   graph is small, choosing merges by timing criticality (from the k-paths
   up/down tables) so the chains that determine partition delays survive
   coarsening, and capping every cluster at a fraction of the device
   capacity so the coarse problem stays packable;
2. **partition** the coarse graph with any registered inner partitioner
   (portfolio by default — the accelerated solver stack is the inner
   engine, exactly as on small graphs);
3. **uncoarsen**: expand every cluster into its member tasks (all members
   inherit the cluster's partition) and run a bounded greedy refinement
   pass that shortens the longest partition-internal chain when a legal
   move exists.

Acyclicity is the load-bearing invariant.  A merge pass contracts a set of
disjoint cluster pairs, each safe by one of two rules:

* **serial**: an edge ``u -> v`` with ``outdeg(u) == 1`` or
  ``indeg(v) == 1`` — any alternate ``u`` ⇝ ``v`` path would have to leave
  ``u`` through (or enter ``v`` from) the contracted edge itself, so none
  exists, and no coarse cycle can traverse the merged cluster backwards;
* **sibling**: two tasks with the same ASAP level — levels strictly
  increase along every path, so equal-level tasks are independent.

Contracting any set of such pairs simultaneously keeps the graph acyclic:
a coarse cycle would have to alternate original edges (ASAP level strictly
increases) and within-cluster hops (level equal for siblings; serial
clusters can only be crossed through their contracted edge, level up
again), so the level would strictly increase around the cycle.  Each
pass's topological fold doubles as a cycle check regardless, and the
final coarse graph is validated once when it is materialised.

Coarsening runs on integer arrays, not :class:`TaskGraph` instances.
Tasks are numbered in sorted-name order, so number order is name order and
a cluster keeps its smallest member's number (and name).  A level is
per-cluster delay, resource and resource-kind-order arrays plus ``(src,
dst, words)`` edge arrays sorted by ``(src, dst)``.  Each pass folds
up/level/down in one topological pass over int lists (the cycle check),
checks serial eligibility and the cap for every edge at once, ranks the
survivors with one ``np.lexsort``, matches greedily over them alone, pairs
siblings in (level, name) order, and contracts through a relabel array
(parallel edges sum their words).  Amounts and words are summed in int64,
so a kind total or word total that would reach ``2**63`` raises
:class:`PartitioningError` up front.  A pass builds no :class:`Task`
objects and checks no edge on its own.  Only the final coarse level (at
most ``max_coarse_tasks`` clusters, unless coarsening stalls) becomes a
real :class:`TaskGraph`, through one bulk ``add_edges`` call whose single
topological sort is that level's check.

Because clusters are convex, a coarse-feasible partitioning uncoarsens to
a valid flat one with *exactly* the same partition resources and boundary
words (intra-cluster edges never cross a boundary); only the delays are
re-measured on the real graph.  The scheme is incomplete — an original
problem can be feasible while the coarse one is not — which the portfolio
/ verification layers treat like any other heuristic dead end.

Refinement runs on the annealer's move state (index arrays, per-partition
usage and the words crossing each boundary).  The uncoarsened start is
checked whole once, from that state, and an invalid one raises
:class:`PartitioningError` naming the broken constraint.  From a valid
start each trial move is checked against its own task's edges and the
boundaries it crosses, and re-measures only the two partitions it touches;
one :class:`TemporalPartitioning` is built at the end.

Determinism: merges are ordered by (criticality, name), every tie-break is
name-based, the inner engines are themselves deterministic, and no
wall-clock value feeds a decision, so the same problem always produces a
byte-identical assignment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch.device import ResourceVector
from ..errors import CycleError, PartitioningError
from ..taskgraph.graph import TaskGraph
from ..taskgraph.task import Task, TaskCost
from .anneal_partitioner import _MoveState
from .ilp_formulation import FormulationOptions
from .registry import (
    DEFAULT_MULTILEVEL_INNER,
    SolverSpec,
    make_partitioner,
    multilevel_inner,
)
from .result import TemporalPartitioning
from .spec import PartitionProblem


#: Coarsening sums resource amounts and words in int64 arrays; no kind's
#: total and no total of edge or env words may reach this.
_INT64_LIMIT = 1 << 63


def _int64(values: List[int], what: str) -> np.ndarray:
    """*values* as an int64 array, raising when their total could overflow."""
    total = sum(values)
    if total >= _INT64_LIMIT:
        raise PartitioningError(
            f"the total {what} ({total}) reaches 2**63, past the coarsener's "
            "int64 arrays"
        )
    return np.array(values, dtype=np.int64)


@dataclass
class _Level:
    """One coarsening level as index arrays.

    Clusters are indexed in name order and edges are sorted by ``(src,
    dst)``.
    """

    #: Each cluster's name: the rank of its smallest member among the
    #: original task names.
    ident: np.ndarray
    delay: np.ndarray
    #: ``res[cluster, column]``: the cluster's amount of each resource kind.
    res: np.ndarray
    #: Index of each cluster's resource-kind order in ``_Coarsening.kind_orders``.
    kinds: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    words: np.ndarray

    def __len__(self) -> int:
        return len(self.ident)


@dataclass
class _Coarsening:
    """The original tasks in name order and the tables every level shares."""

    names: List[str]
    env_in: np.ndarray
    env_out: np.ndarray
    #: Column of each resource kind in ``_Level.res``.
    columns: Dict[str, int]
    #: Per-cluster cap of each column (0 for a kind the device lacks).
    cap: np.ndarray
    #: Each distinct resource-kind order -> its index.  A cluster's
    #: resource dict lists its kinds the way merging its members' dicts,
    #: first member first, would.
    kind_orders: Dict[Tuple[str, ...], int]
    _merged: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def merged_kinds(self, first: int, second: int) -> int:
        """Kind order of a *first*-order dict updated with a *second* one."""
        key = (first, second)
        if key not in self._merged:
            orders = list(self.kind_orders)
            head = orders[first]
            tail = tuple(kind for kind in orders[second] if kind not in head)
            self._merged[key] = self.kind_orders.setdefault(
                head + tail, len(self.kind_orders)
            )
        return self._merged[key]


def _read(problem: PartitionProblem, cap_fraction: float) -> Tuple[_Coarsening, _Level]:
    """The tasks of *problem* in name order, as the first level."""
    graph_tasks, env_input, env_output, succ, _ = problem.graph.maps()
    names = sorted(graph_tasks)
    tasks = [graph_tasks[name] for name in names]
    amounts = [task.resources.amounts for task in tasks]
    kind_orders: Dict[Tuple[str, ...], int] = {}
    kinds = [kind_orders.setdefault(tuple(vector), len(kind_orders)) for vector in amounts]
    columns: Dict[str, int] = {}
    for order in kind_orders:
        for kind in order:
            columns.setdefault(kind, len(columns))
    res = np.zeros((len(names), len(columns)), dtype=np.int64)
    for kind, column in columns.items():
        res[:, column] = _int64(
            [vector.get(kind, 0) for vector in amounts], f"{kind!r} amount"
        )
    capacity = problem.resource_capacity
    cap = {
        name: max(int(capacity[name] * cap_fraction), 1) for name in capacity.names()
    }
    state = _Coarsening(
        names=names,
        env_in=_int64([env_input[name] for name in names], "env input words"),
        env_out=_int64([env_output[name] for name in names], "env output words"),
        columns=columns,
        cap=np.array(
            [min(cap.get(kind, 0), _INT64_LIMIT - 1) for kind in columns], dtype=np.int64
        ),
        kind_orders=kind_orders,
    )

    # The edges in ``weighted_edges()`` order, read off the successor map.
    rank = {name: index for index, name in enumerate(names)}
    src = np.repeat(
        np.array([rank[producer] for producer in succ], dtype=np.int64),
        [len(consumers) for consumers in succ.values()],
    )
    dst = np.array(
        [rank[consumer] for consumers in succ.values() for consumer in consumers],
        dtype=np.int64,
    )
    words = _int64(
        [volume for consumers in succ.values() for volume in consumers.values()],
        "edge words",
    )
    order = np.lexsort((dst, src))
    level = _Level(
        ident=np.arange(len(names)),
        delay=np.array([task.delay for task in tasks], dtype=np.float64),
        res=res,
        kinds=np.array(kinds, dtype=np.int64),
        src=src[order],
        dst=dst[order],
        words=words[order],
    )
    return state, level


def _fits(res: np.ndarray, first: np.ndarray, second: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Whether each ``(first[i], second[i])`` pair's summed resources fit the cap."""
    return ((res[first] + res[second]) <= cap).all(axis=1)


def _fold(level: _Level) -> Tuple[List[float], List[int], List[float]]:
    """``up``, ASAP level and ``down`` of every cluster, in one topological
    fold over int lists; raises :class:`CycleError` on a cycle.

    ``up(v)`` is the longest delay of a path ending at ``v``, ``down(v)``
    of one starting at it, both counting ``v``; until ``v`` is visited,
    ``up[v]`` holds the longest ``up`` of its visited predecessors.  The
    fold visits clusters first in, first out, so in nondecreasing ASAP
    level: the predecessor that makes a cluster ready has the largest level
    among its predecessors.
    """
    n = len(level)
    delay = level.delay.tolist()
    succ = level.dst.tolist()
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(level.src, minlength=n), out=bounds[1:])
    bounds = bounds.tolist()
    pending = np.bincount(level.dst, minlength=n).tolist()
    order = [node for node in range(n) if not pending[node]]
    up = [0.0] * n
    asap = [0] * n
    for node in order:  # grows as clusters become ready
        value = up[node] = up[node] + delay[node]
        for child in succ[bounds[node]:bounds[node + 1]]:
            if value > up[child]:
                up[child] = value
            pending[child] -= 1
            if not pending[child]:
                asap[child] = asap[node] + 1
                order.append(child)
    if len(order) != n:
        raise CycleError("coarse graph contains a cycle")
    down = [0.0] * n
    for node in reversed(order):
        longest = 0.0
        for child in succ[bounds[node]:bounds[node + 1]]:
            if down[child] > longest:
                longest = down[child]
        down[node] = longest + delay[node]
    return up, asap, down


@dataclass
class MultilevelReport:
    """Diagnostics of one multilevel run."""

    #: Inner engine name (``"portfolio"``, ``"ilp"``, ...).
    inner: str = ""
    #: Task count per level, original graph first, coarsest last.
    level_sizes: List[int] = field(default_factory=list)
    #: Whether coarsening stalled above the target size (no safe merge left).
    stalled: bool = False
    #: Number of refinement moves actually applied.
    refinement_moves: int = 0
    #: The inner partitioner's own report, when it exposes one.
    inner_report: Optional[object] = None
    coarsen_time: float = 0.0
    inner_time: float = 0.0
    #: Uncoarsening: the start check, the refinement moves and the build
    #: of the result.
    refine_time: float = 0.0
    total_time: float = 0.0

    @property
    def coarse_tasks(self) -> int:
        """Task count of the coarsest level the inner engine solved."""
        return self.level_sizes[-1] if self.level_sizes else 0

    @property
    def attempted_bounds(self) -> List[int]:
        """Partition bounds the inner exact solver tried (may be empty)."""
        if self.inner_report is None:
            return []
        return list(getattr(self.inner_report, "attempted_bounds", []) or [])


class MultilevelPartitioner:
    """Coarsen -> inner-partition -> uncoarsen+refine temporal partitioner.

    Parameters
    ----------
    inner:
        Inner engine run on the coarse graph (one of
        :data:`~repro.partition.registry.MULTILEVEL_INNER_CHOICES`).
    seed / time_limit:
        Forwarded to the inner engine where applicable (``seed`` pins the
        annealer, ``time_limit`` the exact solver).
    max_coarse_tasks:
        Coarsening stops once the graph is at most this many tasks (or when
        no safe merge remains; the inner engine then runs on the stalled
        graph as-is).
    cluster_cap_fraction:
        No cluster may exceed this fraction of any capacity resource, so
        the coarse problem keeps enough packing freedom to stay feasible.
    max_refine_moves:
        Upper bound on accepted uncoarsening refinement moves (each round
        walks the topological order a few times, so this bounds the
        refinement cost on huge graphs).
    """

    def __init__(
        self,
        inner: str = DEFAULT_MULTILEVEL_INNER,
        *,
        seed: int = 0,
        time_limit: Optional[float] = None,
        max_coarse_tasks: int = 48,
        cluster_cap_fraction: float = 0.5,
        max_refine_moves: int = 4,
    ) -> None:
        multilevel_inner(f"multilevel:{inner}")  # raises on an unknown inner
        if max_coarse_tasks < 1:
            raise PartitioningError("max_coarse_tasks must be at least 1")
        if not 0.0 < cluster_cap_fraction <= 1.0:
            raise PartitioningError("cluster_cap_fraction must be in (0, 1]")
        if max_refine_moves < 0:
            raise PartitioningError("max_refine_moves must be non-negative")
        self.inner = inner
        self.seed = seed
        self.time_limit = time_limit
        self.max_coarse_tasks = max_coarse_tasks
        self.cluster_cap_fraction = cluster_cap_fraction
        self.max_refine_moves = max_refine_moves
        self.last_report: Optional[MultilevelReport] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def partition(self, problem: PartitionProblem) -> TemporalPartitioning:
        """Solve *problem* through the coarsen/partition/refine cycle."""
        report = MultilevelReport(inner=self.inner)
        start = time.perf_counter()

        cluster_of, coarse = self._coarsen(problem, report)
        report.coarsen_time = time.perf_counter() - start

        coarse_problem = PartitionProblem(
            graph=coarse,
            resource_capacity=problem.resource_capacity,
            memory_words=problem.memory_words,
            reconfiguration_time=problem.reconfiguration_time,
            max_partitions=problem.max_partitions,
        )
        inner_engine = self._build_inner()
        inner_start = time.perf_counter()
        try:
            coarse_result = inner_engine.partition(coarse_problem)
        except PartitioningError as exc:
            report.inner_time = time.perf_counter() - inner_start
            report.total_time = time.perf_counter() - start
            self.last_report = report
            raise PartitioningError(
                f"multilevel inner {self.inner!r} found no feasible "
                f"partitioning of the {len(coarse)}-cluster coarse graph "
                f"(clustering is incomplete; a finer method may succeed): {exc}"
            ) from exc
        report.inner_time = time.perf_counter() - inner_start
        report.inner_report = getattr(inner_engine, "last_report", None)

        refine_start = time.perf_counter()
        names = problem.graph.task_names()
        state = _MoveState(
            problem,
            {name: coarse_result.assignment[cluster_of[name]] for name in names},
            coarse_result.partition_count,
        )
        violations = state.violations()
        if violations:
            self.last_report = report
            raise PartitioningError(
                f"multilevel inner {self.inner!r} result uncoarsens to an invalid "
                "partitioning: " + "; ".join(violations)
            )
        self._refine(state, report)
        result = TemporalPartitioning(
            graph=problem.graph,
            assignment=dict(zip(names, state.assignment)),
            partition_count=coarse_result.partition_count,
            reconfiguration_time=problem.reconfiguration_time,
            method=self._method_label(report),
            solver_backend=coarse_result.solver_backend,
        )
        report.refine_time = time.perf_counter() - refine_start
        report.total_time = time.perf_counter() - start
        self.last_report = report
        return result

    def _method_label(self, report: MultilevelReport) -> str:
        levels = max(len(report.level_sizes) - 1, 0)
        return f"multilevel[{self.inner},{levels}lv,{report.coarse_tasks}t]"

    def _build_inner(self):
        # Coarse graphs can be arbitrarily reconvergent, so the exact inner
        # solves use the "auto" delay form: Eq. 7 paths when they fit the
        # limit, the chain-prefix formulation otherwise.
        spec = SolverSpec(
            partitioner=self.inner, time_limit=self.time_limit, seed=self.seed
        )
        return make_partitioner(spec, ilp_options=FormulationOptions(delay_form="auto"))

    # ------------------------------------------------------------------
    # Coarsening
    # ------------------------------------------------------------------

    def _coarsen(
        self, problem: PartitionProblem, report: MultilevelReport
    ) -> Tuple[Dict[str, str], TaskGraph]:
        """Merge tasks level by level until the graph is small enough.

        Returns the original-task -> cluster-name mapping and the coarsest
        graph.  Cluster names are the lexicographically smallest member, so
        they stay valid task names and never collide.  The merge loop works
        on index arrays (see the module docstring); cluster delay is
        ``d(u) + d(v)`` for a serial merge (an upper bound on the merged
        internal chain) and ``max(d(u), d(v))`` for siblings (exact:
        sibling members share no edge).  The estimate only steers the
        coarse solve — final delays are re-measured on the real graph.
        """
        graph = problem.graph
        state, level = _read(problem, self.cluster_cap_fraction)
        cluster = np.arange(len(level))
        report.level_sizes.append(len(level))
        while len(level) > self.max_coarse_tasks:
            first, second, serial = self._merge_pass(level, state.cap)
            if not len(first):
                report.stalled = True
                break
            level, relabel = self._contract(state, level, first, second, serial)
            cluster = relabel[cluster]
            report.level_sizes.append(len(level))

        names = state.names
        cluster_names = [names[ident] for ident in level.ident[cluster].tolist()]
        cluster_of = dict(zip(names, cluster_names))
        if len(level) == len(graph):
            return cluster_of, graph
        return cluster_of, self._materialise(graph, state, level, cluster)

    def _merge_pass(
        self, level: _Level, cap: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One maximal set of disjoint safe merges, most critical first.

        Returns ``(first, second, serial)`` arrays: pair ``i`` merges
        ``first[i]`` and ``second[i]``, either contracting the edge
        ``first[i] -> second[i]`` (``serial[i]``) or joining two
        independent clusters on the same ASAP level, ``first[i]`` the
        smaller name.  The topological fold is also the per-pass cycle
        check: it raises if a merge bug ever broke the acyclicity
        invariant.
        """
        n = len(level)
        src, dst, res = level.src, level.dst, level.res
        up, asap, down = _fold(level)
        up_arr = np.array(up)
        down_arr = np.array(down)
        asap_arr = np.array(asap, dtype=np.int64)

        # Serial candidates: the contracted edge is its producer's only
        # output or its consumer's only input, and the pair fits the cap.
        # Edge criticality up(u) + down(v) is the longest path through the
        # edge, exactly what kpaths.edge_criticalities computes on a graph.
        single = (np.bincount(src, minlength=n)[src] == 1) | (
            np.bincount(dst, minlength=n)[dst] == 1
        )
        candidates = np.flatnonzero(single & _fits(res, src, dst, cap))
        u, v = src[candidates], dst[candidates]
        ranked = np.lexsort((v, u, -(up_arr[u] + down_arr[v])))
        matched = bytearray(n)
        first: List[int] = []
        second: List[int] = []
        for producer, consumer in zip(u[ranked].tolist(), v[ranked].tolist()):
            if matched[producer] or matched[consumer]:
                continue
            matched[producer] = matched[consumer] = 1
            first.append(producer)
            second.append(consumer)
        serial_count = len(first)

        # Siblings: unmatched clusters in (ASAP level, name) order, walked in
        # pairs.  A fitting same-level neighbour pair is taken and the walk
        # skips past it, so within each run of fitting pairs every other
        # pair is taken, starting with the run's first.
        free = np.flatnonzero(np.frombuffer(bytes(matched), dtype=np.uint8) == 0)
        walk = free[np.lexsort((free, asap_arr[free]))]
        left, right = walk[:-1], walk[1:]
        fits = (asap_arr[left] == asap_arr[right]) & _fits(res, left, right, cap)
        position = np.arange(len(fits))
        run_start = np.maximum.accumulate(
            np.where(fits & ~np.concatenate(([False], fits[:-1])), position, 0)
        )
        taken = fits & ((position - run_start) % 2 == 0)
        first_arr = np.concatenate((np.array(first, dtype=np.int64), left[taken]))
        second_arr = np.concatenate((np.array(second, dtype=np.int64), right[taken]))
        serial = np.arange(len(first_arr)) < serial_count
        return first_arr, second_arr, serial

    @staticmethod
    def _contract(
        state: _Coarsening,
        level: _Level,
        first: np.ndarray,
        second: np.ndarray,
        serial: np.ndarray,
    ) -> Tuple[_Level, np.ndarray]:
        """The next level after merging each ``(first[i], second[i])`` pair,
        and the old -> new cluster relabel array.

        The merged cluster keeps the smaller index (the smaller name), sums
        the resources, takes the serial sum or sibling maximum of the
        delays, and parallel edges sum their words.
        """
        n = len(level)
        winner = np.minimum(first, second)
        loser = np.maximum(first, second)
        keep = np.ones(n, dtype=bool)
        keep[loser] = False
        index = np.cumsum(keep) - 1
        relabel = index.copy()
        relabel[loser] = index[winner]

        res = level.res.copy()
        res[winner] += level.res[loser]
        delay = level.delay.copy()
        before, after = level.delay[first], level.delay[second]
        delay[winner] = np.where(
            serial, before + after, np.where(after > before, after, before)
        )
        kinds = level.kinds.copy()
        merged = level.kinds[first]
        other = level.kinds[second]
        for pair in np.flatnonzero(merged != other).tolist():
            merged[pair] = state.merged_kinds(int(merged[pair]), int(other[pair]))
        kinds[winner] = merged

        size = int(keep.sum())
        src, dst = relabel[level.src], relabel[level.dst]
        outer = src != dst
        key, edge = np.unique(src[outer] * size + dst[outer], return_inverse=True)
        words = np.zeros(len(key), dtype=np.int64)
        np.add.at(words, edge, level.words[outer])
        next_level = _Level(
            ident=level.ident[keep],
            delay=delay[keep],
            res=res[keep],
            kinds=kinds[keep],
            src=key // size,
            dst=key % size,
            words=words,
        )
        return next_level, relabel

    @staticmethod
    def _materialise(
        graph: TaskGraph, state: _Coarsening, level: _Level, cluster: np.ndarray
    ) -> TaskGraph:
        """Build the final coarse :class:`TaskGraph` from the last level;
        ``cluster[i]`` is the cluster of the ``i``-th task in name order.

        Unmerged tasks keep their original :class:`Task` object (type and
        metadata intact); clusters become ``"cluster"``-typed tasks whose
        metadata records how many original tasks they absorbed.
        """
        n = len(level)
        size = np.bincount(cluster, minlength=n).tolist()
        env_in = np.zeros(n, dtype=np.int64)
        env_out = np.zeros(n, dtype=np.int64)
        np.add.at(env_in, cluster, state.env_in)
        np.add.at(env_out, cluster, state.env_out)
        names = [state.names[ident] for ident in level.ident.tolist()]
        columns = state.columns
        kind_orders = list(state.kind_orders)
        coarse = TaskGraph(f"{graph.name}-coarse")
        for index, name in enumerate(names):
            if size[index] == 1:
                task = graph.task(name)
            else:
                amounts = level.res[index].tolist()
                resources = {
                    kind: amounts[columns[kind]]
                    for kind in kind_orders[level.kinds[index]]
                }
                task = Task(
                    name,
                    cost=TaskCost(
                        resources=ResourceVector(resources),
                        delay=float(level.delay[index]),
                    ),
                    task_type="cluster",
                    metadata={"cluster_size": size[index]},
                )
            coarse.add_task(
                task,
                env_input_words=int(env_in[index]),
                env_output_words=int(env_out[index]),
            )
        coarse.add_edges(
            zip(
                [names[node] for node in level.src.tolist()],
                [names[node] for node in level.dst.tolist()],
                level.words.tolist(),
            )
        )
        return coarse

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def _refine(self, state: _MoveState, report: MultilevelReport) -> None:
        """Bounded greedy boundary refinement of the uncoarsened *state*.

        Each round targets the partition with the largest delay (the lowest
        index on a tie), extracts its longest internal chain, and tries to
        move the chain's first task one partition earlier, then its last
        task one partition later.  A move is kept only when it is legal and
        the computation latency ``sum(delays)`` strictly decreases (the
        partition count never changes, so that is exactly the objective
        delta).  Stops at the first round with no improving move.

        The start was checked whole, so :meth:`_MoveState.check_move` on
        the moving task alone decides legality, and only the two partitions
        a move touches change their delays.
        """
        per_partition = state.partition_delays()
        delays = [per_partition[index] for index in range(1, state.bound + 1)]
        for _ in range(self.max_refine_moves):
            if not self._improving_move(state, delays):
                break
            report.refinement_moves += 1

    @staticmethod
    def _improving_move(state: _MoveState, delays: List[float]) -> bool:
        """Apply the first improving candidate move to *state* and *delays*."""
        worst = max(range(len(delays)), key=lambda i: (delays[i], -i)) + 1
        if state.assignment.count(worst) < 2:
            return False
        chain = state.longest_chain(worst)
        candidates = []
        if worst > 1:
            candidates.append((chain[0], worst - 1))
        if worst < len(delays):
            candidates.append((chain[-1], worst + 1))
        for task, target in candidates:
            boundary_words = state.check_move(task, target)
            if boundary_words is None:
                continue
            state.assignment[task] = target
            moved = state.partition_delays((worst, target))
            trial = list(delays)
            trial[worst - 1] = moved[worst]
            trial[target - 1] = moved[target]
            if sum(trial) < sum(delays):
                state.commit_move(task, worst, boundary_words)
                delays[:] = trial
                return True
            state.assignment[task] = worst
        return False
