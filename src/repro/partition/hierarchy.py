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

Coarsening runs on plain adjacency dicts, not :class:`TaskGraph`
instances, so a pass builds no :class:`Task` objects and checks no edge on
its own.  Only the final coarse level (at most ``max_coarse_tasks``
clusters) becomes a real :class:`TaskGraph`, through one bulk
``add_edges`` call whose single topological sort is that level's check.

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

from ..arch.device import ResourceVector
from ..dag import topological_order
from ..errors import CycleError, PartitioningError
from ..taskgraph.graph import TaskGraph
from ..taskgraph.task import Task, TaskCost
from ..ilp.solver import DEFAULT_BACKEND
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


def _fits(a: Dict[str, int], b: Dict[str, int], cap: Dict[str, int]) -> bool:
    """Whether the summed resource dicts fit the per-cluster cap.

    Same semantics as ``(ResourceVector(a) + ResourceVector(b))
    .fits_within(ResourceVector(cap))`` without the object churn.
    """
    for name in a.keys() | b.keys():
        if a.get(name, 0) + b.get(name, 0) > cap.get(name, 0):
            return False
    return True


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
    ilp_backend / seed / time_limit:
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
        ilp_backend: Optional[str] = None,
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
        self.ilp_backend = ilp_backend
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
        # limit, the chain-prefix formulation otherwise.  The symmetry /
        # cut switches keep their backend-dependent defaults.
        backend = self.ilp_backend or DEFAULT_BACKEND
        builtin = backend == "branch-and-bound"
        ilp_options = FormulationOptions(
            delay_form="auto", symmetry_breaking=builtin, cardinality_cuts=builtin
        )
        spec = SolverSpec(
            partitioner=self.inner,
            backend=backend,
            time_limit=self.time_limit,
            seed=self.seed,
        )
        return make_partitioner(spec, ilp_options=ilp_options)

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
        on plain dicts (see the module docstring); cluster delay is
        ``d(u) + d(v)`` for a serial merge (an upper bound on the merged
        internal chain) and ``max(d(u), d(v))`` for siblings (exact:
        sibling members share no edge).  The estimate only steers the
        coarse solve — final delays are re-measured on the real graph.
        """
        graph = problem.graph
        capacity = problem.resource_capacity
        cap = {
            name: max(int(capacity[name] * self.cluster_cap_fraction), 1)
            for name in capacity.names()
        }
        res: Dict[str, Dict[str, int]] = {}
        delay: Dict[str, float] = {}
        env_in: Dict[str, int] = {}
        env_out: Dict[str, int] = {}
        size: Dict[str, int] = {}
        for name in graph.task_names():
            task = graph.task(name)
            res[name] = dict(task.resources.amounts)
            delay[name] = task.delay
            env_in[name] = graph.env_input_words(name)
            env_out[name] = graph.env_output_words(name)
            size[name] = 1
        words: Dict[Tuple[str, str], int] = {
            (u, v): graph.edge_words(u, v) for u, v in graph.edges()
        }
        succ: Dict[str, List[str]] = {name: [] for name in res}
        pred: Dict[str, List[str]] = {name: [] for name in res}
        for u, v in words:
            succ[u].append(v)
            pred[v].append(u)
        members: Dict[str, List[str]] = {name: [name] for name in res}

        report.level_sizes.append(len(res))
        while len(res) > self.max_coarse_tasks:
            pairs = self._merge_pass(res, delay, succ, pred, cap)
            if not pairs:
                report.stalled = True
                break
            relabel: Dict[str, str] = {}
            for u, v, kind in pairs:
                winner, loser = (u, v) if u < v else (v, u)
                relabel[u] = winner
                relabel[v] = winner
                members[winner] = sorted(members[u] + members[v])
                del members[loser]
                merged = dict(res[u])
                for rname, amount in res[v].items():
                    merged[rname] = merged.get(rname, 0) + amount
                merged_delay = (
                    delay[u] + delay[v]
                    if kind == "serial"
                    else max(delay[u], delay[v])
                )
                merged_env = (env_in[u] + env_in[v], env_out[u] + env_out[v])
                merged_size = size[u] + size[v]
                res[winner] = merged
                delay[winner] = merged_delay
                env_in[winner], env_out[winner] = merged_env
                size[winner] = merged_size
                del res[loser], delay[loser], env_in[loser]
                del env_out[loser], size[loser]
            new_words: Dict[Tuple[str, str], int] = {}
            for (u, v), volume in words.items():
                producer = relabel.get(u, u)
                consumer = relabel.get(v, v)
                if producer == consumer:
                    continue
                key = (producer, consumer)
                new_words[key] = new_words.get(key, 0) + volume
            words = new_words
            succ = {name: [] for name in res}
            pred = {name: [] for name in res}
            for u, v in words:
                succ[u].append(v)
                pred[v].append(u)
            report.level_sizes.append(len(res))

        cluster_of = {
            name: cluster
            for cluster, names in members.items()
            for name in names
        }
        if len(res) == len(graph):
            return cluster_of, graph
        coarse = self._materialise(graph, res, delay, env_in, env_out, size, words)
        return cluster_of, coarse

    def _merge_pass(
        self,
        res: Dict[str, Dict[str, int]],
        delay: Dict[str, float],
        succ: Dict[str, List[str]],
        pred: Dict[str, List[str]],
        cap: Dict[str, int],
    ) -> List[Tuple[str, str, str]]:
        """One maximal set of disjoint safe merges, most critical first.

        Returns ``(u, v, kind)`` triples where ``kind`` is ``"serial"``
        (contracted edge ``u -> v``) or ``"sibling"`` (independent tasks
        on the same ASAP level).  The topological fold below is also the
        per-pass cycle check: it raises if a merge bug ever broke the
        acyclicity invariant.
        """
        order = topological_order(succ, pred)
        if len(order) != len(pred):
            raise CycleError("coarse graph contains a cycle")
        up: Dict[str, float] = {}
        level: Dict[str, int] = {}
        for name in order:
            preds = pred[name]
            if preds:
                up[name] = max(up[p] for p in preds) + delay[name]
                level[name] = max(level[p] for p in preds) + 1
            else:
                up[name] = delay[name]
                level[name] = 0
        down: Dict[str, float] = {}
        for name in reversed(order):
            succs = succ[name]
            down[name] = (max(down[s] for s in succs) if succs else 0.0) + delay[name]

        matched: set = set()
        pairs: List[Tuple[str, str, str]] = []
        # Edge criticality up(u) + down(v): the longest path through the
        # edge, exactly what kpaths.edge_criticalities computes on a graph.
        ranked = sorted(
            ((u, v) for u in succ for v in succ[u]),
            key=lambda edge: (-(up[edge[0]] + down[edge[1]]), edge),
        )
        for u, v in ranked:
            if u in matched or v in matched:
                continue
            if len(succ[u]) != 1 and len(pred[v]) != 1:
                continue
            if not _fits(res[u], res[v], cap):
                continue
            matched.update((u, v))
            pairs.append((u, v, "serial"))

        groups: Dict[int, List[str]] = {}
        for name, asap in level.items():
            if name not in matched:
                groups.setdefault(asap, []).append(name)
        for asap in sorted(groups):
            group = sorted(groups[asap])
            index = 0
            while index + 1 < len(group):
                u, v = group[index], group[index + 1]
                if _fits(res[u], res[v], cap):
                    matched.update((u, v))
                    pairs.append((u, v, "sibling"))
                    index += 2
                else:
                    index += 1
        return pairs

    @staticmethod
    def _materialise(
        graph: TaskGraph,
        res: Dict[str, Dict[str, int]],
        delay: Dict[str, float],
        env_in: Dict[str, int],
        env_out: Dict[str, int],
        size: Dict[str, int],
        words: Dict[Tuple[str, str], int],
    ) -> TaskGraph:
        """Build the final coarse :class:`TaskGraph` from the dict state.

        Unmerged tasks keep their original :class:`Task` object (type and
        metadata intact); clusters become ``"cluster"``-typed tasks whose
        metadata records how many original tasks they absorbed.
        """
        coarse = TaskGraph(f"{graph.name}-coarse")
        for name in sorted(res):
            if size[name] == 1:
                coarse.add_task(
                    graph.task(name),
                    env_input_words=env_in[name],
                    env_output_words=env_out[name],
                )
            else:
                coarse.add_task(
                    Task(
                        name,
                        cost=TaskCost(
                            resources=ResourceVector(res[name]), delay=delay[name]
                        ),
                        task_type="cluster",
                        metadata={"cluster_size": size[name]},
                    ),
                    env_input_words=env_in[name],
                    env_output_words=env_out[name],
                )
        coarse.add_edges(
            (producer, consumer, volume)
            for (producer, consumer), volume in sorted(words.items())
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
