"""The multilevel coarsener as it was before it ran on index arrays.

:class:`ReferenceCoarsener` keeps ``_coarsen``, ``_merge_pass`` and
``_materialise`` verbatim from the version that merged clusters in
name-keyed dicts, so any divergence of
:class:`~repro.partition.MultilevelPartitioner`'s coarsening (a cluster, its
resources, delay or environment words, a coarse edge, their order, the
level sizes or the stall flag) shows up as a failed comparison.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.arch.device import ResourceVector
from repro.dag import topological_order
from repro.errors import CycleError
from repro.partition.hierarchy import MultilevelReport
from repro.partition.spec import PartitionProblem
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.task import Task, TaskCost


def _fits(a: Dict[str, int], b: Dict[str, int], cap: Dict[str, int]) -> bool:
    """Whether the summed resource dicts fit the per-cluster cap.

    Same semantics as ``(ResourceVector(a) + ResourceVector(b))
    .fits_within(ResourceVector(cap))`` without the object churn.
    """
    for name in a.keys() | b.keys():
        if a.get(name, 0) + b.get(name, 0) > cap.get(name, 0):
            return False
    return True


class ReferenceCoarsener:
    """Dict-based coarsening with the multilevel partitioner's parameters."""

    def __init__(self, max_coarse_tasks: int = 48, cluster_cap_fraction: float = 0.5) -> None:
        self.max_coarse_tasks = max_coarse_tasks
        self.cluster_cap_fraction = cluster_cap_fraction

    def coarsen(
        self, problem: PartitionProblem
    ) -> Tuple[Dict[str, str], TaskGraph, MultilevelReport]:
        """The cluster of every task, the coarsest graph and the report."""
        report = MultilevelReport()
        cluster_of, coarse = self._coarsen(problem, report)
        return cluster_of, coarse, report

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
