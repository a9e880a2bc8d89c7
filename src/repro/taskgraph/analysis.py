"""Analyses over task graphs: paths, critical paths, levels, bounds.

Two of these are load-bearing for the reproduction:

* :func:`root_to_leaf_paths` enumerates the path set ``P_rl`` used by the
  ILP's path-delay constraints (Eq. 7);
* :func:`partition_lower_bound` is the preprocessing step that seeds the
  partition-count search (sum of task resources divided by the FPGA
  capacity, rounded up).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.device import ResourceVector
from ..dag import reachable
from ..errors import GraphError
from .graph import TaskGraph

#: Default cap on the number of enumerated root-to-leaf paths before the ILP
#: formulation falls back to the prefix-delay formulation.
DEFAULT_PATH_LIMIT = 20000


def root_to_leaf_paths(
    graph: TaskGraph, limit: Optional[int] = DEFAULT_PATH_LIMIT
) -> List[Tuple[str, ...]]:
    """All simple paths from a root task to a leaf task (the paper's ``P_rl``).

    Paths come per root in :meth:`TaskGraph.roots` order, each root's
    depth-first with successors in edge order.  Isolated tasks (both root
    and leaf) yield a single one-task path.  When
    *limit* is given and the graph has more paths than the limit, a
    :class:`GraphError` is raised so the caller can switch to the fallback
    delay formulation instead of silently dropping constraints.  The count
    is checked by :func:`count_root_to_leaf_paths` before any enumeration
    starts, so an over-limit graph fails in ``O(V + E)`` time instead of
    after grinding through *limit* simple paths.
    """
    graph.validate()
    if limit is not None and count_root_to_leaf_paths(graph) > limit:
        raise GraphError(
            f"task graph {graph.name!r} has more than {limit} "
            "root-to-leaf paths; use the prefix-delay formulation"
        )
    paths: List[Tuple[str, ...]] = []
    leaves = set(graph.leaves())
    for root in graph.roots():
        if root in leaves:
            paths.append((root,))
            continue
        path = [root]
        branches = [iter(graph.successors(root))]
        while branches:
            task = next(branches[-1], None)
            if task is None:
                branches.pop()
                path.pop()
            elif task in leaves:
                paths.append((*path, task))
            else:
                path.append(task)
                branches.append(iter(graph.successors(task)))
    return paths


def count_root_to_leaf_paths(graph: TaskGraph) -> int:
    """Number of root-to-leaf paths, computed without enumerating them."""
    graph.validate()
    counts: Dict[str, int] = {}
    order = graph.topological_order()
    for name in order:
        preds = graph.predecessors(name)
        counts[name] = 1 if not preds else sum(counts[p] for p in preds)
    return sum(counts[leaf] for leaf in graph.leaves())


def path_delay(graph: TaskGraph, path: Sequence[str]) -> float:
    """Sum of task delays along *path* (seconds)."""
    return sum(graph.task(name).delay for name in path)


def critical_path(graph: TaskGraph) -> Tuple[List[str], float]:
    """The maximum-delay root-to-leaf path and its delay.

    Computed by dynamic programming over the topological order, so it is safe
    for graphs whose path count would make enumeration infeasible.
    """
    graph.validate()
    best_delay: Dict[str, float] = {}
    best_pred: Dict[str, Optional[str]] = {}
    for name in graph.topological_order():
        delay = graph.task(name).delay
        preds = graph.predecessors(name)
        if not preds:
            best_delay[name] = delay
            best_pred[name] = None
        else:
            chosen = max(preds, key=lambda p: best_delay[p])
            best_delay[name] = best_delay[chosen] + delay
            best_pred[name] = chosen
    if not best_delay:
        return [], 0.0
    end = max(best_delay, key=lambda n: best_delay[n])
    path = [end]
    while best_pred[path[-1]] is not None:
        path.append(best_pred[path[-1]])
    path.reverse()
    return path, best_delay[end]


def asap_levels(graph: TaskGraph) -> Dict[str, int]:
    """Topological level of each task (roots at level 0)."""
    levels: Dict[str, int] = {}
    for name in graph.topological_order():
        preds = graph.predecessors(name)
        levels[name] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def tasks_by_level(graph: TaskGraph) -> List[List[str]]:
    """Tasks grouped by ASAP level, each group in insertion order."""
    levels = asap_levels(graph)
    depth = max(levels.values(), default=-1) + 1
    grouped: List[List[str]] = [[] for _ in range(depth)]
    for name in graph.task_names():
        grouped[levels[name]].append(name)
    return grouped


def partition_lower_bound(
    graph: TaskGraph,
    capacity: ResourceVector,
    tasks: Optional[Sequence[str]] = None,
) -> int:
    """Paper preprocessing step: minimum number of partitions by resources.

    ``ceil( sum_t R(t) / R_max )`` taken over every resource type, with a
    floor of 1.  A single task larger than the FPGA makes the instance
    infeasible, which is reported by raising :class:`GraphError` here rather
    than deep inside the solver.  *tasks* restricts the bound to a subset
    of task names (default: every task): the partitions holding those tasks
    number at least the returned value.
    """
    selected = list(graph.tasks()) if tasks is None else [graph.task(n) for n in tasks]
    totals = ResourceVector.total(task.resources for task in selected)
    bound = 1
    for name in totals.names():
        available = capacity[name]
        needed = totals[name]
        if needed == 0:
            continue
        if available <= 0:
            raise GraphError(
                f"task graph {graph.name!r} needs resource {name!r} but the "
                "device provides none"
            )
        bound = max(bound, math.ceil(needed / available))
    for task in selected:
        if not task.resources.fits_within(capacity):
            raise GraphError(
                f"task {task.name!r} does not fit on the device by itself; "
                "temporal partitioning cannot help"
            )
    return bound


def max_tasks_per_partition(
    graph: TaskGraph,
    capacity: ResourceVector,
    tasks: Optional[Sequence[str]] = None,
) -> int:
    """Largest number of tasks any single partition can hold, by resources.

    For each resource type, sort the per-task usages ascending and count how
    many of the *smallest* consumers fit within the capacity; tasks that use
    none of the resource are free.  The minimum over resource types bounds
    every feasible partition's cardinality: if even the ``k+1`` cheapest
    tasks overflow some resource, no partition anywhere can hold ``k+1``
    tasks.  Returns at least 1 (single-task feasibility is checked by
    :func:`partition_lower_bound`).  *tasks* restricts the count to a
    subset of task names (default: every task).
    """
    names = graph.task_names() if tasks is None else list(tasks)
    best = max(len(names), 1)
    for resource in capacity.names():
        available = capacity[resource]
        usages = sorted(
            usage
            for name in names
            if (usage := graph.task(name).resources[resource]) > 0
        )
        if not usages:
            continue
        consumed = 0.0
        count = 0
        for usage in usages:
            if consumed + usage > available:
                break
            consumed += usage
            count += 1
        best = min(best, count + (len(names) - len(usages)))
    return max(best, 1)


def cardinality_lower_bound(
    graph: TaskGraph,
    capacity: ResourceVector,
    tasks: Optional[Sequence[str]] = None,
) -> int:
    """Lower bound on the partition count from per-partition cardinality.

    With at most ``k`` tasks per partition (:func:`max_tasks_per_partition`),
    any feasible solution needs at least ``ceil(|T| / k)`` partitions.  This
    bin-packing style bound is incomparable with the resource-sum bound of
    :func:`partition_lower_bound` — e.g. many same-sized tasks that pack
    poorly push this bound higher — so the preprocessing step takes the max
    of both.  *tasks* restricts the bound to a subset of task names, as in
    :func:`partition_lower_bound`.
    """
    names = graph.task_names() if tasks is None else list(tasks)
    if not names:
        return 1
    return math.ceil(len(names) / max_tasks_per_partition(graph, capacity, names))


def transitive_reduction(graph: TaskGraph) -> TaskGraph:
    """A copy of *graph* with redundant (transitively implied) edges removed.

    Data volumes on removed edges are **not** discarded silently — removing an
    edge would change the memory constraint — so this helper refuses to drop
    edges that carry data and is intended for purely structural analyses
    (e.g. drawing, path counting).  An edge ``u -> v`` is redundant when
    ``v`` is reachable from another successor of ``u``; the kept edges stay
    in :meth:`TaskGraph.edges` order.
    """
    graph.validate()
    kept: List[Tuple[str, str, int]] = []
    for producer in graph.task_names():
        consumers = graph.successors(producer)
        implied = set().union(*(reachable(graph.successors, c) for c in consumers))
        for consumer in consumers:
            words = graph.edge_words(producer, consumer)
            if consumer not in implied:
                kept.append((producer, consumer, words))
            elif words > 0:
                raise GraphError(
                    f"cannot reduce edge {producer!r} -> {consumer!r}: it carries "
                    f"{words} words of data"
                )
    result = TaskGraph(f"{graph.name}-tr")
    for name in graph.task_names():
        result.add_task(
            graph.task(name),
            env_input_words=graph.env_input_words(name),
            env_output_words=graph.env_output_words(name),
        )
    result.add_edges(kept)
    return result


def downstream_tasks(graph: TaskGraph, task_name: str) -> List[str]:
    """All tasks reachable from *task_name* (excluding itself)."""
    return sorted(reachable(graph.successors, task_name))


def upstream_tasks(graph: TaskGraph, task_name: str) -> List[str]:
    """All tasks from which *task_name* is reachable (excluding itself)."""
    return sorted(reachable(graph.predecessors, task_name))


def independent_task_pairs(graph: TaskGraph) -> List[Tuple[str, str]]:
    """Unordered pairs of tasks with no path between them in either direction."""
    names = graph.task_names()
    downstream = {name: reachable(graph.successors, name) for name in names}
    pairs: List[Tuple[str, str]] = []
    for index, first in enumerate(names):
        for second in names[index + 1:]:
            if second not in downstream[first] and first not in downstream[second]:
                pairs.append((first, second))
    return pairs
