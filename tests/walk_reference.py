"""The whole-graph walks as they read the graph through its per-name accessors.

:class:`ReferenceMoveState`, :func:`reference_read`,
:func:`reference_in_partition_chain_delays`, :func:`reference_cover_check`,
:func:`reference_boundary_words` and :func:`reference_violations` keep the
walks of the annealer's move state, the coarsener's first level, the
partition delays, the assignment cover check, one boundary's words and
:func:`~repro.partition.validate.validate_partitioning` as they were
before they read :meth:`~repro.taskgraph.graph.TaskGraph.maps`: one
name-checking accessor call (``task``, ``predecessors``, ``successors``,
``edge_words``, ``env_input_words``, ``env_output_words``,
``weighted_edges``) per task and edge end.  They are kept verbatim, so a
walk that reads the maps in another order, or drops a check, shows up as
a failed comparison.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import PartitioningError
from repro.partition.anneal_partitioner import _MoveState
from repro.partition.hierarchy import _INT64_LIMIT, _Coarsening, _int64, _Level
from repro.partition.result import TemporalPartitioning
from repro.partition.spec import PartitionProblem
from repro.taskgraph.graph import TaskGraph


class ReferenceMoveState(_MoveState):
    """The move state built through the graph's per-name accessors."""

    def __init__(
        self, problem: PartitionProblem, assignment: Mapping[str, int], bound: int
    ) -> None:
        graph = problem.graph
        names = graph.task_names()
        self.names = names
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
        self.kinds = kinds
        self.amounts = [[task.resources[kind] for kind in kinds] for task in tasks]
        self.capacity = [problem.resource_capacity[kind] for kind in kinds]
        self.memory_words = problem.memory_words
        self.reconfiguration_time = problem.reconfiguration_time

        self.bound = bound
        self.assignment = [assignment[name] for name in names]
        self.usage = [[0] * len(kinds) for _ in range(bound + 1)]
        self.crossing = [0] * (bound + 1)
        for task, partition in enumerate(self.assignment):
            if not 1 <= partition <= bound:
                raise PartitioningError(
                    f"task {names[task]!r} assigned to partition {partition}, "
                    f"outside 1..{bound}"
                )
            row = self.usage[partition]
            for kind, amount in enumerate(self.amounts[task]):
                row[kind] += amount
            for succ, words in self.succs[task]:
                for boundary in range(partition, self.assignment[succ]):
                    self.crossing[boundary] += words


def reference_read(problem: PartitionProblem, cap_fraction: float) -> Tuple[_Coarsening, _Level]:
    """The tasks of *problem* in name order, as the coarsener's first level."""
    graph = problem.graph
    names = sorted(graph.task_names())
    tasks = [graph.task(name) for name in names]
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
        env_in=_int64([graph.env_input_words(name) for name in names], "env input words"),
        env_out=_int64([graph.env_output_words(name) for name in names], "env output words"),
        columns=columns,
        cap=np.array(
            [min(cap.get(kind, 0), _INT64_LIMIT - 1) for kind in columns], dtype=np.int64
        ),
        kind_orders=kind_orders,
    )

    rank = {name: index for index, name in enumerate(names)}
    triples = graph.weighted_edges()
    src = np.array([rank[producer] for producer, _, _ in triples], dtype=np.int64)
    dst = np.array([rank[consumer] for _, consumer, _ in triples], dtype=np.int64)
    words = _int64([volume for _, _, volume in triples], "edge words")
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


def reference_in_partition_chain_delays(
    graph: TaskGraph, assignment: Mapping[str, int]
) -> Dict[str, float]:
    """Longest same-partition dependency chain ending at each task (seconds),
    keyed in topological order."""
    longest: Dict[str, float] = {}
    for name in graph.topological_order():
        partition = assignment[name]
        best_pred = 0.0
        for pred in graph.predecessors(name):
            if assignment[pred] == partition:
                best_pred = max(best_pred, longest[pred])
        longest[name] = best_pred + graph.task(name).delay
    return longest


def reference_cover_check(graph: TaskGraph, assignment: Mapping[str, int]) -> None:
    """Raise the cover-check error of a :class:`TemporalPartitioning` whose
    *assignment* does not name exactly the tasks of *graph*."""
    task_names = set(graph.task_names())
    assigned = set(assignment)
    if assigned != task_names:
        missing = sorted(task_names - assigned)
        extra = sorted(assigned - task_names)
        raise PartitioningError(
            f"assignment does not cover the task graph exactly "
            f"(missing={missing}, extra={extra})"
        )


def reference_boundary_words(result: TemporalPartitioning, boundary: int) -> int:
    """Words stored across *boundary*, from one walk over every edge."""
    if not 1 <= boundary <= result.partition_count - 1:
        if result.partition_count == 1:
            return 0
        raise PartitioningError(
            f"boundary {boundary} outside 1..{result.partition_count - 1}"
        )
    total = 0
    for producer, consumer, words in result.graph.weighted_edges():
        if (
            result.assignment[producer] <= boundary
            < result.assignment[consumer]
        ):
            total += words
    return total


def reference_violations(problem: PartitionProblem, result: TemporalPartitioning) -> List[str]:
    """What :func:`~repro.partition.validate.validate_partitioning` reports,
    with one edge walk per boundary."""
    violations: List[str] = []
    graph = problem.graph
    if set(result.assignment) != set(graph.task_names()):
        violations.append("assignment does not cover the problem's task set exactly")
        return violations
    for producer, consumer in graph.edges():
        if result.partition_of(producer) > result.partition_of(consumer):
            violations.append(
                f"temporal order violated: {producer!r} (P{result.partition_of(producer)}) "
                f"feeds {consumer!r} (P{result.partition_of(consumer)})"
            )
    capacity = problem.resource_capacity
    for info in result.partitions:
        for resource_name in info.resources.names():
            used = info.resources[resource_name]
            available = capacity[resource_name]
            if used > available:
                violations.append(
                    f"partition {info.index} uses {used} {resource_name}, "
                    f"exceeding the capacity of {available}"
                )
    for boundary in range(1, result.partition_count):
        words = reference_boundary_words(result, boundary)
        if words > problem.memory_words:
            violations.append(
                f"boundary {boundary} stores {words} words, exceeding the memory "
                f"constraint of {problem.memory_words} words"
            )
    used_indices = sorted(set(result.assignment.values()))
    expected = list(range(1, result.partition_count + 1))
    if used_indices != expected:
        violations.append(
            f"partition indices {used_indices} are not contiguous 1..{result.partition_count}"
        )
    return violations
