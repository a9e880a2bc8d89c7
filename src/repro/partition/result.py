"""Temporal partitioning results.

A :class:`TemporalPartitioning` records the assignment of tasks to ordered
temporal partitions plus everything downstream consumers need: per-partition
delays, resource usage, the data volumes crossing each boundary, and solver
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from ..arch.device import ResourceVector
from ..errors import PartitioningError
from ..taskgraph.graph import TaskGraph


def boundary_volumes_of(
    assignment: Mapping[str, int],
    succ: Mapping[str, Mapping[str, int]],
    partition_count: int,
    backward: Optional[List[Tuple[str, int, str, int]]] = None,
) -> List[int]:
    """The words stored at every boundary ``1..N-1`` of *assignment*, in
    order, from one walk over the successor map *succ*.

    Each forward edge adds its words where its producer's partition
    starts and takes them off where its consumer's starts; the running
    sum at boundary ``b`` is then the words of every edge with
    ``producer <= b < consumer``.  An edge whose producer sits in a later
    partition than its consumer stores nothing; when *backward* is given,
    it is appended there as ``(producer, partition, consumer, partition)``.
    """
    change = [0] * (partition_count + 1)
    for producer, consumers in succ.items():
        first = assignment[producer]
        for consumer, words in consumers.items():
            last = assignment[consumer]
            if first < last:
                change[first] += words
                change[last] -= words
            elif first > last and backward is not None:
                backward.append((producer, first, consumer, last))
    return list(accumulate(change[1:partition_count]))


@dataclass
class PartitionInfo:
    """One temporal partition of the result."""

    index: int
    tasks: List[str]
    delay: float
    resources: ResourceVector

    @property
    def task_count(self) -> int:
        """Number of tasks mapped to this partition."""
        return len(self.tasks)

    @property
    def clbs(self) -> int:
        """CLB usage of this partition."""
        from ..arch.device import CLB

        return self.resources[CLB]


@dataclass
class TemporalPartitioning:
    """Assignment of every task to one of ``N`` ordered temporal partitions."""

    graph: TaskGraph
    assignment: Dict[str, int]  # task name -> partition index (1-based)
    partition_count: int
    reconfiguration_time: float
    partitions: List[PartitionInfo] = field(default_factory=list)
    method: str = ""
    objective_value: Optional[float] = None
    solve_time: float = 0.0
    solver_backend: str = ""

    def __post_init__(self) -> None:
        if self.partition_count < 1:
            raise PartitioningError("partition_count must be at least 1")
        task_names, assigned = self.graph.maps().tasks.keys(), self.assignment.keys()
        if assigned != task_names:
            missing = sorted(task_names - assigned)
            extra = sorted(assigned - task_names)
            raise PartitioningError(
                f"assignment does not cover the task graph exactly "
                f"(missing={missing}, extra={extra})"
            )
        for name, index in self.assignment.items():
            if not 1 <= index <= self.partition_count:
                raise PartitioningError(
                    f"task {name!r} assigned to partition {index}, outside "
                    f"1..{self.partition_count}"
                )
        if not self.partitions:
            self.partitions = self._build_partition_infos()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_partition_infos(self) -> List[PartitionInfo]:
        """Every partition's tasks, delay and resources.

        A partition's delay is the longest dependency chain inside it (the
        paper's Eq. 7), recomputed from the assignment rather than trusted
        from the solver's ``d_p`` values, so every partitioner (ILP, list,
        greedy) is measured with exactly the same rule.  Chains never cross
        partitions, so one walk over one topological order gives every
        partition's delay.
        """
        tasks = self.graph.maps().tasks
        members: List[List[str]] = [[] for _ in range(self.partition_count)]
        for name in tasks:
            members[self.assignment[name] - 1].append(name)
        chains: List[List[float]] = [[] for _ in range(self.partition_count)]
        for name, chain in in_partition_chain_delays(self.graph, self.assignment).items():
            chains[self.assignment[name] - 1].append(chain)
        infos: List[PartitionInfo] = []
        for slot, names in enumerate(members):
            infos.append(
                PartitionInfo(
                    index=slot + 1,
                    tasks=names,
                    delay=max(chains[slot], default=0.0),
                    resources=ResourceVector.total(
                        tasks[name].resources for name in names
                    ),
                )
            )
        return infos

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def partition_of(self, task_name: str) -> int:
        """Partition index (1-based) the task is assigned to."""
        try:
            return self.assignment[task_name]
        except KeyError:
            raise PartitioningError(f"task {task_name!r} is not in the assignment")

    def tasks_in_partition(self, index: int) -> List[str]:
        """Tasks assigned to partition *index*, in task-graph insertion order."""
        if not 1 <= index <= self.partition_count:
            raise PartitioningError(
                f"partition index {index} outside 1..{self.partition_count}"
            )
        return [
            name for name in self.graph.task_names() if self.assignment[name] == index
        ]

    def partition(self, index: int) -> PartitionInfo:
        """The :class:`PartitionInfo` for partition *index*."""
        if not 1 <= index <= self.partition_count:
            raise PartitioningError(
                f"partition index {index} outside 1..{self.partition_count}"
            )
        return self.partitions[index - 1]

    @property
    def partition_delays(self) -> List[float]:
        """Per-partition delays ``d_p`` in partition order."""
        return [info.delay for info in self.partitions]

    @property
    def computation_latency(self) -> float:
        """``sum_p d_p`` — latency of one pass excluding reconfiguration."""
        return sum(self.partition_delays)

    @property
    def total_latency(self) -> float:
        """``N*CT + sum_p d_p`` — the paper's optimisation objective."""
        return self.partition_count * self.reconfiguration_time + self.computation_latency

    def boundary_words(self, boundary: int) -> int:
        """Words stored in memory across boundary *boundary* (after partition
        *boundary*, before partition *boundary*+1), i.e. the data of every
        edge whose producer lies in partitions ``1..boundary`` and whose
        consumer lies in partitions ``boundary+1..N``."""
        if not 1 <= boundary <= self.partition_count - 1:
            if self.partition_count == 1:
                return 0
            raise PartitioningError(
                f"boundary {boundary} outside 1..{self.partition_count - 1}"
            )
        return self.boundary_volumes()[boundary - 1]

    def boundary_volumes(self) -> List[int]:
        """:meth:`boundary_words` of every boundary ``1..N-1``, in order,
        from one walk over the edges (:func:`boundary_volumes_of`)."""
        return boundary_volumes_of(
            self.assignment, self.graph.maps().succ, self.partition_count
        )

    def max_boundary_words(self) -> int:
        """Largest inter-partition data volume across any boundary."""
        return max(self.boundary_volumes(), default=0)

    def cut_edges(self, boundary: int) -> List[tuple]:
        """Edges whose data is live across boundary *boundary*."""
        return [
            (producer, consumer)
            for producer, consumer in self.graph.edges()
            if self.assignment[producer] <= boundary < self.assignment[consumer]
        ]

    def describe(self) -> str:
        """Multi-line human readable summary."""
        lines = [
            f"temporal partitioning of {self.graph.name!r} ({self.method or 'unknown'}): "
            f"{self.partition_count} partitions, latency "
            f"{self.total_latency * 1e6:.2f} us (compute "
            f"{self.computation_latency * 1e9:.0f} ns)"
        ]
        for info in self.partitions:
            lines.append(
                f"  P{info.index}: {info.task_count} tasks, {info.clbs} CLBs, "
                f"{info.delay * 1e9:.0f} ns"
            )
        return "\n".join(lines)


def in_partition_chain_delays(
    graph: TaskGraph, assignment: Mapping[str, int]
) -> Dict[str, float]:
    """Longest same-partition dependency chain ending at each task (seconds),
    keyed in topological order.

    The per-partition maximum of these is the partition's Eq. 7 delay ``d_p``.
    A predecessor's chain replaces the best one so far when it is strictly
    longer, which is what ``max(best, chain)`` keeps (NaN and signed zeros
    included), without a call per edge.
    """
    tasks, _, _, _, preds = graph.maps()
    longest: Dict[str, float] = {}
    for name in graph.topological_order():
        partition = assignment[name]
        best_pred = 0.0
        for pred in preds[name]:
            if assignment[pred] == partition:
                chain = longest[pred]
                if chain > best_pred:
                    best_pred = chain
        longest[name] = best_pred + tasks[name].delay
    return longest
