"""Problem specification for temporal partitioning.

Bundles the three inputs of the paper's Section 2.1: the behaviour
specification (task graph with synthesis costs), and the target architecture
parameters ``R_max``, ``M_max`` and ``CT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..arch.board import RtrSystem
from ..arch.device import ResourceVector
from ..errors import PartitioningError
from ..taskgraph.analysis import cardinality_lower_bound, partition_lower_bound
from ..taskgraph.graph import TaskGraph


@dataclass
class PartitionProblem:
    """A temporal-partitioning problem instance.

    Parameters
    ----------
    graph:
        The task graph; every task must carry a synthesis cost (``R(t)``,
        ``D(t)``).
    resource_capacity:
        ``R_max`` — the FPGA resource capacity.
    memory_words:
        ``M_max`` — the on-board memory size in words available for
        inter-partition data.
    reconfiguration_time:
        ``CT`` — seconds per FPGA reconfiguration, used in the objective
        ``N*CT + sum_p d_p``.
    max_partitions:
        Optional hard cap on the number of partitions explored by the
        relax-N loop (defaults to the number of tasks).
    """

    graph: TaskGraph
    resource_capacity: ResourceVector
    memory_words: int
    reconfiguration_time: float
    max_partitions: Optional[int] = None

    def __post_init__(self) -> None:
        self.graph.validate()
        if not self.graph.all_estimated():
            missing = [t.name for t in self.graph.tasks() if not t.has_cost]
            raise PartitioningError(
                "every task needs a synthesis cost before partitioning; missing: "
                f"{missing}"
            )
        if self.memory_words < 0:
            raise PartitioningError("memory_words must be non-negative")
        if self.reconfiguration_time < 0:
            raise PartitioningError("reconfiguration_time must be non-negative")
        if self.max_partitions is not None and self.max_partitions < 1:
            raise PartitioningError("max_partitions must be at least 1")

    @property
    def task_count(self) -> int:
        """Number of tasks in the problem."""
        return len(self.graph)

    def minimum_partitions(self) -> int:
        """The preprocessing lower bound on the number of partitions.

        Max of the paper's resource-sum bound and the cardinality bound
        (``ceil(tasks / max-tasks-per-partition)``).  Both are sound, so the
        relax-N loop can skip every bound below the max without solving —
        skipped bounds are provably infeasible.
        """
        return max(
            partition_lower_bound(self.graph, self.resource_capacity),
            cardinality_lower_bound(self.graph, self.resource_capacity),
        )

    def delay_lower_bound(self) -> float:
        """A lower bound on ``sum_p d_p`` (seconds) over feasible partitionings.

        A partition holding a task ``t`` has ``d_p >= D(t)``.  For each
        distinct positive task delay ``theta``, the tasks with
        ``D(t) >= theta`` need at least ``LB(theta)`` partitions (the two
        preprocessing bounds of :meth:`minimum_partitions` over that
        subset), so at least ``LB(theta)`` partitions have
        ``d_p >= theta``.  With the distinct delays ``theta_1 < ... <
        theta_m`` and ``theta_0 = 0``::

            sum_p d_p >= sum_i (theta_i - theta_{i-1}) * LB(theta_i)

        ``LB`` is a running max from the largest delay down, since every
        task of a subset also belongs to each larger one.  Zero-delay tasks
        sort last and never close a level, so they add nothing.
        """
        tasks = sorted(self.graph.tasks(), key=lambda task: task.delay, reverse=True)
        names = [task.name for task in tasks]
        bound = 0.0
        needed = 0
        for index, task in enumerate(tasks):
            below = tasks[index + 1].delay if index + 1 < len(tasks) else 0.0
            if below == task.delay:
                continue  # the level closes at its last task
            subset = names[: index + 1]
            needed = max(
                needed,
                partition_lower_bound(self.graph, self.resource_capacity, subset),
                cardinality_lower_bound(self.graph, self.resource_capacity, subset),
            )
            bound += (task.delay - below) * needed
        return bound

    def partition_cap(self) -> int:
        """Largest partition count the relax-N loop may try."""
        cap = self.max_partitions if self.max_partitions is not None else self.task_count
        return max(cap, self.minimum_partitions())

    @classmethod
    def from_system(
        cls,
        graph: TaskGraph,
        system: RtrSystem,
        max_partitions: Optional[int] = None,
    ) -> "PartitionProblem":
        """Build a problem from a task graph and an :class:`RtrSystem`."""
        return cls(
            graph=graph,
            resource_capacity=system.resource_capacity,
            memory_words=system.memory_capacity_words,
            reconfiguration_time=system.reconfiguration_time,
            max_partitions=max_partitions,
        )

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"PartitionProblem({self.graph.name!r}: {self.task_count} tasks, "
            f"R_max={self.resource_capacity.as_dict()}, "
            f"M_max={self.memory_words} words, CT={self.reconfiguration_time * 1e3:.1f} ms)"
        )
