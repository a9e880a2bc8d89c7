"""Level-clustering temporal partitioner (second heuristic baseline).

This baseline mirrors the scheduling/clustering style of earlier temporal
partitioning work the paper cites (GajjalaPurna & Bhatia, Trimberger): tasks
are grouped by ASAP level, levels are concatenated into a partition until the
resource constraint would be violated, then a new partition starts.  Unlike
the list partitioner it never mixes "deep" tasks into an earlier partition, so
it tends to produce more partitions but shorter per-partition critical paths.
"""

from __future__ import annotations

from typing import Dict

from ..arch.device import ResourceVector
from ..errors import PartitioningError
from ..taskgraph.analysis import tasks_by_level
from .result import TemporalPartitioning
from .spec import PartitionProblem


class LevelClusteringPartitioner:
    """Greedy level-by-level clustering into temporal partitions."""

    def __init__(self, split_levels: bool = True) -> None:
        #: Whether a single level that does not fit in an empty partition may
        #: be split across partitions (tasks within a level are independent,
        #: so splitting preserves the temporal-order constraint).
        self.split_levels = split_levels

    def partition(self, problem: PartitionProblem) -> TemporalPartitioning:
        """Cluster ASAP levels into successive temporal partitions."""
        graph = problem.graph
        capacity = problem.resource_capacity
        levels = tasks_by_level(graph)

        assignment: Dict[str, int] = {}
        current_partition = 1
        current_usage = ResourceVector({})

        for level in levels:
            level_usage = ResourceVector({})
            for name in level:
                level_usage = level_usage + graph.task(name).resources

            if (current_usage + level_usage).fits_within(capacity):
                for name in level:
                    assignment[name] = current_partition
                current_usage = current_usage + level_usage
                continue

            # The whole level does not fit on top of the current contents.
            if not self.split_levels:
                if current_usage.amounts:
                    current_partition += 1
                    current_usage = ResourceVector({})
                if not level_usage.fits_within(capacity):
                    raise PartitioningError(
                        "a whole level exceeds the device capacity and "
                        "split_levels is disabled"
                    )
                for name in level:
                    assignment[name] = current_partition
                current_usage = level_usage
                continue

            # Split the level task by task.
            for name in level:
                task = graph.task(name)
                if not task.resources.fits_within(capacity):
                    raise PartitioningError(
                        f"task {name!r} does not fit on the device by itself"
                    )
                trial = current_usage + task.resources
                if not trial.fits_within(capacity):
                    current_partition += 1
                    current_usage = ResourceVector({})
                    trial = task.resources
                assignment[name] = current_partition
                current_usage = trial

        partition_count = max(assignment.values())
        result = TemporalPartitioning(
            graph=graph,
            assignment=assignment,
            partition_count=partition_count,
            reconfiguration_time=problem.reconfiguration_time,
            method="level-clustering",
        )
        self._check_memory(problem, result)
        return result

    @staticmethod
    def _check_memory(problem: PartitionProblem, result: TemporalPartitioning) -> None:
        """Level clustering ignores the memory constraint while packing; verify
        it afterwards and fail loudly rather than return an invalid result."""
        for boundary, words in enumerate(result.boundary_volumes(), start=1):
            if words > problem.memory_words:
                raise PartitioningError(
                    f"level clustering produced a partitioning that needs {words} "
                    f"words across boundary {boundary}, exceeding the memory "
                    f"constraint of {problem.memory_words} words"
                )
