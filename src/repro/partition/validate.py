"""Validation of temporal partitionings against the problem constraints.

Every partitioner funnels its result through the same validator in tests
and in :func:`~repro.runtime.worker.execute_job`, which every engine solve
runs (and so every flow), so an invalid assignment can never silently reach
a cache, RTL generation or the simulator.  It reads the graph's own maps
(``TaskGraph.maps()``) and finds temporal-order violations and boundary
volumes in one pass over the edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import PartitionValidationError
from .result import TemporalPartitioning, boundary_volumes_of
from .spec import PartitionProblem


@dataclass
class ValidationReport:
    """Outcome of validating a partitioning."""

    violations: List[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """Whether no violations were found."""
        return not self.violations

    def raise_if_invalid(self) -> None:
        """Raise :class:`PartitionValidationError` when violations exist."""
        if self.violations:
            raise PartitionValidationError(
                "invalid temporal partitioning:\n  " + "\n  ".join(self.violations)
            )


def validate_partitioning(
    problem: PartitionProblem, result: TemporalPartitioning
) -> ValidationReport:
    """Check *result* against every constraint of *problem*."""
    report = ValidationReport()
    tasks, _, _, succ, _ = problem.graph.maps()
    assignment = result.assignment

    # The assignment must cover exactly the problem's task graph.
    if assignment.keys() != tasks.keys():
        report.violations.append(
            "assignment does not cover the problem's task set exactly"
        )
        return report

    # One walk over the edges finds both edge constraints: a backward edge
    # breaks temporal order (Eq. 2), the forward ones fill the boundaries
    # (Eq. 3).
    backward: List[Tuple[str, int, str, int]] = []
    volumes = boundary_volumes_of(assignment, succ, result.partition_count, backward)
    for producer, first, consumer, last in backward:
        report.violations.append(
            f"temporal order violated: {producer!r} (P{first}) feeds {consumer!r} (P{last})"
        )

    # Resource constraint (Eq. 6) per partition and resource type.
    capacity = problem.resource_capacity
    for info in result.partitions:
        for resource_name in info.resources.names():
            used = info.resources[resource_name]
            available = capacity[resource_name]
            if used > available:
                report.violations.append(
                    f"partition {info.index} uses {used} {resource_name}, "
                    f"exceeding the capacity of {available}"
                )

    # Memory constraint (Eq. 3) per boundary.
    for boundary, words in enumerate(volumes, start=1):
        if words > problem.memory_words:
            report.violations.append(
                f"boundary {boundary} stores {words} words, exceeding the memory "
                f"constraint of {problem.memory_words} words"
            )

    # Partition indices must be contiguous starting at 1 (no empty partition
    # should survive — empty partitions only waste reconfiguration time).
    used_indices = sorted(set(assignment.values()))
    expected = list(range(1, result.partition_count + 1))
    if used_indices != expected:
        report.violations.append(
            f"partition indices {used_indices} are not contiguous 1..{result.partition_count}"
        )

    return report


def assert_valid(problem: PartitionProblem, result: TemporalPartitioning) -> None:
    """Convenience wrapper: validate and raise on any violation."""
    validate_partitioning(problem, result).raise_if_invalid()
