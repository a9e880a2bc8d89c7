"""Exhaustive optimal temporal partitioning: the reference the ILP is checked
against.

:func:`exhaustive_optimum` tries ``N = 1, 2, ...`` partitions.  For each
``N`` it enumerates every assignment of the tasks, in topological order,
that places each task no earlier than its predecessors and uses all ``N``
partitions.  Feasibility is :func:`~repro.partition.validate.validate_partitioning`
and latency is :attr:`TemporalPartitioning.total_latency`; the helper shares
no code with the ILP formulation or the solver.  It returns the lowest-latency
feasible assignment of the first ``N`` that has one.

The first ``N`` is the ILP's answer too: an assignment that leaves a
partition empty compresses to a feasible one on fewer partitions, so the
relax-N loop, which stops at its first feasible bound, returns an assignment
on the smallest feasible partition count.

Enumeration is exponential, so graphs are limited to :data:`MAX_TASKS`
tasks.  A partial assignment is dropped as soon as a partition overflows a
resource or too few tasks remain to fill the unused partitions; that only
skips assignments the validator would reject.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.partition.result import TemporalPartitioning
from repro.partition.spec import PartitionProblem
from repro.partition.validate import validate_partitioning

#: Largest graph :func:`exhaustive_optimum` accepts.
MAX_TASKS = 7


def exhaustive_optimum(problem: PartitionProblem) -> Optional[TemporalPartitioning]:
    """The optimal partitioning of *problem*, or ``None`` if none exists."""
    graph = problem.graph
    if len(graph) > MAX_TASKS:
        raise ValueError(f"{len(graph)} tasks: exhaustive search takes at most {MAX_TASKS}")
    for count in range(1, len(graph) + 1):
        best: Optional[TemporalPartitioning] = None
        for assignment in precedence_respecting_assignments(problem, count):
            candidate = TemporalPartitioning(
                graph=graph,
                assignment=assignment,
                partition_count=count,
                reconfiguration_time=problem.reconfiguration_time,
                method="exhaustive",
            )
            if not validate_partitioning(problem, candidate).is_valid:
                continue
            if best is None or candidate.total_latency < best.total_latency:
                best = candidate
        if best is not None:
            return best
    return None


def precedence_respecting_assignments(
    problem: PartitionProblem, count: int
) -> Iterator[Dict[str, int]]:
    """Every assignment onto partitions ``1..count`` that uses all of them and
    places each task no earlier than its predecessors (resource overflows
    pruned)."""
    graph = problem.graph
    order = graph.topological_order()
    predecessors = {name: graph.predecessors(name) for name in order}
    capacity = problem.resource_capacity
    amounts = {
        name: [(kind, task.resources[kind]) for kind in task.resources.names()]
        for name, task in ((name, graph.task(name)) for name in order)
    }
    usage: List[Dict[str, float]] = [dict() for _ in range(count + 1)]
    members = [0] * (count + 1)
    assignment: Dict[str, int] = {}

    def place(index: int) -> Iterator[Dict[str, int]]:
        empty = sum(1 for partition in range(1, count + 1) if not members[partition])
        if empty > len(order) - index:
            return
        if index == len(order):
            yield dict(assignment)
            return
        name = order[index]
        earliest = max((assignment[pred] for pred in predecessors[name]), default=1)
        for partition in range(earliest, count + 1):
            used = usage[partition]
            if any(used.get(kind, 0) + amount > capacity[kind] for kind, amount in amounts[name]):
                continue
            for kind, amount in amounts[name]:
                used[kind] = used.get(kind, 0) + amount
            members[partition] += 1
            assignment[name] = partition
            yield from place(index + 1)
            del assignment[name]
            members[partition] -= 1
            for kind, amount in amounts[name]:
                used[kind] -= amount

    yield from place(0)
