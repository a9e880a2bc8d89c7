"""Canonical hashing as it was before the graph forms were built in one pass.

``canonical_graph_dict``, ``canonical_problem_dict``,
``canonical_fingerprint`` and ``problem_fingerprint`` are kept verbatim from
the version that looked every edge's words up one by one and re-walked the
whole graph form with :func:`~repro.runtime.canonical.canonical_value`
before serialising it.  :func:`reference_graph_digest` is that version's
``graph_content_digest``, so any divergence of the digests (or of which
inputs they reject) shows up as a failed comparison.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from repro.partition.spec import PartitionProblem
from repro.runtime.canonical import CANONICAL_VERSION, canonical_value


def _canonical_float(value: float) -> str:
    """Bit-exact, platform-independent text form of a float."""
    return float(value).hex()


def canonical_fingerprint(payload: object) -> str:
    """A stable sha256 hex digest of an arbitrary canonicalisable payload."""
    encoded = json.dumps(
        canonical_value(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def canonical_graph_dict(graph) -> Dict[str, object]:
    """The canonical description of a :class:`~repro.taskgraph.graph.TaskGraph`.

    Captures everything estimation and partitioning can observe: per-task
    costs (when present), per-task data-flow graphs (operation kinds,
    widths, constant values and dependency edges — the estimator's whole
    input), environment I/O words, and the inter-task edges with their data
    volumes.  Task and edge order is sorted so insertion order never
    changes the key; the graph *name* is deliberately excluded (renaming a
    graph does not change what any stage computes from it).
    """
    tasks = []
    for name in sorted(graph.task_names()):
        task = graph.task(name)
        entry: Dict[str, object] = {
            "name": name,
            "type": task.task_type or "",
            "env_in": graph.env_input_words(name),
            "env_out": graph.env_output_words(name),
        }
        if task.has_cost:
            entry["cost"] = {
                "resources": {
                    kind: int(amount)
                    for kind, amount in sorted(task.resources.as_dict().items())
                },
                "delay": _canonical_float(task.delay),
            }
        if task.dfg is not None:
            dfg = task.dfg
            entry["dfg"] = {
                "operations": [
                    {
                        "name": op.name,
                        "kind": op.kind.value,
                        "width": op.width,
                        "value": canonical_value(op.value),
                    }
                    for op in sorted(dfg.operations(), key=lambda op: op.name)
                ],
                "edges": sorted(list(edge) for edge in dfg.edges()),
            }
        tasks.append(entry)
    edges = sorted(
        (producer, consumer, graph.edge_words(producer, consumer))
        for producer, consumer in graph.edges()
    )
    return {"tasks": tasks, "edges": [list(edge) for edge in edges]}


def canonical_problem_dict(problem: PartitionProblem) -> Dict[str, object]:
    """The canonical (sorted, primitive-only) description of *problem*.

    Task and edge order is sorted by name so insertion order — which does not
    change the optimisation problem — does not change the key.
    """
    graph = problem.graph
    tasks = []
    for name in sorted(graph.task_names()):
        task = graph.task(name)
        tasks.append(
            {
                "name": name,
                "resources": {
                    kind: int(amount)
                    for kind, amount in sorted(task.resources.as_dict().items())
                },
                "delay": _canonical_float(task.delay),
                "type": task.task_type or "",
                "env_in": graph.env_input_words(name),
                "env_out": graph.env_output_words(name),
            }
        )
    edges = sorted(
        (producer, consumer, graph.edge_words(producer, consumer))
        for producer, consumer in graph.edges()
    )
    return {
        "version": CANONICAL_VERSION,
        "tasks": tasks,
        "edges": [list(edge) for edge in edges],
        "resource_capacity": {
            kind: int(amount)
            for kind, amount in sorted(problem.resource_capacity.as_dict().items())
        },
        "memory_words": problem.memory_words,
        "reconfiguration_time": _canonical_float(problem.reconfiguration_time),
        "max_partitions": problem.max_partitions,
    }


def problem_fingerprint(
    problem: PartitionProblem,
    solver: Optional[Dict[str, object]] = None,
) -> str:
    """A stable sha256 hex digest of *problem* (plus optional solver config).

    Passing the solver configuration keys the cache by (problem, solver) so a
    ``list`` solve never shadows an ``ilp`` solve of the same instance.
    """
    payload = {"problem": canonical_problem_dict(problem)}
    if solver is not None:
        payload["solver"] = {str(k): solver[k] for k in sorted(solver)}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def reference_graph_digest(graph) -> str:
    """``graph_content_digest`` before it skipped the re-walk."""
    return canonical_fingerprint(canonical_graph_dict(graph))
