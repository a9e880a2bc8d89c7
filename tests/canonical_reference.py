"""The dict forms the canonical graph hashes serialised before they wrote
their JSON text directly.

``canonical_graph_dict`` and ``canonical_problem_dict`` (with ``_leaf``,
``_sorted_amounts`` and ``_resources``) are kept verbatim from
``repro.runtime.canonical`` as it was then.  :func:`reference_graph_text`
and :func:`reference_problem_text` are the texts those versions hashed,
``json.dumps(form, sort_keys=True, separators=(",", ":"))``:
``canonical_graph_text`` and ``canonical_problem_text`` must return them
byte for byte, or raise the same exception type for an input those reject.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.partition.spec import PartitionProblem
from repro.runtime.canonical import CANONICAL_VERSION, canonical_value


def _canonical_float(value: float) -> str:
    """Bit-exact, platform-independent text form of a float."""
    return float(value).hex()


def _leaf(value: object) -> object:
    """*value* when it is exactly an ``int`` or a ``str``, which
    :func:`canonical_value` would return unchanged; its canonical form
    otherwise."""
    if type(value) is str or type(value) is int:
        return value
    return canonical_value(value)


def _sorted_amounts(resources) -> Dict[str, int]:
    """A copy of a resource vector's amounts, sorted by kind."""
    amounts = resources.amounts
    return dict(sorted(amounts.items())) if len(amounts) > 1 else dict(amounts)


def _resources(resources) -> Dict[str, int]:
    """The canonical amounts of a resource vector.  Amounts are plain ints
    by construction; a kind that is not exactly a ``str`` sends the dict
    through :func:`canonical_value`, which rejects a non-string key."""
    amounts = _sorted_amounts(resources)
    for kind in amounts:
        if type(kind) is not str:
            return canonical_value(amounts)
    return amounts


def canonical_graph_dict(graph) -> Dict[str, object]:
    """The canonical description of a :class:`~repro.taskgraph.graph.TaskGraph`.

    Captures everything estimation and partitioning can observe: per-task
    costs (when present), per-task data-flow graphs (operation kinds,
    widths, constant values and dependency edges — the estimator's whole
    input), environment I/O words, and the inter-task edges with their data
    volumes.  Task and edge order is sorted so insertion order never
    changes the key; the graph *name* is deliberately excluded (renaming a
    graph does not change what any stage computes from it).  The result is
    already canonical: ``canonical_value`` returns an equal value.
    """
    names = sorted(graph.task_names())
    tasks = []
    for name in names:
        task = graph.task(name)
        entry: Dict[str, object] = {
            "name": _leaf(name),
            "type": _leaf(task.task_type or ""),
            "env_in": graph.env_input_words(name),
            "env_out": graph.env_output_words(name),
        }
        if task.cost is not None:
            entry["cost"] = {
                "resources": _resources(task.cost.resources),
                "delay": _canonical_float(task.cost.delay),
            }
        if task.dfg is not None:
            entry["dfg"] = {
                "operations": [
                    {
                        "name": _leaf(op.name),
                        "kind": _leaf(op.kind.value),
                        "width": _leaf(op.width),
                        "value": canonical_value(op.value),
                    }
                    for op in sorted(task.dfg.operations(), key=lambda op: op.name)
                ],
                "edges": [
                    [_leaf(producer), _leaf(consumer)]
                    for producer, consumer in sorted(task.dfg.edges())
                ],
            }
        tasks.append(entry)
    edges = sorted(graph.weighted_edges())
    if not all(type(name) is str for name in names):
        edges = [(_leaf(producer), _leaf(consumer), words) for producer, consumer, words in edges]
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
                "resources": _sorted_amounts(task.resources),
                "delay": _canonical_float(task.delay),
                "type": task.task_type or "",
                "env_in": graph.env_input_words(name),
                "env_out": graph.env_output_words(name),
            }
        )
    return {
        "version": CANONICAL_VERSION,
        "tasks": tasks,
        "edges": [list(edge) for edge in sorted(graph.weighted_edges())],
        "resource_capacity": {
            kind: int(amount)
            for kind, amount in sorted(problem.resource_capacity.as_dict().items())
        },
        "memory_words": problem.memory_words,
        "reconfiguration_time": _canonical_float(problem.reconfiguration_time),
        "max_partitions": problem.max_partitions,
    }


def _dumps(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def reference_graph_text(graph) -> str:
    """The text ``graph_content_digest`` hashed."""
    return _dumps(canonical_graph_dict(graph))


def reference_problem_text(
    problem: PartitionProblem, solver: Optional[Dict[str, object]] = None
) -> str:
    """The text ``problem_fingerprint`` hashed."""
    payload = {"problem": canonical_problem_dict(problem)}
    if solver is not None:
        payload["solver"] = {str(k): solver[k] for k in sorted(solver)}
    return _dumps(payload)
