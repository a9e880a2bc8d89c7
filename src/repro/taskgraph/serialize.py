"""Serialisation of task graphs to and from plain dictionaries / JSON.

The on-disk format is intentionally simple and versioned so that workloads and
case-study graphs can be checked into a repository and diffed:

.. code-block:: json

    {
      "format": "repro-taskgraph",
      "version": 1,
      "name": "dct4x4",
      "tasks": [
        {"name": "t0", "clbs": 70, "delay_ns": 3400.0, "type": "T1",
         "env_input_words": 4, "env_output_words": 0}
      ],
      "edges": [
        {"from": "t0", "to": "t16", "words": 1}
      ]
    }

Only the partitioner-visible attributes are serialised; operation-level DFGs
are reconstructed by the builders when needed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from ..errors import SpecificationError
from ..units import ns, to_ns
from .graph import TaskGraph
from .task import Task, clb_cost

FORMAT_NAME = "repro-taskgraph"
FORMAT_VERSION = 1


def to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Convert *graph* to a JSON-serialisable dictionary."""
    tasks = []
    for name in graph.task_names():
        task = graph.task(name)
        entry: Dict[str, Any] = {
            "name": name,
            "type": task.task_type,
            "env_input_words": graph.env_input_words(name),
            "env_output_words": graph.env_output_words(name),
        }
        if task.has_cost:
            entry["clbs"] = task.clbs
            entry["delay_ns"] = to_ns(task.delay)
            if task.cost.cycles is not None:
                entry["cycles"] = task.cost.cycles
            if task.cost.clock_period is not None:
                entry["clock_period_ns"] = to_ns(task.cost.clock_period)
        if task.metadata:
            entry["metadata"] = dict(task.metadata)
        tasks.append(entry)
    edges = [
        {"from": producer, "to": consumer, "words": words}
        for producer, consumer, words in graph.weighted_edges()
    ]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": graph.name,
        "tasks": tasks,
        "edges": edges,
    }


def from_dict(data: Dict[str, Any]) -> TaskGraph:
    """Reconstruct a :class:`TaskGraph` from :func:`to_dict` output."""
    if data.get("format") != FORMAT_NAME:
        raise SpecificationError(
            f"not a {FORMAT_NAME} document (format={data.get('format')!r})"
        )
    if data.get("version") != FORMAT_VERSION:
        raise SpecificationError(
            f"unsupported task graph format version {data.get('version')!r}"
        )
    graph = TaskGraph(data.get("name", "taskgraph"))
    for entry in data.get("tasks", []):
        if "name" not in entry:
            raise SpecificationError(f"task entry without a name: {entry!r}")
        cost = None
        if "clbs" in entry or "delay_ns" in entry:
            if "clbs" not in entry or "delay_ns" not in entry:
                raise SpecificationError(
                    f"task {entry['name']!r} must give both 'clbs' and 'delay_ns' "
                    "or neither"
                )
            cycles = entry.get("cycles")
            clock_period = entry.get("clock_period_ns")
            cost = clb_cost(
                int(entry["clbs"]),
                ns(float(entry["delay_ns"])),
                cycles=int(cycles) if cycles is not None else None,
                clock_period=ns(float(clock_period)) if clock_period is not None else None,
            )
        graph.add_task(
            Task(
                entry["name"],
                cost=cost,
                task_type=entry.get("type", ""),
                metadata=dict(entry.get("metadata", {})),
            ),
            env_input_words=int(entry.get("env_input_words", 0)),
            env_output_words=int(entry.get("env_output_words", 0)),
        )
    for entry in data.get("edges", []):
        try:
            producer, consumer = entry["from"], entry["to"]
        except KeyError:
            raise SpecificationError(f"edge entry missing 'from'/'to': {entry!r}")
        graph.add_edge(producer, consumer, words=int(entry.get("words", 1)))
    return graph


def to_json(graph: TaskGraph, indent: int = 2) -> str:
    """Serialise *graph* to a JSON string."""
    return json.dumps(to_dict(graph), indent=indent, sort_keys=False)


def from_json(text: str) -> TaskGraph:
    """Parse a task graph from a JSON string."""
    return from_dict(json.loads(text))


def save(graph: TaskGraph, path: Union[str, Path]) -> None:
    """Write *graph* to *path* as JSON."""
    Path(path).write_text(to_json(graph), encoding="utf-8")


def load(path: Union[str, Path]) -> TaskGraph:
    """Read a task graph from a JSON file at *path*."""
    return from_json(Path(path).read_text(encoding="utf-8"))
