"""Canonical form and content hashing for stage inputs and artifacts.

The caches are keyed by *what is being computed*, not by object identity:
two :class:`~repro.partition.spec.PartitionProblem` instances (or task
graphs, or devices) that describe the same content must hash to the same
key — in the same process, across processes, and across interpreter
invocations (``PYTHONHASHSEED`` must not leak in).

The canonical form is a plain nested dict of sorted, JSON-stable primitives;
floats are encoded with ``float.hex`` so the digest captures the exact bit
pattern rather than a rounded decimal rendering.  :func:`canonical_value`
and :func:`canonical_fingerprint` are the generic entry points every stage
of the design-flow pipeline keys itself with; the partition-problem helpers
below them predate the generic layer and keep their historical shape.

The two graph forms are built in one pass over the tasks and one over the
edges (:meth:`~repro.taskgraph.graph.TaskGraph.weighted_edges`).
:func:`canonical_graph_dict` returns a form that is already canonical, so
:func:`~repro.synth.stages.graph_content_digest` serialises it with
:func:`json_digest` instead of re-walking it with :func:`canonical_value`.
The bytes cannot change: :func:`canonical_value` returns a leaf that is
exactly an ``int`` or a ``str`` unchanged, and word counts and resource
amounts are plain ints by construction (``TaskGraph`` and
``ResourceVector`` pass them through :func:`repro.units.as_integer`).
Every other leaf — a name or task type of another type, a resource kind,
a DFG operation's fields — still goes through :func:`canonical_value`
(which is idempotent) where it is read, so every input hashes, or raises,
exactly as a full re-walk would.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional

from ..partition.spec import PartitionProblem

#: Version tag baked into every fingerprint; bump when the canonical form (or
#: the meaning of a cached result) changes so stale disk caches never match.
CANONICAL_VERSION = 1


def _canonical_float(value: float) -> str:
    """Bit-exact, platform-independent text form of a float."""
    return float(value).hex()


# ---------------------------------------------------------------------------
# Generic canonical encoding
# ---------------------------------------------------------------------------

def canonical_value(value: object) -> object:
    """The JSON-stable canonical form of an arbitrary nested value.

    Floats become their bit-exact ``float.hex`` text, mappings become plain
    dicts with string keys (serialised with sorted keys), and sequences
    become lists.  Anything outside the JSON family is rejected rather than
    silently ``repr``-ed: a stage key must never depend on an object's
    memory address or on a ``repr`` that can drift between versions.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _canonical_float(value)
    if isinstance(value, Mapping):
        encoded: Dict[str, object] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"canonical mapping keys must be strings, got {type(key).__name__}"
                )
            encoded[key] = canonical_value(item)
        return encoded
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical_value(item) for item in value)
    raise TypeError(f"cannot canonicalise a {type(value).__name__} value")


def json_digest(payload: object) -> str:
    """sha256 hex digest of *payload*'s compact, key-sorted JSON text."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def canonical_fingerprint(payload: object) -> str:
    """A stable sha256 hex digest of an arbitrary canonicalisable payload."""
    return json_digest(canonical_value(payload))


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


def canonical_device_dict(device) -> Dict[str, object]:
    """The canonical description of an :class:`~repro.arch.device.FpgaDevice`.

    Captures the fields estimation observes — family (selects the component
    library), capacity and the clock-period window.  The reconfiguration
    time is excluded on purpose: estimation never reads it, so two devices
    differing only in ``CT`` share every estimate.
    """
    return {
        "family": device.family,
        "capacity": {
            kind: int(amount)
            for kind, amount in sorted(device.capacity.as_dict().items())
        },
        "min_clock_period": _canonical_float(device.min_clock_period),
        "max_clock_period": _canonical_float(device.max_clock_period),
    }


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
    return json_digest(payload)
