"""Canonical form and content hashing for stage inputs and artifacts.

The caches are keyed by *what is being computed*, not by object identity:
two :class:`~repro.partition.spec.PartitionProblem` instances (or task
graphs, or devices) that describe the same content must hash to the same
key — in the same process, across processes, and across interpreter
invocations (``PYTHONHASHSEED`` must not leak in).

The canonical form is the compact, key-sorted JSON text of a nested dict of
sorted, JSON-stable primitives; floats are encoded with ``float.hex`` so the
digest captures the exact bit pattern rather than a rounded decimal
rendering.  :func:`canonical_value` and :func:`canonical_fingerprint` are
the generic entry points every stage of the design-flow pipeline keys
itself with.

The two graph forms — :func:`canonical_graph_text` behind
:func:`~repro.synth.stages.graph_content_digest` and
:func:`canonical_problem_text` behind :func:`problem_fingerprint` — are the
hot ones: a 10k-task graph is hashed by both on every cold flow.  They
write their JSON text directly instead of building a dict per task for
``json.dumps`` to walk again.  Strings are not tracked by CPython's cyclic
garbage collector, so the writers also stop the tens of thousands of live
dicts that used to trigger collections in the middle of a flow.  Both
forms are written by one function, :func:`_walk`: alone, each writer walks
the graph for its own form; inside :func:`shared_walks` (one flow batch),
the graph digest's walk of a costed graph writes both, and every problem
holding that graph object takes its task and edge text from it, so a cold
flow walks its graph once.  The partition engine drops those texts as soon
as it has written its batch's keys (:func:`release_shared_texts`).

The text is byte for byte ``json.dumps(form, sort_keys=True,
separators=(",", ":"))`` of the dict form each hash used to build (kept in
``tests/canonical_reference.py``, which the property tests compare
against).  That requires:

* keys written in sorted order, with the same ``:`` and ``,`` separators;
* a name, type or kind that is exactly a ``str`` written by
  :func:`json.encoder.encode_basestring_ascii`, the function the encoder
  itself uses (non-ASCII and control characters escaped, astral ones as
  surrogate pairs), and an amount or word count that is exactly an ``int``
  written by ``repr``;
* every other leaf — a name of another type, a set task type, a resource
  kind that is not exactly a ``str``, a DFG operation's fields, the memory
  size, the solver fields — sent through the same transform as the dict
  form (:func:`canonical_value`, or none) and then ``json.dumps``, so it
  gives the same bytes or raises the same exception type;
* edges in the order of ``sorted(graph.weighted_edges())``: producers in
  sorted order, each producer's consumers in sorted order, which is the
  same order for ``str`` names (any other names sort the triples as the
  dict form did).
"""

from __future__ import annotations

import contextvars
import hashlib
import json
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _string
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..partition.spec import PartitionProblem

#: Version tag baked into every fingerprint; bump when the canonical form (or
#: the meaning of a cached result) changes so stale disk caches never match.
CANONICAL_VERSION = 1

#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``.
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: The problem forms written by the graph walks of the
#: :func:`shared_walks` block in force: ``id(graph) -> (graph, tasks,
#: edges)``; ``None`` outside one.
_shared: contextvars.ContextVar[Optional[Dict[int, Tuple[object, str, str]]]] = (
    contextvars.ContextVar("repro_canonical_walks", default=None)
)


@contextmanager
def shared_walks() -> Iterator[None]:
    """Let one walk of a graph write both of its forms.

    Inside the block, the first :func:`canonical_graph_text` of a fully
    costed graph also writes the problem form's task entries and edge
    list, and :func:`canonical_problem_text` of every problem holding that
    same graph object reads them instead of walking the graph again.  No
    cheap check can see an in-place change to a graph, so the caller must
    not change any graph it hashes inside the block:
    :meth:`~repro.synth.flow_engine.FlowEngine.run_batch` opens one per
    batch, in which it never mutates a submitted graph.  The texts live
    until :func:`release_shared_texts`, at the latest until the block
    ends; outside one, each writer walks the graph on its own.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def release_shared_texts() -> None:
    """Drop every problem text the :func:`shared_walks` block in force
    holds (nothing outside one).

    :meth:`~repro.runtime.engine.PartitionEngine.solve_batch` calls it
    once it has written every key of its batch, so the texts do not live
    through the solve.  A later writer in the block walks on its own.
    """
    written = _shared.get()
    if written is not None:
        written.clear()


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


def text_digest(text: str) -> str:
    """sha256 hex digest of *text*'s UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def json_digest(payload: object) -> str:
    """sha256 hex digest of *payload*'s compact, key-sorted JSON text."""
    return text_digest(_json_text(payload))


def canonical_fingerprint(payload: object) -> str:
    """A stable sha256 hex digest of an arbitrary canonicalisable payload."""
    return json_digest(canonical_value(payload))


# ---------------------------------------------------------------------------
# Leaves of the graph forms
# ---------------------------------------------------------------------------

def _text(value: object) -> str:
    """JSON text of a leaf the form passes through :func:`canonical_value`."""
    if type(value) is str:
        return _string(value)
    if type(value) is int:
        return repr(value)
    return _json_text(canonical_value(value))


def _raw(value: object) -> str:
    """JSON text of a leaf the form hands to ``json.dumps`` as it is."""
    return repr(value) if type(value) is int else _json_text(value)


def _amounts_text(amounts: Mapping) -> Optional[str]:
    """JSON text of a resource vector's amounts, sorted by kind, which both
    forms write the same way; ``None`` when a kind is not exactly a ``str``
    (each form then writes the vector with :func:`_odd_amounts_text`)."""
    items = sorted(amounts.items()) if len(amounts) > 1 else amounts.items()
    pieces: List[str] = []
    for kind, amount in items:
        if type(kind) is not str:
            return None
        if type(amount) is not int:
            amount = _raw(amount)
        pieces.append(f"{_string(kind)}:{amount}")
    return "{" + ",".join(pieces) + "}"


def _odd_amounts_text(amounts: Mapping, canonical: bool) -> str:
    """JSON text of a resource vector with a kind that is not exactly a
    ``str``, through the dict form's transform: :func:`canonical_value`
    (which rejects a key that is not a string) when *canonical*, none
    otherwise."""
    form = dict(sorted(amounts.items()) if len(amounts) > 1 else amounts.items())
    return _json_text(canonical_value(form) if canonical else form)


def _edges_text(graph, succ, names: List, escaped: Mapping[str, str], leaf) -> str:
    """The ``edges`` list: ``[producer, consumer, words]`` triples in
    ``sorted(graph.weighted_edges())`` order.

    When *escaped* holds the text of every name (each is exactly a
    ``str``), the producers are walked in sorted *names* order and each
    one's consumers (*succ*) sorted, which is that order without building
    the triples; *leaf* is then unused, so both forms share the text.  Any
    other names are written by *leaf* from the sorted triples.
    """
    if len(escaped) < len(names):
        return ",".join(
            f"[{leaf(producer)},{leaf(consumer)},{_raw(words)}]"
            for producer, consumer, words in sorted(graph.weighted_edges())
        )
    edges: List[str] = []
    for producer in names:
        consumers = succ[producer]
        if not consumers:
            continue
        head = f"[{escaped[producer]},"
        for consumer in sorted(consumers):
            words = consumers[consumer]
            if type(words) is not int:
                words = _raw(words)
            edges.append(f"{head}{escaped[consumer]},{words}]")
    return ",".join(edges)


def _dfg_text(dfg) -> str:
    """The ``"dfg":{...},`` member of a task: operations sorted by name,
    dependency edges sorted."""
    edges = ",".join(f"[{_text(producer)},{_text(consumer)}]"
                     for producer, consumer in sorted(dfg.edges()))
    operations = ",".join(
        f'{{"kind":{_text(op.kind.value)},"name":{_text(op.name)},'
        f'"value":{_text(op.value)},"width":{_text(op.width)}}}'
        for op in sorted(dfg.operations(), key=lambda op: op.name)
    )
    return f'"dfg":{{"edges":[{edges}],"operations":[{operations}]}},'


# ---------------------------------------------------------------------------
# The two graph forms
# ---------------------------------------------------------------------------

def _walk(graph, graph_form: bool, problem_form: bool) -> Tuple[str, str, str]:
    """Write *graph*'s canonical forms in one pass over its maps.

    Returns the whole graph text (when *graph_form*) and the problem
    form's ``tasks`` and ``edges`` list bodies (when *problem_form*), each
    ``""`` when not asked for.  Every task entry of either form is written
    here and nowhere else.  A leaf both forms write the same way is
    written once: a name, type or resource kind that is exactly a ``str``,
    the word counts, the delay, and the edge list when every name is a
    ``str``.  Anything else goes through the form's own transform.
    """
    tasks, env_in, env_out, succ, _ = graph.maps()
    names = sorted(tasks)
    escaped: Dict[str, str] = {}
    graph_entries: List[str] = []
    problem_entries: List[str] = []
    for name in names:
        task = tasks[name]
        if type(name) is str:
            graph_name = problem_name = escaped[name] = _string(name)
        else:
            graph_name = _text(name) if graph_form else ""
            problem_name = _raw(name) if problem_form else ""
        cost = task.cost
        if cost is not None:
            delay = _canonical_float(cost.delay)
            amounts = cost.resources.amounts
            resources = _amounts_text(amounts)
        elif problem_form:
            task.resources  # a problem's task must be costed: this raises
        task_type = task.task_type or ""
        if type(task_type) is str:
            graph_type = problem_type = _string(task_type)
        else:
            graph_type = _text(task_type) if graph_form else ""
            problem_type = _raw(task_type) if problem_form else ""
        words_in, words_out = env_in[name], env_out[name]
        if type(words_in) is not int:
            words_in = _raw(words_in)
        if type(words_out) is not int:
            words_out = _raw(words_out)
        if graph_form:
            head = ""
            if cost is not None:
                graph_resources = resources or _odd_amounts_text(amounts, canonical=True)
                head = f'"cost":{{"delay":"{delay}","resources":{graph_resources}}},'
            if task.dfg is not None:
                head += _dfg_text(task.dfg)
            graph_entries.append(
                f'{{{head}"env_in":{words_in},"env_out":{words_out},'
                f'"name":{graph_name},"type":{graph_type}}}'
            )
        if problem_form:
            problem_resources = resources or _odd_amounts_text(amounts, canonical=False)
            problem_entries.append(
                f'{{"delay":"{delay}","env_in":{words_in},"env_out":{words_out},'
                f'"name":{problem_name},"resources":{problem_resources},'
                f'"type":{problem_type}}}'
            )
    graph_text = problem_tasks = problem_edges = ""
    if graph_form:
        edges = _edges_text(graph, succ, names, escaped, _text)
        graph_text = "".join(
            ('{"edges":[', edges, '],"tasks":[', ",".join(graph_entries), "]}")
        )
        del graph_entries
        if problem_form and len(escaped) == len(names):
            problem_edges = edges
    if problem_form:
        problem_tasks = ",".join(problem_entries)
        problem_edges = problem_edges or _edges_text(graph, succ, names, escaped, _raw)
    return graph_text, problem_tasks, problem_edges


def canonical_graph_text(graph) -> str:
    """The canonical text of a :class:`~repro.taskgraph.graph.TaskGraph`.

    Captures everything estimation and partitioning can observe: per-task
    costs (when present), per-task data-flow graphs (operation kinds,
    widths, constant values and dependency edges — the estimator's whole
    input), environment I/O words, and the inter-task edges with their data
    volumes.  Task and edge order is sorted so insertion order never
    changes the key; the graph *name* is deliberately excluded (renaming a
    graph does not change what any stage computes from it).  Every leaf is
    canonicalised (:func:`canonical_value`) as it is written.

    Inside :func:`shared_walks`, the first call on a fully costed graph also
    writes its problem form for :func:`canonical_problem_text`.
    """
    written = _shared.get()
    if written is None or id(graph) in written or not graph.all_estimated():
        return _walk(graph, graph_form=True, problem_form=False)[0]
    try:
        text, tasks, edges = _walk(graph, graph_form=True, problem_form=True)
    except Exception:  # noqa: BLE001 - a leaf one of the forms rejects
        # Each form walks alone instead: the graph form raises its own
        # error or returns its text, and the problem form raises its own
        # when a fingerprint asks for it.
        return _walk(graph, graph_form=True, problem_form=False)[0]
    # The entry holds the graph, so no other object can take its id.
    written[id(graph)] = (graph, tasks, edges)
    return text


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


def canonical_problem_text(
    problem: PartitionProblem,
    solver: Optional[Dict[str, object]] = None,
) -> str:
    """The canonical text of *problem*, plus the solver configuration when
    one is given.

    Task and edge order is sorted by name so insertion order — which does not
    change the optimisation problem — does not change the key.  Leaves are
    written as they are (names and types are not canonicalised), so a leaf
    outside the JSON family raises ``TypeError``.
    """
    graph = problem.graph
    written = _shared.get()
    entry = None if written is None else written.get(id(graph))
    if entry is None:
        _, tasks, edges = _walk(graph, graph_form=False, problem_form=True)
    else:
        _, tasks, edges = entry
    capacity = {
        kind: int(amount)
        for kind, amount in sorted(problem.resource_capacity.as_dict().items())
    }
    pieces = [
        '{"problem":{"edges":[', edges,
        '],"max_partitions":', _raw(problem.max_partitions),
        ',"memory_words":', _raw(problem.memory_words),
        ',"reconfiguration_time":"', _canonical_float(problem.reconfiguration_time),
        '","resource_capacity":', _json_text(capacity),
        ',"tasks":[', tasks,
        '],"version":', repr(CANONICAL_VERSION), "}",
    ]
    if solver is not None:
        pieces += [',"solver":', _json_text({str(k): solver[k] for k in sorted(solver)})]
    pieces.append("}")
    return "".join(pieces)


def problem_fingerprint(
    problem: PartitionProblem,
    solver: Optional[Dict[str, object]] = None,
) -> str:
    """A stable sha256 hex digest of *problem* (plus optional solver config).

    Passing the solver configuration keys the cache by (problem, solver) so a
    ``list`` solve never shadows an ``ilp`` solve of the same instance.
    """
    return text_digest(canonical_problem_text(problem, solver))
