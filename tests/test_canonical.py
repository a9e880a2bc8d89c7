"""Canonical hashing, checked against its reference.

``graph_content_digest`` and ``problem_fingerprint`` build their canonical
forms in one pass and serialise the graph form without re-walking it.  For
any graph — with or without data-flow graphs, with constants of every
kind, non-ASCII or float names and set-valued task types — both must
return exactly the digests of the versions in ``canonical_reference.py``,
or raise the same exception type for an input those reject.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonical_reference as reference
from repro.arch.device import ResourceVector
from repro.dfg.graph import DataFlowGraph
from repro.dfg.operations import OpKind, Operation
from repro.errors import ArchitectureError, GraphError
from repro.partition import PartitionProblem, SolverSpec
from repro.runtime.canonical import problem_fingerprint
from repro.runtime.jobs import PartitionJob
from repro.synth.stages import graph_content_digest
from repro.taskgraph import Task, TaskCost, TaskGraph

NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5
)
#: Task types: strings, and in some graphs sets (sorted into lists by the
#: graph form, rejected by the problem form's JSON encoder).
TASK_TYPES = st.one_of(st.just(""), st.text(max_size=4))
SET_TASK_TYPES = TASK_TYPES | st.sets(st.text(max_size=3), max_size=3) | st.frozensets(
    st.text(max_size=3), max_size=2
)
DELAYS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True),
    st.sampled_from((0.0, -0.0, float("nan"), 1e-9)),
)
#: DFG constants: everything canonical_value accepts.
OP_VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, float("inf"), float("-inf"), float("nan"), None)),
    st.tuples(st.floats(), st.integers()),
    st.lists(st.one_of(st.none(), st.text(max_size=2)), max_size=2),
)
#: Kinds of graph that carry a leaf one of the forms rejects: an int
#: resource kind (fine in the problem form, rejected by the graph form), a
#: complex DFG constant, or a set task type.
ODD_LEAVES = ("int kind", "complex constant", "set type")


@st.composite
def costs(draw, int_kind):
    kinds = draw(st.lists(st.sampled_from(("clb", "dsp", "ram")), max_size=3, unique=True))
    if int_kind:
        kinds = draw(st.sampled_from(([7], kinds + [7], kinds)))
    amounts = {kind: draw(st.integers(min_value=0, max_value=1 << 40)) for kind in kinds}
    return TaskCost(resources=ResourceVector(amounts), delay=draw(DELAYS))


@st.composite
def dfgs(draw, complex_constant):
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    values = OP_VALUES | st.just(1j) if complex_constant else OP_VALUES
    dfg = DataFlowGraph("ops")
    for name in names:
        dfg.add_operation(
            Operation(
                name,
                draw(st.sampled_from(list(OpKind))),
                draw(st.one_of(st.integers(min_value=1, max_value=64), st.just(16.0))),
                draw(values),
            )
        )
    for first, second in draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=6)
    ):
        if names.index(first) < names.index(second):
            dfg.add_dependency(first, second)
    return dfg


@st.composite
def task_graphs(draw):
    # Task names are strings, or (rarely) floats, which canonicalise to
    # their hex text.
    names = draw(
        st.lists(NAMES, min_size=1, max_size=8, unique=True)
        | st.lists(st.floats(min_value=0.5, max_value=1e6), min_size=1, max_size=4, unique=True)
    )
    odd = draw(st.sampled_from(ODD_LEAVES + (None,) * 7))
    task_types = SET_TASK_TYPES if odd == "set type" else TASK_TYPES
    graph = TaskGraph("hashing")
    for name in names:
        graph.add_task(
            Task(
                name,
                cost=draw(st.none() | costs(odd == "int kind")),
                dfg=draw(st.none() | dfgs(odd == "complex constant")),
                task_type=draw(task_types),
            ),
            env_input_words=draw(st.integers(min_value=0, max_value=1 << 33)),
            env_output_words=draw(st.integers(min_value=0, max_value=9)),
        )
    edges = {}
    for first, second, words in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(names) - 1),
                st.integers(min_value=0, max_value=len(names) - 1),
                st.integers(min_value=0, max_value=1 << 40),
            ),
            max_size=12,
        )
    ):
        if first != second:
            first, second = sorted((first, second))
            edges[(names[first], names[second])] = words
    graph.add_edges((producer, consumer, words) for (producer, consumer), words in edges.items())
    return graph


def _outcome(function, *args):
    try:
        return "digest", function(*args)
    except Exception as error:  # the comparison is about which inputs raise
        return "error", type(error)


@given(task_graphs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_digests_match_the_reference(graph, costed):
    assert _outcome(graph_content_digest, graph) == _outcome(
        reference.reference_graph_digest, graph
    )
    if costed:
        for task in graph.tasks():
            if task.cost is None:
                graph.set_cost(task.name, TaskCost(ResourceVector({"clb": 1}), 1e-9))
    if not graph.all_estimated():
        return
    problem = PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector({"clb": 100, "dsp": 4}),
        memory_words=1024,
        reconfiguration_time=1e-3,
    )
    solver = SolverSpec(partitioner="list").cache_key_fields()
    assert _outcome(problem_fingerprint, problem, solver) == _outcome(
        reference.problem_fingerprint, problem, solver
    )
    assert _outcome(problem_fingerprint, problem) == _outcome(
        reference.problem_fingerprint, problem
    )


def test_a_resource_kind_that_is_not_a_string():
    """The graph form rejects it, like the reference; the problem form's JSON
    encoder writes it as a string key."""
    graph = TaskGraph("int-kind")
    graph.add_task(Task("a", cost=TaskCost(ResourceVector({7: 2}), 1e-9)))
    for digest in (graph_content_digest, reference.reference_graph_digest):
        with pytest.raises(TypeError, match="keys must be strings"):
            digest(graph)
    problem = PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector({7: 4}),
        memory_words=8,
        reconfiguration_time=0.0,
    )
    assert problem_fingerprint(problem) == reference.problem_fingerprint(problem)


def test_fractional_amounts_are_rejected_before_they_reach_a_cache_key():
    """``int()`` in the canonical forms made 2.5 CLBs hash like 2, so a
    shared cache could serve the 1-partition answer of two 2-CLB tasks
    (capacity 5) to two 2.5-CLB tasks, which need 2 partitions.  Amounts
    are now integers, and an integer amount keeps its key."""
    for bad in (2.5, 2.0, True):
        with pytest.raises(ArchitectureError, match="must be an integer"):
            ResourceVector({"clb": bad})
    graph = TaskGraph("integral")
    for name in ("a", "b"):
        graph.add_task(Task(name, cost=TaskCost(ResourceVector({"clb": np.int64(2)}), 1e-9)))
    problem = PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector({"clb": 5}),
        memory_words=64,
        reconfiguration_time=0.0,
    )
    job = PartitionJob(problem, SolverSpec(partitioner="list"))
    assert job.fingerprint() == reference.problem_fingerprint(
        problem, job.solver.cache_key_fields()
    )


def test_word_counts_must_be_integers():
    graph = TaskGraph("words")
    for bad in (1.5, 2.0, False):
        with pytest.raises(GraphError, match="must be an integer"):
            graph.add_task(Task(f"t{bad}"), env_input_words=bad)
    graph.add_task(Task("a"), env_output_words=np.int64(3))
    graph.add_task(Task("b"))
    assert type(graph.env_output_words("a")) is int
    for bad in (1.5, 3.0, True):
        with pytest.raises(GraphError, match="must be an integer"):
            graph.add_edge("a", "b", words=bad)
        with pytest.raises(GraphError, match="must be an integer"):
            graph.add_edges([("a", "b", bad)])
        with pytest.raises(GraphError, match="must be an integer"):
            graph.set_env_io("a", env_input_words=bad)
    assert graph.edge_count() == 0
    graph.add_edges([("a", "b", np.int32(4))])
    assert graph.weighted_edges() == [("a", "b", 4)]
    assert type(graph.edge_words("a", "b")) is int
    vector = ResourceVector({"clb": np.int64(7)})
    assert type(vector["clb"]) is int
