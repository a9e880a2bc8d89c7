"""The graph containers against networkx, the reference they must match.

:class:`TaskGraph` and :class:`DataFlowGraph` keep their own
insertion-ordered adjacency maps.  Every property here draws a node set in
a shuffled insertion order and an edge sequence (forward pairs under a
hidden order plus a few backward ones), replays it on a container and on a
``networkx.DiGraph`` driven by the original wrapper's logic (add the edge,
check the whole graph for a cycle, remove the edge again), and requires the
same accepted and rejected edges and the same answer, in the same order,
from every query.  Stores, cache keys and designs depend on those orders.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg import DataFlowGraph, OpKind, Operation
from repro.errors import CycleError, GraphError
from repro.taskgraph import (
    Task,
    TaskGraph,
    clb_cost,
    count_root_to_leaf_paths,
    downstream_tasks,
    independent_task_pairs,
    root_to_leaf_paths,
    transitive_reduction,
    upstream_tasks,
)
from repro.units import ns

#: Above this many root-to-leaf paths the enumeration is not compared.
PATH_LIMIT = 2000

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def edge_sequences(draw, max_nodes: int = 40):
    """``(names, edges, kept)``: node names in insertion order, an edge
    sequence of ``(producer, consumer, words)`` and a node subset."""
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    names = draw(st.permutations([f"t{index}" for index in range(count)]))
    hidden = {name: rank for rank, name in enumerate(draw(st.permutations(names)))}
    # A fixed drawn length keeps the graphs dense enough for cycles,
    # duplicates and redundant edges to turn up.
    size = draw(st.integers(min_value=0, max_value=3 * (count - 1)))
    pair = st.tuples(
        st.integers(min_value=0, max_value=count - 1),
        st.integers(min_value=1, max_value=max(count - 1, 1)),
        st.sampled_from((0, 0, 1, 3)),
        # About one pair in ten runs against the hidden order.
        st.integers(min_value=0, max_value=9).map(lambda roll: roll == 0),
    )
    edges = []
    for index, offset, words, backward in draw(st.lists(pair, min_size=size, max_size=size)):
        ends = (names[index], names[(index + offset) % count])
        producer, consumer = sorted(ends, key=hidden.__getitem__)
        if backward:
            producer, consumer = consumer, producer
        edges.append((producer, consumer, words))
    kept = draw(st.sets(st.sampled_from(names)))
    return names, edges, kept


# ---------------------------------------------------------------------------
# The reference: the original wrapper's logic on a networkx DiGraph
# ---------------------------------------------------------------------------


def reference_add_edge(graph: nx.DiGraph, producer, consumer, **data) -> None:
    """Add, check the whole graph, and remove again on a cycle."""
    if producer == consumer:
        raise GraphError(f"self edge on {producer!r}")
    graph.add_edge(producer, consumer, **data)
    if not nx.is_directed_acyclic_graph(graph):
        graph.remove_edge(producer, consumer)
        raise CycleError(f"edge {producer!r} -> {consumer!r} closes a cycle")


def reference_task_edge(graph: nx.DiGraph, producer, consumer, words) -> None:
    """The original ``TaskGraph.add_edge``: duplicates are an error."""
    if graph.has_edge(producer, consumer):
        raise GraphError(f"duplicate edge {producer!r} -> {consumer!r}")
    reference_add_edge(graph, producer, consumer, words=words)


def reference_state(graph: nx.DiGraph):
    return {
        "nodes": list(graph.nodes),
        "edges": [(u, v, data.get("words")) for u, v, data in graph.edges(data=True)],
        "predecessors": {node: list(graph.predecessors(node)) for node in graph},
        "successors": {node: list(graph.successors(node)) for node in graph},
    }


def reference_paths(graph: nx.DiGraph):
    leaves = {node for node in graph if graph.out_degree(node) == 0}
    paths = []
    for root in (node for node in graph if graph.in_degree(node) == 0):
        if root in leaves:
            paths.append((root,))
            continue
        paths.extend(tuple(path) for path in nx.all_simple_paths(graph, root, leaves))
    return paths


def reference_reduction(graph: nx.DiGraph):
    """The reduced graph's state, or the message of the refusal."""
    reduced = nx.transitive_reduction(graph)
    result = nx.DiGraph()
    result.add_nodes_from(graph)
    for producer, consumer, words in graph.edges(data="words"):
        if reduced.has_edge(producer, consumer):
            result.add_edge(producer, consumer, words=words)
        elif words > 0:
            return (
                f"cannot reduce edge {producer!r} -> {consumer!r}: it carries "
                f"{words} words of data"
            )
    return reference_state(result)


def reference_answers(graph: nx.DiGraph):
    names = list(graph.nodes)
    descendants = {name: nx.descendants(graph, name) for name in names}
    return {
        **reference_state(graph),
        "roots": [node for node in graph if graph.in_degree(node) == 0],
        "leaves": [node for node in graph if graph.out_degree(node) == 0],
        "topological_order": list(nx.topological_sort(graph)),
        "downstream": {name: sorted(descendants[name]) for name in names},
        "upstream": {name: sorted(nx.ancestors(graph, name)) for name in names},
        "independent_pairs": [
            (first, second)
            for index, first in enumerate(names)
            for second in names[index + 1:]
            if second not in descendants[first] and first not in descendants[second]
        ],
        "has_edge": {
            (u, v): graph.has_edge(u, v) for u in names + ["nope"] for v in names
        },
    }


# ---------------------------------------------------------------------------
# The containers under test
# ---------------------------------------------------------------------------


def task_graph(names) -> TaskGraph:
    graph = TaskGraph("ref")
    for index, name in enumerate(names):
        graph.add_task(
            Task(name, cost=clb_cost(10 + index, ns(100 + index))),
            env_input_words=index % 3,
            env_output_words=index % 2,
        )
    return graph


def task_state(graph: TaskGraph):
    return {
        "nodes": graph.task_names(),
        "edges": [(u, v, graph.edge_words(u, v)) for u, v in graph.edges()],
        "predecessors": {name: graph.predecessors(name) for name in graph.task_names()},
        "successors": {name: graph.successors(name) for name in graph.task_names()},
    }


def full_task_state(graph: TaskGraph):
    """Everything a copy must carry: structure, tasks and environment words."""
    return {
        **task_state(graph),
        "tasks": [(task.name, task.cost) for task in graph.tasks()],
        "env": [
            (name, graph.env_input_words(name), graph.env_output_words(name))
            for name in graph.task_names()
        ],
    }


def task_answers(graph: TaskGraph):
    names = graph.task_names()
    return {
        **task_state(graph),
        "roots": graph.roots(),
        "leaves": graph.leaves(),
        "topological_order": graph.topological_order(),
        "downstream": {name: downstream_tasks(graph, name) for name in names},
        "upstream": {name: upstream_tasks(graph, name) for name in names},
        "independent_pairs": independent_task_pairs(graph),
        "has_edge": {
            (u, v): graph.has_edge(u, v) for u in names + ["nope"] for v in names
        },
    }


def replay_task_edges(names, edges):
    """Replay *edges* one by one on a TaskGraph and on the reference.

    Returns both graphs and the accepted and rejected edges; every
    rejection must match the reference's and leave the graph as it was.
    """
    graph = task_graph(names)
    reference = nx.DiGraph()
    reference.add_nodes_from(names)
    accepted, rejected = [], []
    for producer, consumer, words in edges:
        before = full_task_state(graph)
        try:
            reference_task_edge(reference, producer, consumer, words)
            expected = None
        except (GraphError, CycleError) as error:
            expected = type(error)
        if expected is None:
            graph.add_edge(producer, consumer, words)
            accepted.append((producer, consumer, words))
        else:
            with pytest.raises(GraphError) as raised:
                graph.add_edge(producer, consumer, words)
            assert type(raised.value) is expected
            assert full_task_state(graph) == before
            rejected.append((producer, consumer, words))
    return graph, reference, accepted, rejected


# ---------------------------------------------------------------------------
# TaskGraph
# ---------------------------------------------------------------------------


@SETTINGS
@given(edge_sequences())
def test_task_graph_add_edge_matches_the_reference(case):
    names, edges, _ = case
    graph, reference, _, _ = replay_task_edges(names, edges)
    assert [task.name for task in graph.tasks()] == list(reference.nodes)
    assert task_answers(graph) == reference_answers(reference)


@SETTINGS
@given(edge_sequences())
def test_task_graph_add_edges_matches_the_reference(case):
    names, edges, _ = case
    serial, reference, accepted, rejected = replay_task_edges(names, edges)
    bulk = task_graph(names)
    empty = full_task_state(bulk)
    if rejected:
        # A duplicate or a cycle anywhere fails the whole batch, and the
        # batch leaves nothing behind.
        with pytest.raises(GraphError):
            bulk.add_edges(edges)
        assert full_task_state(bulk) == empty
    bulk.add_edges(accepted)
    assert full_task_state(bulk) == full_task_state(serial)
    assert task_answers(bulk) == reference_answers(reference)
    if rejected:
        # Every rejected edge still fails against the final graph, and a
        # failed batch leaves the edges already there untouched.
        with pytest.raises(GraphError):
            bulk.add_edges(rejected)
        assert full_task_state(bulk) == full_task_state(serial)


@SETTINGS
@given(edge_sequences())
def test_task_graph_paths_and_reduction_match_the_reference(case):
    names, edges, _ = case
    graph, reference, _, _ = replay_task_edges(names, edges)
    if count_root_to_leaf_paths(graph) <= PATH_LIMIT:
        assert root_to_leaf_paths(graph, limit=None) == reference_paths(reference)
    expected = reference_reduction(reference)
    if isinstance(expected, str):
        with pytest.raises(GraphError, match="cannot reduce") as raised:
            transitive_reduction(graph)
        assert str(raised.value) == expected
    else:
        assert task_state(transitive_reduction(graph)) == expected


@SETTINGS
@given(edge_sequences())
def test_task_graph_copies_equal_a_replay_of_the_induced_subgraph(case):
    names, edges, kept = case
    graph, reference, _, _ = replay_task_edges(names, edges)
    original = full_task_state(graph)
    for selection, copy in (
        (set(names), graph.copy()),
        (kept, graph.subgraph_copy(kept)),
    ):
        replay = nx.DiGraph()
        replay.add_nodes_from(name for name in reference if name in selection)
        replay.add_edges_from(
            (u, v, data)
            for u, v, data in reference.edges(data=True)
            if u in selection and v in selection
        )
        assert task_answers(copy) == reference_answers(replay)
        copied = full_task_state(copy)
        for key in ("tasks", "env"):
            assert copied[key] == [item for item in original[key] if item[0] in selection]
        # Mutating the copy leaves the original alone.
        touched = copy.task_names()[:2]
        copy.add_task(Task("fresh", cost=clb_cost(1, ns(1))), env_input_words=7)
        for name in touched:
            copy.set_cost(name, clb_cost(999, ns(9)))
            copy.set_env_io(name, env_input_words=99, env_output_words=99)
            copy.add_edge(name, "fresh", 5)
        assert full_task_state(graph) == original


# ---------------------------------------------------------------------------
# DataFlowGraph
# ---------------------------------------------------------------------------


def dfg_state(graph: DataFlowGraph):
    return {
        "nodes": graph.operation_names(),
        "operations": [op.name for op in graph.operations()],
        "edges": graph.edges(),
        "predecessors": {name: graph.predecessors(name) for name in graph.operation_names()},
        "successors": {name: graph.successors(name) for name in graph.operation_names()},
        "topological_order": graph.topological_order(),
    }


def reference_dfg_state(graph: nx.DiGraph):
    return {
        "nodes": list(graph.nodes),
        "operations": list(graph.nodes),
        "edges": list(graph.edges),
        "predecessors": {node: list(graph.predecessors(node)) for node in graph},
        "successors": {node: list(graph.successors(node)) for node in graph},
        "topological_order": list(nx.topological_sort(graph)),
    }


def replay_dependencies(names, edges):
    """Replay *edges* on a DataFlowGraph and on the reference; a duplicate
    is a no-op on both."""
    graph = DataFlowGraph("ref")
    for name in names:
        graph.add_operation(Operation(name, OpKind.ADD))
    reference = nx.DiGraph()
    reference.add_nodes_from(names)
    for producer, consumer, _ in edges:
        before = dfg_state(graph)
        try:
            reference_add_edge(reference, producer, consumer)
            expected = None
        except (GraphError, CycleError) as error:
            expected = type(error)
        if expected is None:
            graph.add_dependency(producer, consumer)
        else:
            with pytest.raises(GraphError) as raised:
                graph.add_dependency(producer, consumer)
            assert type(raised.value) is expected
            assert dfg_state(graph) == before
    return graph, reference


@SETTINGS
@given(edge_sequences())
def test_dfg_add_dependency_matches_the_reference(case):
    names, edges, kept = case
    graph, reference = replay_dependencies(names, edges)
    assert dfg_state(graph) == reference_dfg_state(reference)
    for selection, copy in (
        (set(names), graph.copy()),
        (kept, graph.subgraph_copy(kept)),
    ):
        replay = nx.DiGraph()
        replay.add_nodes_from(name for name in reference if name in selection)
        replay.add_edges_from(
            (u, v) for u, v in reference.edges if u in selection and v in selection
        )
        assert dfg_state(copy) == reference_dfg_state(replay)
        original = dfg_state(graph)
        touched = copy.operation_names()[:2]
        copy.add_operation(Operation("fresh", OpKind.OUTPUT))
        for name in touched:
            copy.add_dependency(name, "fresh")
        assert dfg_state(graph) == original
