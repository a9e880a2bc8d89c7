"""The kept topological orders equal a fresh sort after every change.

``TaskGraph`` sorts its current nodes and edges once and hands out copies
of that order until ``add_task``, ``add_edge`` or ``add_edges`` changes
the structure; ``add_edges`` keeps the sort it runs as its cycle check.
Drawn interleavings of the three mutators and of cost changes, with
refused self, duplicate and cycle edges and bulk inserts rolled back on a
cycle or a duplicate, compare the order after every step with
:func:`repro.dag.topological_order` over the graph's own maps.  A flow of
a graph built with ``add_edges`` sorts it no more.  ``DataFlowGraph``
keeps its order the same way, until ``add_operation`` or
``add_dependency`` changes it.
"""

from __future__ import annotations

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import dag
from repro.arch import ResourceVector
from repro.arch.catalog import generic_system
from repro.dfg.graph import DataFlowGraph
from repro.dfg.operations import OpKind, Operation
from repro.errors import GraphError
from repro.synth.flow import FlowOptions
from repro.synth.flow_engine import FlowEngine, FlowJob
from repro.taskgraph import Task, TaskCost, TaskGraph
from repro.taskgraph.builders import random_dsp_task_graph
from repro.units import ms

#: A task index, resolved modulo the graph's size when the step runs.
_INDEX = st.integers(min_value=0, max_value=40)
_EDGE = st.tuples(_INDEX, _INDEX, st.integers(min_value=0, max_value=9))

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_task"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("add_edge"), _EDGE),
        st.tuples(st.just("add_edges"), st.lists(_EDGE, max_size=8)),
        st.tuples(st.just("set_cost"), _INDEX),
    ),
    max_size=40,
)


def _fresh(graph: TaskGraph):
    maps = graph.maps()
    return dag.topological_order(maps.succ, maps.pred)


def _apply(graph: TaskGraph, step) -> None:
    kind, argument = step
    names = graph.task_names()
    if kind == "add_task":
        # Names are not inserted in name order.
        name = f"t{(len(names) * 7) % 41:02d}-{len(names)}"
        graph.add_task(Task(name, cost=TaskCost(ResourceVector({}), 1e-9)), argument)
        return
    if not names:
        return
    if kind == "set_cost":
        # Costs are not structure: the kept order stays.
        name = names[argument % len(names)]
        graph.set_cost(name, TaskCost(ResourceVector({"clb": argument}), 0.0))
        graph.task(name).cost = None
        return
    edges = [argument] if kind == "add_edge" else argument
    triples = [(names[a % len(names)], names[b % len(names)], words) for a, b, words in edges]
    try:
        if kind == "add_edge":
            graph.add_edge(*triples[0])
        else:
            graph.add_edges(triples)
    except GraphError:
        pass  # a self, duplicate or cycle edge: the graph is unchanged


@given(STEPS, st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_kept_order_is_a_fresh_sort_after_every_step(steps, data):
    graph = TaskGraph("memo")
    for step in steps:
        _apply(graph, step)
        order = graph.topological_order()
        assert order == _fresh(graph)
        if graph.task_names():
            graph.validate()
        # The caller owns the list it was handed.
        order.reverse()
        order.append("ghost")
        assert graph.topological_order() == _fresh(graph)

    copy = graph.copy()
    assert copy.topological_order() == _fresh(copy) == _fresh(graph)
    keep = data.draw(st.lists(st.sampled_from(graph.task_names()), unique=True)
                     if graph.task_names() else st.just([]))
    sub = graph.subgraph_copy(keep)
    assert sub.topological_order() == _fresh(sub)
    restored = pickle.loads(pickle.dumps(graph))
    assert restored.topological_order() == _fresh(restored) == _fresh(graph)
    # A structural change after the round trip clears the restored order.
    _apply(restored, ("add_task", 0))
    assert restored.topological_order() == _fresh(restored)


def test_a_flow_of_a_bulk_built_graph_never_sorts_it(monkeypatch):
    """``add_edges`` keeps its cycle-check sort, so validating the problem,
    the multilevel move state and both partition-delay walks (the result
    and its rehydration) read that order instead of sorting the graph."""
    graph = random_dsp_task_graph(task_count=400, seed=0, max_level_width=24,
                                  edge_probability=0.08)
    sorts = []
    sort = dag.topological_order

    def counting(succ, pred):
        if pred is graph.maps().pred:
            sorts.append(len(pred))
        return sort(succ, pred)

    monkeypatch.setattr(dag, "topological_order", counting)
    job = FlowJob(
        graph=graph,
        system=generic_system(clb_capacity=20 * 400, memory_words=1 << 20,
                              reconfiguration_time=ms(5)),
        options=FlowOptions(partitioner="multilevel:list"),
    )
    report = FlowEngine().run_batch([job])[0]
    assert report.ok and report.design.partition_count > 1
    assert sorts == []


DFG_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_operation"), _INDEX),
        st.tuples(st.just("add_dependency"), st.tuples(_INDEX, _INDEX)),
    ),
    max_size=40,
)


def _fresh_dfg(dfg: DataFlowGraph):
    return dag.topological_order(dfg._succ, dfg._pred)


def _apply_dfg(dfg: DataFlowGraph, step) -> None:
    kind, argument = step
    names = dfg.operation_names()
    try:
        if kind == "add_operation":
            # Names are not inserted in name order; a repeated one is refused.
            dfg.add_operation(Operation(f"op{(argument * 7) % 23:02d}", OpKind.ADD))
        elif names:
            first, second = argument
            # An index past the end names an unknown operation, refused.
            producer = names[first % len(names)] if first < 36 else "ghost"
            dfg.add_dependency(producer, names[second % len(names)])
    except GraphError:
        pass  # a duplicate, unknown, self or cycle edge: the DFG is unchanged


@given(DFG_STEPS, st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_dfg_keeps_a_fresh_sort_after_every_step(steps, data):
    dfg = DataFlowGraph("memo")
    for step in steps:
        _apply_dfg(dfg, step)
        order = dfg.topological_order()
        assert order == _fresh_dfg(dfg)
        # The caller owns the list it was handed.
        order.reverse()
        order.append("ghost")
        assert dfg.topological_order() == _fresh_dfg(dfg)

    for copy in (dfg.copy(), dfg.subgraph_copy(data.draw(
            st.lists(st.sampled_from(dfg.operation_names()), unique=True)
            if len(dfg) else st.just([])))):
        assert "_order" not in vars(copy)
        assert copy.topological_order() == _fresh_dfg(copy)
    restored = pickle.loads(pickle.dumps(dfg))
    assert restored.topological_order() == _fresh_dfg(restored) == _fresh_dfg(dfg)
    # A DFG pickled before the order was kept has no ``_order`` attribute.
    vars(restored).pop("_order", None)
    older = pickle.loads(pickle.dumps(restored))
    assert "_order" not in vars(older)
    assert older.topological_order() == _fresh_dfg(older) == _fresh_dfg(dfg)
    _apply_dfg(older, ("add_operation", len(older) + 1))
    assert older.topological_order() == _fresh_dfg(older)


def test_an_hls_estimate_sorts_each_dfg_once(monkeypatch):
    """Scheduling, controller and datapath estimation read each DFG's order
    many times; the DCT's 16-operation DFGs are sorted when they are built
    (their ``validate``), and the estimate of the cost-stripped graph reuses
    those orders (192 sorts without a kept order)."""
    from repro.arch import paper_case_study_system
    from repro.jpeg import build_dct_task_graph
    from repro.synth import DesignFlow, FlowOptions

    graph = build_dct_task_graph(attach_dfgs=True)
    for name in graph.task_names():
        graph.task(name).cost = None
    sorts = []
    sort = dag.topological_order

    def counting(succ, pred):
        sorts.append(len(pred))
        return sort(succ, pred)

    monkeypatch.setattr(dag, "topological_order", counting)
    DesignFlow(paper_case_study_system(), FlowOptions()).estimate(graph)
    assert sorts == []
