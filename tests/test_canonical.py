"""Canonical hashing, checked against its reference.

``canonical_graph_text`` (behind ``graph_content_digest``) and
``canonical_problem_text`` (behind ``problem_fingerprint``) write their JSON
text directly.  For any graph — with or without data-flow graphs, with
names, types and kinds holding quotes, backslashes, control, non-ASCII and
astral characters, with non-str names or kinds, set task types and odd
problem fields — both must return exactly the text of the dict forms in
``canonical_reference.py``, or raise the same exception type for an input
those reject.  A pinned digest over a fixed corpus ties every key to the
one it had before the writers.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonical_reference as reference
from repro.arch import paper_case_study_system
from repro.arch.device import ResourceVector
from repro.dfg.graph import DataFlowGraph
from repro.dfg.operations import OpKind, Operation
from repro.errors import ArchitectureError, GraphError
from repro.jpeg import build_dct_task_graph
from repro.partition import PartitionProblem, SolverSpec
from repro.runtime import canonical
from repro.runtime.canonical import (
    canonical_graph_text,
    canonical_problem_text,
    problem_fingerprint,
    text_digest,
)
from repro.runtime.engine import PartitionEngine
from repro.runtime.jobs import PartitionJob
from repro.synth import DesignFlow, FlowOptions, workload_flow_jobs
from repro.synth.flow_engine import FlowEngine, FlowJob
from repro.synth.stages import graph_content_digest
from repro.taskgraph import Task, TaskCost, TaskGraph, random_dsp_task_graph
from repro.verify.scenarios import generate_scenarios
from repro.workloads import get_workload


class Name(str):
    """A ``str`` subclass: written through ``canonical_value`` and ``json``."""


#: Characters JSON escapes, or writes as ``\\uXXXX`` (astral ones as a
#: surrogate pair), plus lone surrogates.
ODD_CHARACTERS = st.sampled_from(
    ('"', "\\", "/", "\n", "\x00", "\x1f", "\x7f", "é", "€", "\U0001f600", "\ud800", "\udfff")
)
CHARACTERS = ODD_CHARACTERS | st.characters(blacklist_categories=())
TEXT = st.lists(CHARACTERS, max_size=5).map("".join)
NAMES = st.lists(CHARACTERS, min_size=1, max_size=5).map("".join)
#: Task types: strings, empty or ``None``, and in some graphs sets (sorted
#: into lists by the graph form, rejected by the problem form's JSON
#: encoder).
TASK_TYPES = st.one_of(st.none(), st.just(""), TEXT)
SET_TASK_TYPES = TASK_TYPES | st.sets(TEXT, max_size=3) | st.frozensets(TEXT, max_size=2)
AMOUNTS = st.one_of(
    st.sampled_from((0, 1, 2**63 - 1, 2**63, 2**64 + 5)),
    st.integers(min_value=0, max_value=1 << 70),
)
WORDS = st.one_of(st.just(0), st.integers(min_value=0, max_value=1 << 40))
DELAYS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True),
    st.sampled_from((0.0, -0.0, float("nan"), 1e-9)),
)
#: DFG constants: everything canonical_value accepts.
OP_VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, float("inf"), float("-inf"), float("nan"), None, True)),
    TEXT,
    st.tuples(st.floats(), st.integers()),
    st.lists(st.one_of(st.none(), TEXT), max_size=2),
)
#: Kinds of graph that carry a leaf one of the forms treats specially: an
#: int resource kind (fine in the problem form, rejected by the graph
#: form), a ``str``-subclass kind, a complex DFG constant, or a set task
#: type.
ODD_LEAVES = ("int kind", "str-subclass kind", "complex constant", "set type")


@st.composite
def costs(draw, odd):
    kinds = draw(
        st.lists(st.sampled_from(("clb", "dsp", "ram")) | NAMES, max_size=3, unique=True)
    )
    if odd == "int kind":
        kinds = draw(st.sampled_from(([7], [7, 3], kinds + [7], kinds)))
    elif odd == "str-subclass kind":
        kinds = [Name(kind) if draw(st.booleans()) else kind for kind in kinds]
    amounts = {kind: draw(AMOUNTS) for kind in kinds}
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
    # Task names are strings, or (rarely) str subclasses, floats (which the
    # graph form canonicalises to their hex text) or ints.
    names = draw(
        st.lists(NAMES, min_size=1, max_size=8, unique=True)
        | st.lists(NAMES.map(Name), min_size=1, max_size=4, unique=True)
        | st.lists(st.floats(min_value=0.5, max_value=1e6), min_size=1, max_size=4, unique=True)
        | st.lists(st.integers(min_value=1, max_value=99), min_size=1, max_size=4, unique=True)
    )
    odd = draw(st.sampled_from(ODD_LEAVES + (None,) * 7))
    task_types = SET_TASK_TYPES if odd == "set type" else TASK_TYPES
    graph = TaskGraph("hashing")
    for name in names:
        graph.add_task(
            Task(
                name,
                cost=draw(st.none() | costs(odd)),
                dfg=draw(st.none() | dfgs(odd == "complex constant")),
                task_type=draw(task_types),
            ),
            env_input_words=draw(WORDS),
            env_output_words=draw(st.integers(min_value=0, max_value=9)),
        )
    edges = {}
    for first, second, words in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(names) - 1),
                st.integers(min_value=0, max_value=len(names) - 1),
                WORDS,
            ),
            max_size=12,
        )
    ):
        if first != second:
            first, second = sorted((first, second))
            edges[(names[first], names[second])] = words
    graph.add_edges((producer, consumer, words) for (producer, consumer), words in edges.items())
    return graph


#: The memory size is not coerced by ``PartitionProblem``: a float is
#: written as a JSON number, a numpy integer is rejected by the encoder.
MEMORY_WORDS = st.one_of(
    st.integers(min_value=0, max_value=1 << 40),
    st.floats(min_value=0.0, max_value=1e12),
    st.integers(min_value=0, max_value=1 << 40).map(np.int64),
)
SOLVERS = st.one_of(
    st.none(),
    st.sampled_from(("ilp", "list", "anneal", "portfolio", "multilevel:list")).map(
        lambda name: SolverSpec(partitioner=name).cache_key_fields()
    ),
    st.dictionaries(
        TEXT | st.integers(min_value=0, max_value=9),
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT),
        max_size=4,
    ),
)


def _outcome(function, *args):
    try:
        return "text", function(*args)
    except Exception as error:  # the comparison is about which inputs raise
        return "error", type(error)


@given(task_graphs())
@settings(max_examples=200, deadline=None)
def test_graph_text_matches_the_reference(graph):
    assert _outcome(canonical_graph_text, graph) == _outcome(
        reference.reference_graph_text, graph
    )


@given(task_graphs(), MEMORY_WORDS, st.none() | st.integers(min_value=1, max_value=50),
       SOLVERS, st.data())
@settings(max_examples=200, deadline=None)
def test_problem_text_matches_the_reference(graph, memory_words, max_partitions, solver, data):
    for task in graph.tasks():
        if task.cost is None:
            graph.set_cost(task.name, TaskCost(ResourceVector({"clb": 1}), 1e-9))
    problem = PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector({"clb": 100, "dsp": 4}),
        memory_words=memory_words,
        reconfiguration_time=data.draw(DELAYS),
        max_partitions=max_partitions,
    )
    assert _outcome(canonical_problem_text, problem, solver) == _outcome(
        reference.reference_problem_text, problem, solver
    )


#: The jobs drawn onto one graph object: capacity, memory size, CT, bound
#: and solver all vary, the graph does not.
SHARED_JOBS = st.lists(
    st.tuples(
        st.sampled_from(({"clb": 100, "dsp": 4}, {"clb": 7}, {})),
        MEMORY_WORDS,
        DELAYS,
        st.none() | st.integers(min_value=1, max_value=50),
        st.sampled_from(("ilp", "list", "anneal", "portfolio", "multilevel:list")),
    ),
    min_size=1,
    max_size=3,
)


@given(task_graphs(), SHARED_JOBS, st.sampled_from(("as drawn", "in place", "a copy")))
@settings(max_examples=200, deadline=None)
def test_one_walk_in_a_batch_writes_both_keys(graph, jobs, costing):
    """Inside :func:`canonical.shared_walks`, the graph digest's walk of a
    costed graph also writes the problem form, and every job whose problem
    holds that graph object takes its fingerprint from it.  Both keys equal
    the ones written outside the block and the reference texts, or raise
    the same exception type (from ``PartitionJob.fingerprint`` too).  An
    uncosted graph is partitioned as an estimated copy, which writes its
    own problem form, unless the drawn tasks are costed *in place*."""
    target = graph if costing == "in place" or graph.all_estimated() else graph.copy()
    if costing == "a copy":
        target = graph.copy()
    for task in target.tasks():
        if task.cost is None:
            target.set_cost(task.name, TaskCost(ResourceVector({"clb": 1}), 1e-9))
    problems = [
        (PartitionProblem(target, ResourceVector(capacity), memory_words, ct, bound), name)
        for capacity, memory_words, ct, bound, name in jobs
    ]

    def keys():
        # The flow engine hashes each graph object once per batch.
        texts = [_outcome(graph_content_digest, graph)]
        for problem, name in problems:
            spec = SolverSpec(partitioner=name)
            texts.append(_outcome(canonical_problem_text, problem, spec.cache_key_fields()))
            texts.append(_outcome(PartitionJob(problem, spec).fingerprint))
        return texts

    expected = [_outcome(lambda: text_digest(reference.reference_graph_text(graph)))]
    for problem, name in problems:
        fields = SolverSpec(partitioner=name).cache_key_fields()
        expected.append(_outcome(reference.reference_problem_text, problem, fields))
        expected.append(_outcome(
            lambda: text_digest(reference.reference_problem_text(problem, fields))
        ))
    walks = []
    walk = canonical._walk

    def counting(*args, **kwargs):
        walks.append((kwargs["graph_form"], kwargs["problem_form"]))
        return walk(*args, **kwargs)

    canonical._walk = counting
    try:
        alone = keys()
        walks.clear()
        with canonical.shared_walks():
            shared = keys()
    finally:
        canonical._walk = walk
    assert shared == alone == expected
    assert canonical._shared.get() is None
    if all(kind == "text" for kind, _ in alone):
        # One walk writes both keys when the problems hold the graph itself;
        # a copy's problem form is written by a walk of its own per call.
        if target is graph:
            assert walks == [(True, True)]
        else:
            first = (True, graph.all_estimated())
            assert walks == [first] + [(False, True)] * 2 * len(problems)


def test_a_flow_batch_walks_its_costed_graph_once(monkeypatch):
    """Three flow jobs on one costed graph object, each with another
    partitioner: one walk writes the graph digest and all three
    fingerprints, which equal the keys written outside a batch, and the
    texts are gone before the partition engine solves."""
    graph = build_dct_task_graph()
    jobs = [
        FlowJob(graph, paper_case_study_system(), FlowOptions(partitioner=name))
        for name in ("list", "level", "anneal")
    ]
    walks, held = [], []
    walk, run_misses = canonical._walk, PartitionEngine._run_misses

    def counting(*args, **kwargs):
        walks.append((kwargs["graph_form"], kwargs["problem_form"]))
        return walk(*args, **kwargs)

    def solving(self, *args):
        held.append(dict(canonical._shared.get()))
        return run_misses(self, *args)

    monkeypatch.setattr(canonical, "_walk", counting)
    monkeypatch.setattr(PartitionEngine, "_run_misses", solving)
    engine = FlowEngine()
    assert all(report.ok for report in engine.run_batch(jobs))
    assert walks == [(True, True)] and held == [{}]
    assert canonical._shared.get() is None
    reports = engine.engine.last_batch.reports
    assert len({report.outcome.fingerprint for report in reports}) == 3
    for report in reports:
        assert report.job.problem.graph is graph
        assert report.outcome.fingerprint == report.job.fingerprint()


def test_a_resource_kind_that_is_not_a_string():
    """The graph form rejects it, like the reference; the problem form's JSON
    encoder writes it as a string key."""
    graph = TaskGraph("int-kind")
    graph.add_task(Task("a", cost=TaskCost(ResourceVector({7: 2}), 1e-9)))
    for text in (canonical_graph_text, reference.reference_graph_text):
        with pytest.raises(TypeError, match="keys must be strings"):
            text(graph)
    problem = PartitionProblem(
        graph=graph,
        resource_capacity=ResourceVector({7: 4}),
        memory_words=8,
        reconfiguration_time=0.0,
    )
    assert canonical_problem_text(problem) == reference.reference_problem_text(problem)
    assert '"resources":{"7":2}' in canonical_problem_text(problem)


def test_the_hashes_keep_no_container_alive():
    """The writers build strings, which the cyclic collector does not track,
    so hashing a 2000-task graph triggers no collection.  The dict forms
    kept a few dicts per task alive until ``json.dumps`` had walked them:
    several collections per hash at the default thresholds."""
    graph = random_dsp_task_graph(
        task_count=2000, seed=0, max_level_width=24, edge_probability=0.08
    )
    problem = PartitionProblem(graph, ResourceVector({"clb": 1 << 30}), 1 << 20, 0.0)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        graph_content_digest(graph)
        problem_fingerprint(problem, SolverSpec(partitioner="list").cache_key_fields())
    finally:
        gc.callbacks.remove(count)
    assert starts == []


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
    assert job.fingerprint() == text_digest(
        reference.reference_problem_text(problem, job.solver.cache_key_fields())
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


#: sha256 over every key of :func:`_key_corpus`, recorded before the hashes
#: wrote their text directly.  Any change to a digest or fingerprint of the
#: corpus — which a stored stage, cache entry or run store is keyed by —
#: changes it.
GOLDEN_CANONICAL_KEYS = "df2b1b445937ddb96b273ee44ff7aa912a70f34516f779e73e8386a140b0aa64"

#: The solver configurations each corpus problem is fingerprinted under.
KEY_SOLVERS = ("ilp", "list", "anneal", "portfolio", "multilevel:portfolio")


def _key_corpus():
    """``(label, graph, system, options)`` of every catalog design variant,
    the HLS-estimated DCT (DFGs attached, costs stripped), the first 80
    verify scenarios and the 10k-task tier."""
    for job in workload_flow_jobs(variants=True):
        yield f"{job.workload}/{job.tag}", job.graph, job.system, job.options
    graph = build_dct_task_graph(attach_dfgs=True)
    for name in graph.task_names():
        graph.task(name).cost = None
    yield "dct-hls", graph, paper_case_study_system(), FlowOptions()
    for scenario in generate_scenarios(80, base_seed=0):
        yield (scenario.name, scenario.build_graph(), scenario.build_system(),
               scenario.flow_options())
    workload = get_workload("random_layered_10k")
    yield (workload.name, workload.build_graph(seed=0), workload.default_system(),
           workload.flow_options())


def test_keys_match_the_pinned_digest():
    """The graph digest before and after estimation, the bare problem
    fingerprint and the job fingerprint under each solver, for every corpus
    entry, are the keys they were."""
    digest = hashlib.sha256()
    for label, graph, system, options in _key_corpus():
        estimated = DesignFlow(system, options).estimate(graph)
        problem = PartitionProblem.from_system(estimated, system)
        keys = [graph_content_digest(graph), graph_content_digest(estimated),
                problem_fingerprint(problem)]
        keys += [PartitionJob(problem, SolverSpec(partitioner=name)).fingerprint()
                 for name in KEY_SOLVERS]
        digest.update(repr((label, keys)).encode())
    assert digest.hexdigest() == GOLDEN_CANONICAL_KEYS
