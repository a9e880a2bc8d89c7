"""The annealer's incremental move checks and the one-pass partition build.

:class:`AnnealTemporalPartitioner` checks and scores each proposed move
from incrementally kept state, and :class:`TemporalPartitioning` builds
every partition's info in one topological pass.  Both must be
bit-identical to the from-scratch reference implementations in
``anneal_reference.py``: same assignment items in the same order, same
partition count, method and latency bits, or the same error.  The golden
digest pins the outcomes on the whole small catalog.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies as strat
from anneal_reference import ReferenceAnnealPartitioner, reference_partition_infos
from repro.arch import ResourceVector
from repro.errors import PartitioningError
from repro.partition import (
    AnnealTemporalPartitioner,
    ListTemporalPartitioner,
    PartitionProblem,
    PortfolioPartitioner,
    TemporalPartitioning,
    validate_partitioning,
)
from repro.partition import anneal_partitioner
from repro.partition.anneal_partitioner import _MoveState
from repro.runtime import PartitionEngine
from repro.synth import DesignFlow
from repro.taskgraph import Task, TaskCost, TaskGraph
from repro.units import ms, ns
from repro.verify.scenarios import FAMILIES
from repro.workloads import get_workload, workload_names

#: sha256 over every (variant, CT, seed, assignment items, method, latency
#: bits) of the annealer (seeds 0 and 7) and of the certified portfolio runs
#: (seed ``None``) on every non-huge catalog variant at CT 1, 5 and 20 ms.
GOLDEN_OUTCOMES = "3b308def8d86be5497dc4a4e675d767483b137ea6844b24b8b6ea0b83bad7b82"


def _outcome(result: TemporalPartitioning):
    return (
        list(result.assignment.items()),
        result.partition_count,
        result.method,
        result.total_latency.hex(),
    )


def _outcome_or_error(partitioner, problem):
    try:
        return _outcome(partitioner.partition(problem))
    except PartitioningError as error:
        return ("error", str(error))


def _assert_matches_reference(problem, **params):
    incremental = _outcome_or_error(AnnealTemporalPartitioner(**params), problem)
    reference = _outcome_or_error(ReferenceAnnealPartitioner(**params), problem)
    assert incremental == reference


#: Memory budgets small enough to reject moves: the families' edges carry
#: 1-48 words each.
BINDING_SYSTEMS = strat.systems(min_clbs=300, min_memory=8, max_memory=512)


@given(
    strat.task_graphs(families=FAMILIES, max_tasks=24),
    BINDING_SYSTEMS,
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2000),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_incremental_annealer_matches_reference(graph, system, seed, iterations):
    problem = PartitionProblem.from_system(graph, system)
    _assert_matches_reference(problem, seed=seed, iterations=iterations)


@given(
    strat.task_graphs(families=FAMILIES, max_tasks=24),
    BINDING_SYSTEMS,
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_move_state_tracks_the_reference_checks(graph, system, seed):
    """Every proposed move is checked and scored as the from-scratch
    reference would, and the kept usage and crossing words stay equal to a
    recount after accepted and rejected moves alike."""
    problem = PartitionProblem.from_system(graph, system)
    try:
        start = ListTemporalPartitioner().partition(problem)
    except PartitioningError:
        return
    bound = start.partition_count
    state = _MoveState(problem, start.assignment, bound)
    names = graph.task_names()
    assignment = dict(start.assignment)
    rng = random.Random(seed)
    for _ in range(200):
        task = rng.randrange(len(names))
        name, target = names[task], rng.randint(1, bound)
        if target == assignment[name]:
            continue
        boundary_words = state.check_move(task, target)
        feasible = ReferenceAnnealPartitioner._move_is_feasible(
            problem, assignment, name, target
        )
        assert (boundary_words is not None) == feasible
        if not feasible:
            continue
        previous = assignment[name]
        state.assignment[task] = assignment[name] = target
        score = ReferenceAnnealPartitioner._score(problem, assignment)
        assert state.score().hex() == score.hex()
        if rng.random() < 0.5:
            state.commit_move(task, previous, boundary_words)
        else:
            state.assignment[task] = assignment[name] = previous
    recount = TemporalPartitioning(graph, assignment, bound, problem.reconfiguration_time)
    assert state.crossing[1:bound] == [recount.boundary_words(b) for b in range(1, bound)]
    for info in recount.partitions:
        assert state.usage[info.index] == [
            info.resources[kind] for kind in sorted(graph.total_resources().amounts)
        ]


def _assert_scores_track_reference(problem, assignment, bound, moves):
    """Apply each ``(task, target, undo)`` move to a move state, feasible or
    not, and undo it when *undo* is set: after the move and after the undo
    the score's bits equal the from-scratch reference's."""
    names = problem.graph.task_names()
    state = _MoveState(problem, assignment, bound)
    assignment = dict(assignment)

    def check():
        expected = ReferenceAnnealPartitioner._score(problem, assignment)
        assert state.score().hex() == expected.hex()

    check()
    for name, target, undo in moves:
        task = names.index(name)
        previous = assignment[name]
        state.assignment[task] = assignment[name] = target
        check()
        if undo:
            state.assignment[task] = assignment[name] = previous
            check()


@st.composite
def _scored_moves(draw):
    graph, assignment, count = draw(_assignments())
    move = st.tuples(
        st.sampled_from(graph.task_names()),
        st.integers(min_value=1, max_value=count),
        st.booleans(),
    )
    moves = draw(st.lists(move, max_size=30))
    ct = draw(st.sampled_from([0.0, ns(50), ms(1)]))
    problem = PartitionProblem(graph, graph.total_resources(), 1 << 20, ct)
    return problem, assignment, count, moves


@given(_scored_moves())
@settings(max_examples=80, deadline=None)
def test_score_matches_the_reference_after_every_move(case):
    """Arbitrary assignments and moves: empty partitions, moves that empty
    one, and partitions that first appear out of index order."""
    _assert_scores_track_reference(*case)


def test_score_sums_the_partitions_in_first_appearance_order():
    """Three independent tasks whose partitions first appear as P3, P1, P2.
    Before CPython 3.12 (whose ``sum()`` compensates), summing their delays
    in index order would give other bits.  The moves empty P1, then P3."""
    graph = TaskGraph("three-alone")
    for name, delay in (("a", 764), ("b", 153), ("c", 260)):
        graph.add_task(Task(name, cost=TaskCost(ResourceVector({"clb": 1}), ns(delay))))
    first, second, third = graph.topological_order()
    assignment = {first: 3, second: 1, third: 2}
    problem = PartitionProblem(graph, ResourceVector({"clb": 3}), 64, ns(50))
    moves = [(second, 2, True), (second, 3, False), (first, 1, False), (third, 1, True)]
    _assert_scores_track_reference(problem, assignment, 3, moves)


def _inline_below(getrandbits, n):
    """``randrange(n)`` the way ``AnnealTemporalPartitioner._anneal`` draws it."""
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


def test_inline_draws_are_randrange_and_randint():
    """The annealer draws its move indices with CPython's own rejection
    sampler over ``getrandbits``.  Its moves are those of ``randrange`` and
    ``randint`` only while CPython draws that way, so this pins it: every
    n and b in 1..130 (each power of two and its neighbours), 60 seeds,
    with ``random()`` interleaved as a worsening move's Metropolis step."""
    for seed in range(60):
        library, inline = random.Random(seed), random.Random(seed)
        expected, drawn = [], []
        for n in range(1, 131):
            bound = (n * 7 + seed) % 130 + 1
            for _ in range(3):
                task, target = library.randrange(n), library.randint(1, bound)
                expected.append((task, target, library.random() if task % 2 else None))
                task = _inline_below(inline.getrandbits, n)
                target = _inline_below(inline.getrandbits, bound) + 1
                drawn.append((task, target, inline.random() if task % 2 else None))
        assert drawn == expected


def test_a_single_partition_loop_draws_nothing(monkeypatch):
    """With one partition every proposed move is a no-op, so the loop
    returns the list start without a draw, yet it still runs through the
    memo: one miss per engine."""
    draws = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(anneal_partitioner, "random", SimpleNamespace(Random=CountingRandom))
    matmul = get_workload("matmul_pipeline")
    single = PartitionProblem.from_system(matmul.build_graph(dim=2), matmul.default_system())
    start = ListTemporalPartitioner().partition(single)
    assert start.partition_count == 1
    for _ in range(2):
        engine = PartitionEngine(workers=0)
        assert engine.solve(single, partitioner="anneal").assignment == start.assignment
        stats = engine.stats.snapshot()
        assert (stats["memo_anneal_misses"], stats["memo_anneal_hits"]) == (1, 0)
    assert draws == []
    wavelet = get_workload("wavelet_pyramid")
    several = PartitionProblem.from_system(wavelet.build_graph(), wavelet.default_system())
    AnnealTemporalPartitioner().partition(several)
    assert len(draws) >= 2000


def _two_kind_graph() -> TaskGraph:
    """Two crossing chains of ten tasks; CLBs would fit them all in one
    partition, DSP blocks (5 per partition) would not."""
    graph = TaskGraph("two-kinds")
    dsp = [1, 3, 2, 1, 2, 3, 1, 2, 2, 1]
    for index in range(10):
        resources = ResourceVector({"clb": 40 + 5 * index, "dsp": dsp[index]})
        delay = ns(100 + 37 * (index * 7 % 10))
        graph.add_task(Task(f"t{index}", cost=TaskCost(resources, delay)))
    graph.add_edges([
        ("t0", "t2", 64), ("t1", "t3", 32), ("t2", "t4", 48), ("t3", "t5", 16),
        ("t4", "t6", 64), ("t5", "t7", 8), ("t6", "t8", 32), ("t7", "t9", 24),
        ("t1", "t4", 12),
    ])
    return graph


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("memory_words", [96, 4096])
def test_second_resource_kind_binds(seed, memory_words):
    graph = _two_kind_graph()
    capacity = ResourceVector({"clb": 1000, "dsp": 5})
    problem = PartitionProblem(graph, capacity, memory_words, ns(50))
    _assert_matches_reference(problem, seed=seed)
    result = AnnealTemporalPartitioner(seed=seed).partition(problem)
    assert validate_partitioning(problem, result).is_valid
    assert graph.total_resources()["clb"] <= capacity["clb"]
    assert result.partition_count > 1
    assert max(info.resources["dsp"] for info in result.partitions) == capacity["dsp"]


@st.composite
def _assignments(draw):
    graph = draw(strat.task_graphs(families=FAMILIES, max_tasks=24))
    count = draw(st.integers(min_value=1, max_value=6))
    assignment = {
        name: draw(st.integers(min_value=1, max_value=count))
        for name in graph.task_names()
    }
    return graph, assignment, count


@given(_assignments())
@settings(max_examples=80, deadline=None)
def test_partition_infos_match_the_per_partition_walk(case):
    """Arbitrary assignments, empty partitions and broken precedence included."""
    graph, assignment, count = case
    result = TemporalPartitioning(graph, assignment, count, ms(1))
    expected = reference_partition_infos(result)
    assert [info.index for info in result.partitions] == [info.index for info in expected]
    for info, reference in zip(result.partitions, expected):
        assert info.tasks == reference.tasks
        assert info.delay.hex() == reference.delay.hex()
        assert list(info.resources.amounts.items()) == list(
            reference.resources.amounts.items()
        )


def test_zero_temperature_rejects_worsening_moves():
    """At cooling 0.5 the temperature underflows to 0.0 after ~1,060 moves;
    a worsening move after that is rejected instead of dividing by zero."""
    workload = get_workload("jpeg_dct")
    problem = PartitionProblem.from_system(workload.build_graph(), workload.default_system())
    first = AnnealTemporalPartitioner(cooling=0.5).partition(problem)
    second = AnnealTemporalPartitioner(cooling=0.5).partition(problem)
    assert validate_partitioning(problem, first).is_valid
    assert repr(_outcome(first)).encode() == repr(_outcome(second)).encode()


def _catalog_problems():
    """Every non-huge catalog variant, HLS-estimated, at CT 1, 5 and 20 ms."""
    for name in workload_names(exclude_tags=("huge",)):
        workload = get_workload(name)
        system = workload.default_system()
        flow = DesignFlow(system, workload.flow_options())
        for variant in workload.variants():
            graph = flow.estimate(workload.build_graph(**variant.params))
            for ct in (1, 5, 20):
                target = system.with_reconfiguration_time(ms(ct))
                yield variant.name, ct, PartitionProblem.from_system(graph, target)


def test_catalog_outcomes_match_the_pinned_digest():
    """Annealer and certified portfolio outcomes are byte-identical to the
    pinned ones.  Uncertified portfolio runs end in a HiGHS solve, whose
    choice among equal optima may change with the HiGHS version, so they
    stay out of the digest."""
    digest = hashlib.sha256()

    def update(variant, ct, seed, result):
        row = [
            variant, ct, seed, list(result.assignment.items()), result.method,
            result.total_latency.hex(),
        ]
        digest.update(json.dumps(row).encode())

    for variant, ct, problem in _catalog_problems():
        for seed in (0, 7):
            update(variant, ct, seed, AnnealTemporalPartitioner(seed).partition(problem))
        portfolio = PortfolioPartitioner()
        result = portfolio.partition(problem)
        if portfolio.last_report.certified:
            update(variant, ct, None, result)
    assert digest.hexdigest() == GOLDEN_OUTCOMES


def _count_list_runs(monkeypatch):
    """Record the priority rule of every list-scheduler run from now on."""
    runs = []
    pack = ListTemporalPartitioner.partition

    def counted(self, problem):
        runs.append(self.priority)
        return pack(self, problem)

    monkeypatch.setattr(ListTemporalPartitioner, "partition", counted)
    return runs


def test_the_portfolio_packs_one_resource_rule_start(monkeypatch):
    """The anneal arm refines the ``list-resource`` arm's result instead of
    packing the same start again: one resource-rule list run per portfolio
    problem, and the arm's candidate is the annealer's own result."""
    problems = list(islice((problem for _, ct, problem in _catalog_problems() if ct == 5), 12))
    annealed = [AnnealTemporalPartitioner().partition(problem) for problem in problems]
    runs = _count_list_runs(monkeypatch)
    for problem, expected in zip(problems, annealed):
        portfolio = PortfolioPartitioner()
        portfolio.partition(problem)
        candidates = dict(portfolio.last_report.candidates)
        assert candidates["anneal[seed=0]"].hex() == expected.total_latency.hex()
    assert runs.count("resource") == len(problems)
    assert runs.count("delay") == len(problems)


def test_the_anneal_arm_has_no_start_when_the_list_arm_fails(monkeypatch):
    """Memory too small for any two-partition split: the list scheduler
    fails, and the anneal arm yields no candidate without packing again."""
    graph = TaskGraph("no-start")
    for name in "abc":
        graph.add_task(Task(name, cost=TaskCost(ResourceVector({"clb": 60}), 1e-6)))
    graph.add_edges([("a", "b", 100), ("b", "c", 100)])
    problem = PartitionProblem(graph, ResourceVector({"clb": 100}), 10, 1e-3)
    with pytest.raises(PartitioningError):
        AnnealTemporalPartitioner().partition(problem)
    runs = _count_list_runs(monkeypatch)
    report = SimpleNamespace(arms_run=[])
    arms = dict(PortfolioPartitioner()._heuristic_arms(problem, report))
    assert arms["list-resource"] is None
    assert arms["anneal[seed=0]"] is None
    assert report.arms_run == ["list-resource", "list-delay", "level", "anneal[seed=0]"]
    assert runs == ["resource", "delay"]
