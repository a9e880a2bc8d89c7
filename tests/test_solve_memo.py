"""The per-engine solve memo (:mod:`repro.memo`).

An engine memoises the HiGHS call and the annealing loop by a digest of
their exact inputs.  These tests pin the contract: a memo hit changes no
outcome field but the timings, a memo lives only as long as its engine
and only around the engine's in-process solves, outcomes that depend on
the clock are never stored, the memo is bounded by ``lru_capacity``, and
any change to a kernel input misses.
"""

from __future__ import annotations

import ast
import dataclasses
import struct
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.optimize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import memo
from repro.ilp import SolveStatus, solve_milp_scipy
from repro.partition import (
    AnnealTemporalPartitioner,
    IlpTemporalPartitioner,
    PartitionProblem,
)
from repro.partition.ilp_formulation import TemporalPartitioningFormulation
from repro.runtime import LruCache, PartitionEngine
from repro.synth import DesignFlow, FlowOptions
from repro.units import ms
from repro.verify.scenarios import FAMILIES, generate_scenarios
from repro.workloads import get_workload, workload_names

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

PARTITIONERS = ("ilp", "anneal", "portfolio", "multilevel:portfolio")
CTS = (0.0, ms(1), ms(10))
TIMING_FIELDS = ("solve_time", "worker_time")


def _fresh_memo(capacity: int = 256) -> memo.SolveMemo:
    return memo.SolveMemo(lambda: LruCache(capacity))


@lru_cache(maxsize=None)
def _catalog_problems():
    """Every costed catalog variant of at most 12 tasks, on its default system."""
    problems = []
    for name in workload_names(exclude_tags=("huge",)):
        workload = get_workload(name)
        for variant in workload.variants():
            graph = workload.build_graph(**variant.params)
            names = graph.task_names()
            if len(names) > 12 or not all(graph.task(task).has_cost for task in names):
                continue
            problems.append(PartitionProblem.from_system(graph, workload.default_system()))
    return tuple(problems)


def _scenario_problem(seed: int) -> PartitionProblem:
    scenario = generate_scenarios(1, base_seed=seed, families=FAMILIES)[0]
    return PartitionProblem.from_system(scenario.build_graph(), scenario.build_system())


def _problems():
    return st.one_of(
        st.integers(min_value=0, max_value=10 ** 6).map(_scenario_problem),
        st.integers(min_value=0, max_value=len(_catalog_problems()) - 1).map(
            lambda index: _catalog_problems()[index]
        ),
    )


def _sweep_jobs(engine: PartitionEngine, problem: PartitionProblem):
    return [
        engine.make_job(
            dataclasses.replace(problem, reconfiguration_time=ct),
            tag=f"{partitioner}@{ct}",
            partitioner=partitioner,
        )
        for partitioner in PARTITIONERS
        for ct in CTS
    ]


def _comparable(outcome) -> dict:
    fields = dataclasses.asdict(outcome)
    for name in TIMING_FIELDS:
        fields.pop(name)
    return fields


class _CountingMilp:
    """Stands in for ``scipy.optimize.milp`` and counts its calls."""

    def __init__(self, monkeypatch, result=None):
        self.calls = 0
        self._milp = scipy.optimize.milp
        self._result = result
        monkeypatch.setattr(scipy.optimize, "milp", self)

    def __call__(self, **kwargs):
        self.calls += 1
        if self._result is not None:
            return self._result
        return self._milp(**kwargs)


def _small_system():
    return get_workload("matmul_pipeline").default_system()


def _small_problem(ct: float = ms(5)) -> PartitionProblem:
    graph = get_workload("matmul_pipeline").build_graph(dim=2)
    return PartitionProblem.from_system(graph, _small_system().with_reconfiguration_time(ct))


def _flip_one_delay_bit(problem: PartitionProblem) -> PartitionProblem:
    graph = problem.graph.copy()
    name = graph.task_names()[0]
    cost = graph.task(name).cost
    (bits,) = struct.unpack("<q", struct.pack("<d", cost.delay))
    (delay,) = struct.unpack("<d", struct.pack("<q", bits ^ 1))
    graph.set_cost(name, dataclasses.replace(cost, delay=delay))
    return dataclasses.replace(problem, graph=graph)


# ---------------------------------------------------------------------------
# A hit changes nothing but the timings
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=_problems())
def test_one_engine_matches_a_fresh_engine_per_job(problem):
    shared = PartitionEngine(workers=0)
    swept = shared.solve_batch(_sweep_jobs(shared, problem))
    for report in swept:
        fresh = PartitionEngine(workers=0).solve_batch([report.job])[0]
        assert _comparable(report.outcome) == _comparable(fresh.outcome), report.job.tag


def test_a_ct_sweep_reuses_the_exact_arm_and_the_anneal_loop():
    problem = _catalog_problems()[0]
    engine = PartitionEngine(workers=0)
    jobs = _sweep_jobs(engine, problem)
    assert engine.solve_batch(jobs).ok
    stats = engine.stats.snapshot()
    # The plain anneal job and the portfolio's anneal arm share each CT.
    assert stats["memo_anneal_hits"] >= len(CTS)
    assert stats["memo_milp_hits"] >= 1


# ---------------------------------------------------------------------------
# Scope: one memo per engine, installed only around its in-process solves
# ---------------------------------------------------------------------------

def test_a_fresh_engine_runs_highs_again(monkeypatch):
    counter = _CountingMilp(monkeypatch)
    first = PartitionEngine(workers=0)
    first.solve(_small_problem(ms(1)), partitioner="ilp")
    solved = counter.calls
    assert solved >= 1
    # Same model, new fingerprint (CT differs): the engine's memo serves it.
    first.solve(_small_problem(ms(2)), partitioner="ilp")
    assert counter.calls == solved
    assert first.stats.snapshot()["memo_milp_hits"] == solved
    PartitionEngine(workers=0).solve(_small_problem(ms(1)), partitioner="ilp")
    assert counter.calls == 2 * solved


def test_only_run_inline_installs_a_memo():
    installs = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
                if name in ("scope", "memo_scope"):
                    installs.append((path.relative_to(SRC).as_posix(), function.name))
    assert installs == [("runtime/engine.py", "_run_inline")]


def test_only_an_engine_solve_sees_a_memo(monkeypatch):
    seen = []
    anneal = AnnealTemporalPartitioner._anneal

    def recording_anneal(self, state):
        seen.append(memo.active())
        return anneal(self, state)

    monkeypatch.setattr(AnnealTemporalPartitioner, "_anneal", recording_anneal)
    problem = _small_problem()
    engine = PartitionEngine(workers=0)
    engine.solve(problem, partitioner="anneal")
    assert seen == [engine.memo]
    assert memo.active() is None
    flow = DesignFlow(_small_system(), FlowOptions(partitioner="anneal"))
    for _ in range(2):
        AnnealTemporalPartitioner().partition(problem)
        flow.build(problem.graph)
    # A bare partitioner runs with none; each build is a one-job run of a
    # fresh engine, so it sees that engine's memo, shared with no other call.
    bare, built = seen[1::2], seen[2::2]
    assert bare == [None, None]
    assert all(isinstance(each, memo.SolveMemo) for each in built)
    assert built[0] is not built[1]
    assert all(each is not engine.memo for each in built)
    assert memo.active() is None


def test_bare_solves_run_highs_every_time(monkeypatch):
    counter = _CountingMilp(monkeypatch)
    problem = _small_problem()
    flow = DesignFlow(_small_system(), FlowOptions(partitioner="ilp"))
    for run in (
        lambda: IlpTemporalPartitioner().partition(problem),
        lambda: flow.build(problem.graph),
    ):
        calls = counter.calls
        run()
        per_run = counter.calls - calls
        run()
        assert per_run >= 1
        assert counter.calls == calls + 2 * per_run


def test_a_pool_engine_keeps_no_memo():
    engine = PartitionEngine(workers=2)
    problem = _small_problem()
    jobs = [
        engine.make_job(dataclasses.replace(problem, reconfiguration_time=ct), partitioner="anneal")
        for ct in (ms(1), ms(2))
    ]
    assert engine.solve_batch(jobs).ok
    stats = engine.stats.snapshot()
    assert {key: value for key, value in stats.items() if key.startswith("memo_")} == {
        "memo_milp_hits": 0,
        "memo_milp_misses": 0,
        "memo_anneal_hits": 0,
        "memo_anneal_misses": 0,
    }


# ---------------------------------------------------------------------------
# What is stored, and for how long
# ---------------------------------------------------------------------------

def _form(problem: PartitionProblem):
    return TemporalPartitioningFormulation(problem, problem.minimum_partitions()).form


def test_an_iteration_limit_is_solved_again(monkeypatch):
    form = _form(_small_problem())
    counter = _CountingMilp(
        monkeypatch, SimpleNamespace(status=1, x=np.zeros(form.num_variables))
    )
    solve_memo = _fresh_memo()
    with memo.scope(solve_memo):
        for _ in range(2):
            assert solve_milp_scipy(form, time_limit=0.5).status is SolveStatus.ITERATION_LIMIT
    assert counter.calls == 2
    assert solve_memo.stats.snapshot()["memo_milp_misses"] == 2


def test_an_optimal_solve_is_served_once_stored(monkeypatch):
    form = _form(_small_problem())
    counter = _CountingMilp(monkeypatch)
    solve_memo = _fresh_memo()
    with memo.scope(solve_memo):
        first = solve_milp_scipy(form, time_limit=30.0)
        second = solve_milp_scipy(form, time_limit=30.0)
        other_limit = solve_milp_scipy(form, time_limit=60.0)
    assert first.status is SolveStatus.OPTIMAL
    assert counter.calls == 2  # the second limit is a different input
    assert second.objective == first.objective == other_limit.objective
    assert np.array_equal(second.values, first.values)
    second.values[0] += 1.0  # a caller's copy, not the stored one
    with memo.scope(solve_memo):
        assert np.array_equal(solve_milp_scipy(form, time_limit=30.0).values, first.values)


def test_capacity_one_evicts_the_oldest_entry():
    def milp_hits(capacity: int) -> int:
        engine = PartitionEngine(workers=0, lru_capacity=capacity)
        problems = _catalog_problems()
        engine.solve(dataclasses.replace(problems[0], reconfiguration_time=ms(1)))
        engine.solve(dataclasses.replace(problems[1], reconfiguration_time=ms(1)))
        engine.solve(dataclasses.replace(problems[0], reconfiguration_time=ms(2)))
        return engine.stats.snapshot()["memo_milp_hits"]

    assert milp_hits(256) >= 1
    assert milp_hits(1) == 0

    solve_memo = _fresh_memo(capacity=1)
    solve_memo.put("anneal", "old", (1,))
    solve_memo.put("anneal", "new", (2,))
    assert solve_memo.get("anneal", "old") is None
    assert solve_memo.get("anneal", "new") == (2,)


# ---------------------------------------------------------------------------
# Any change to a kernel input misses
# ---------------------------------------------------------------------------

def test_each_anneal_input_is_in_the_key():
    problem = _small_problem()
    variants = [
        (AnnealTemporalPartitioner(), _flip_one_delay_bit(problem)),
        (AnnealTemporalPartitioner(), dataclasses.replace(problem, reconfiguration_time=ms(6))),
        (AnnealTemporalPartitioner(seed=1), problem),
        (AnnealTemporalPartitioner(cooling=0.99), problem),
    ]
    solve_memo = _fresh_memo()
    with memo.scope(solve_memo):
        AnnealTemporalPartitioner().partition(problem)
        AnnealTemporalPartitioner().partition(problem)
        assert solve_memo.stats.hits["anneal"] == 1
        for annealer, changed in variants:
            annealer.partition(changed)
    assert solve_memo.stats.hits["anneal"] == 1
    assert solve_memo.stats.misses["anneal"] == 1 + len(variants)


def test_each_milp_input_but_the_objective_constant_is_in_the_key():
    problem = _small_problem()
    solve_memo = _fresh_memo()
    with memo.scope(solve_memo):
        base = solve_milp_scipy(_form(problem))
        flipped = solve_milp_scipy(_form(_flip_one_delay_bit(problem)))
        assert solve_memo.stats.misses["milp"] == 2
        # CT only moves the objective constant: same HiGHS run, own objective.
        later = solve_milp_scipy(_form(dataclasses.replace(problem, reconfiguration_time=ms(50))))
    assert solve_memo.stats.hits["milp"] == 1
    assert flipped.status is base.status is later.status is SolveStatus.OPTIMAL
    assert np.array_equal(later.values, base.values)
    assert later.objective != base.objective
