"""Tests for temporal partitioning (repro.partition)."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ResourceVector, clbs, paper_case_study_system
from repro.errors import GraphError, PartitioningError, PartitionValidationError, ReproError
from repro.ilp import SolveStatus, solve_milp_scipy
from repro.jpeg import build_dct_task_graph
from repro.partition import (
    MULTILEVEL_INNER_CHOICES,
    FormulationOptions,
    IlpTemporalPartitioner,
    LevelClusteringPartitioner,
    ListTemporalPartitioner,
    MultilevelPartitioner,
    PartitionProblem,
    TemporalPartitioning,
    TemporalPartitioningFormulation,
    assert_valid,
    compare_partitionings,
    compute_metrics,
    multilevel_inner,
    partition_summary_rows,
    validate_partitioning,
)
from repro.synth import DesignFlow, workload_flow_jobs
from repro.taskgraph import (
    Task,
    TaskCost,
    TaskGraph,
    clb_cost,
    linear_pipeline,
    partition_lower_bound,
    random_dsp_task_graph,
)
from repro.units import ms, ns
from repro.verify.scenarios import generate_scenarios

from partition_helpers import make_problem

#: sha256 of everything scipy's ``milp`` hands HiGHS for each model of
#: :func:`_formulation_corpus` (see ``test_highs_inputs_match_the_pinned_digest``).
#: Recorded while the formulation was still written through an algebraic
#: expression layer and exported to dense matrices; the direct build must
#: reproduce those inputs bit for bit.
GOLDEN_HIGHS_INPUTS = "0cc8538a63cd0dd77529b929fb45fcaed2a7e806d41e52443e7b1e8da51c7ea9"


class TestPartitionProblem:
    def test_requires_estimated_tasks(self):
        graph = TaskGraph("g")
        graph.add_task(Task("a"))
        with pytest.raises(PartitioningError):
            make_problem(graph)

    def test_minimum_partitions(self, dct_graph):
        problem = make_problem(dct_graph)
        assert problem.minimum_partitions() == 3

    def test_from_system(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        assert problem.memory_words == 65536
        assert problem.resource_capacity["clb"] == 1600

    def test_partition_cap_default_is_task_count(self, two_task_graph):
        assert make_problem(two_task_graph).partition_cap() == 2

    def test_negative_memory_rejected(self, two_task_graph):
        with pytest.raises(PartitioningError):
            PartitionProblem(
                graph=two_task_graph,
                resource_capacity=clbs(100),
                memory_words=-1,
                reconfiguration_time=0.0,
            )


class TestResultObject:
    def _result(self, graph, assignment, partitions, ct=ms(100)):
        return TemporalPartitioning(
            graph=graph,
            assignment=assignment,
            partition_count=partitions,
            reconfiguration_time=ct,
            method="manual",
        )

    def test_partition_delay_is_longest_internal_chain(self, two_task_graph):
        same = self._result(two_task_graph, {"a": 1, "b": 1}, 1)
        assert same.partition_delays[0] == pytest.approx(ns(300))
        split = self._result(two_task_graph, {"a": 1, "b": 2}, 2)
        assert split.partition_delays == pytest.approx([ns(100), ns(200)])

    def test_total_latency_includes_reconfiguration(self, two_task_graph):
        result = self._result(two_task_graph, {"a": 1, "b": 2}, 2, ct=ms(100))
        assert result.total_latency == pytest.approx(0.2 + ns(300))

    def test_boundary_words(self, two_task_graph):
        result = self._result(two_task_graph, {"a": 1, "b": 2}, 2)
        assert result.boundary_words(1) == 4
        assert result.max_boundary_words() == 4

    def test_boundary_words_single_partition(self, two_task_graph):
        result = self._result(two_task_graph, {"a": 1, "b": 1}, 1)
        assert result.max_boundary_words() == 0

    def test_cut_edges(self, two_task_graph):
        result = self._result(two_task_graph, {"a": 1, "b": 2}, 2)
        assert result.cut_edges(1) == [("a", "b")]

    def test_incomplete_assignment_rejected(self, two_task_graph):
        with pytest.raises(PartitioningError):
            self._result(two_task_graph, {"a": 1}, 1)

    def test_out_of_range_partition_rejected(self, two_task_graph):
        with pytest.raises(PartitioningError):
            self._result(two_task_graph, {"a": 1, "b": 5}, 2)

    def test_tasks_in_partition(self, two_task_graph):
        result = self._result(two_task_graph, {"a": 1, "b": 2}, 2)
        assert result.tasks_in_partition(1) == ["a"]
        with pytest.raises(PartitioningError):
            result.tasks_in_partition(3)


class TestFormulation:
    def test_model_sizes_scale_with_bound(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        small = TemporalPartitioningFormulation(problem, 3).form
        large = TemporalPartitioningFormulation(problem, 4).form
        assert large.num_variables > small.num_variables
        assert large.num_constraints > small.num_constraints

    def test_single_partition_infeasible_for_dct(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        formulation = TemporalPartitioningFormulation(problem, 1)
        assert solve_milp_scipy(formulation.form).status is SolveStatus.INFEASIBLE

    def test_two_partitions_infeasible_for_dct(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        formulation = TemporalPartitioningFormulation(problem, 2)
        assert solve_milp_scipy(formulation.form).status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("delay_form", ["path", "chain"])
    def test_delay_forms_agree(self, small_problem, delay_form):
        options = FormulationOptions(delay_form=delay_form)
        result = IlpTemporalPartitioner(options=options).partition(small_problem)
        reference = IlpTemporalPartitioner().partition(small_problem)
        assert result.total_latency == pytest.approx(reference.total_latency)

    def test_invalid_options_rejected(self):
        with pytest.raises(PartitioningError):
            FormulationOptions(delay_form="bogus")

    def test_extract_assignment_rejects_a_task_in_two_partitions(self, small_problem):
        formulation = TemporalPartitioningFormulation(small_problem, 3)
        values = np.zeros(formulation.form.num_variables)
        values[[0, 2]] = 1.0  # y[first task, 1] and y[first task, 3]
        first = small_problem.graph.task_names()[0]
        message = (
            f"task {first!r} assigned to two partitions (1 and 3) — "
            "solver returned an invalid point"
        )
        with pytest.raises(PartitioningError, match=re.escape(message)):
            formulation.extract_assignment(values)

    def test_extract_assignment_rejects_an_unplaced_task(self, small_problem):
        formulation = TemporalPartitioningFormulation(small_problem, 3)
        names = small_problem.graph.task_names()
        values = np.zeros(formulation.form.num_variables)
        values[: 3 * len(names) : 3] = 1.0  # y[t, 1] for every task
        assert formulation.extract_assignment(values) == dict.fromkeys(names, 1)
        values[0] = 0.0  # ... but the first
        message = f"task {names[0]!r} is not assigned to any partition"
        with pytest.raises(PartitioningError, match=re.escape(message)):
            formulation.extract_assignment(values)


class _Captured(Exception):
    """Stops a solve once ``scipy.optimize.milp`` has been called."""


def _formulation_corpus():
    """Every catalog design variant after estimation, the HLS-estimated DCT
    and the first 80 verify scenarios, as partition problems."""
    for job in workload_flow_jobs(variants=True):
        graph = DesignFlow(job.system, job.options).estimate(job.graph)
        yield f"{job.workload}/{job.tag}", PartitionProblem.from_system(graph, job.system)
    system = paper_case_study_system()
    graph = build_dct_task_graph(attach_dfgs=True)
    for name in graph.task_names():
        graph.task(name).cost = None
    yield "dct-hls", PartitionProblem.from_system(DesignFlow(system).estimate(graph), system)
    for scenario in generate_scenarios(80, base_seed=0):
        system = scenario.build_system()
        graph = DesignFlow(system, scenario.flow_options()).estimate(scenario.build_graph())
        yield scenario.name, PartitionProblem.from_system(graph, system)


def _highs_arrays(c, integrality, bounds, constraints):
    """The arrays scipy's ``milp`` hands HiGHS for these arguments: its
    documented input conversion (each constraint matrix to CSC, stacked by
    rows), in fixed dtypes."""
    from scipy.optimize import LinearConstraint
    from scipy.sparse import csc_array, vstack

    c = np.atleast_1d(c).astype(np.float64)
    if isinstance(constraints, LinearConstraint):
        constraints = [constraints]
    if not constraints:
        constraints = [LinearConstraint(np.empty((0, c.size)), np.empty(0), np.empty(0))]
    blocks = [csc_array(constraint.A) for constraint in constraints]
    matrix = vstack(blocks, format="csc") if len(blocks) > 1 else blocks[0]
    return (
        c,
        np.broadcast_to(integrality, c.shape).astype(np.uint8),
        np.broadcast_to(bounds.lb, c.shape).astype(np.float64),
        np.broadcast_to(bounds.ub, c.shape).astype(np.float64),
        matrix.indptr.astype(np.int64),
        matrix.indices.astype(np.int64),
        matrix.data.astype(np.float64),
        np.concatenate([np.atleast_1d(x.lb).astype(np.float64) for x in constraints]),
        np.concatenate([np.atleast_1d(x.ub).astype(np.float64) for x in constraints]),
    )


def test_highs_inputs_match_the_pinned_digest(monkeypatch):
    """Objective, constant, CSC matrix, row and column bounds and
    integrality of every corpus model, for N from the preprocessing bound to
    two above it under each delay form, are byte-identical to the pinned
    ones.  A build that raises contributes its exception instead."""
    import scipy.optimize

    captured = []

    def milp(c, *, integrality=None, bounds=None, constraints=None, options=None):
        captured.append(_highs_arrays(c, integrality, bounds, constraints))
        raise _Captured

    monkeypatch.setattr(scipy.optimize, "milp", milp)
    digest = hashlib.sha256()
    for label, problem in _formulation_corpus():
        low = problem.minimum_partitions()
        for bound in range(low, min(low + 2, problem.partition_cap()) + 1):
            for delay_form in ("path", "chain", "auto"):
                digest.update(repr((label, bound, delay_form)).encode())
                options = FormulationOptions(delay_form=delay_form)
                try:
                    form = TemporalPartitioningFormulation(problem, bound, options).form
                except ReproError as error:
                    digest.update(repr((type(error).__name__, str(error))).encode())
                    continue
                with pytest.raises(_Captured):
                    solve_milp_scipy(form)
                for array in captured.pop():
                    digest.update(str(array.shape).encode())
                    digest.update(array.tobytes())
                digest.update(float(form.objective_constant).hex().encode())
    assert digest.hexdigest() == GOLDEN_HIGHS_INPUTS


class TestIlpPartitioner:
    def test_dct_case_study_partitioning(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        partitioner = IlpTemporalPartitioner()
        result = partitioner.partition(problem)
        assert_valid(problem, result)
        assert result.partition_count == 3
        sizes = sorted(info.task_count for info in result.partitions)
        assert sizes == [8, 8, 16]
        # All T1 in the first partition, T2 split 8/8 across the later two.
        first = {dct_graph.task(n).task_type for n in result.tasks_in_partition(1)}
        assert first == {"T1"}
        assert result.computation_latency == pytest.approx(ns(8440))
        report = partitioner.last_report
        assert report.chosen_bound == 3
        assert report.attempted_bounds[0] == 3

    def test_ilp_beats_list_on_dct(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        ilp = IlpTemporalPartitioner().partition(problem)
        heuristic = ListTemporalPartitioner().partition(problem)
        comparison = compare_partitionings(heuristic, ilp)
        assert comparison.candidate_wins
        assert heuristic.computation_latency == pytest.approx(ns(10960))

    def test_memory_constraint_forces_split_awareness(self):
        # Two parallel producer->consumer chains; memory too small to hold both
        # intermediate transfers across one boundary, but everything fits in
        # one partition resource-wise only if split... capacity forces 2
        # partitions; the solver must pick a cut whose traffic fits.
        graph = TaskGraph("mem")
        graph.add_task(Task("p1", cost=clb_cost(300, ns(100))), env_input_words=1)
        graph.add_task(Task("p2", cost=clb_cost(300, ns(100))), env_input_words=1)
        graph.add_task(Task("c1", cost=clb_cost(300, ns(100))), env_output_words=1)
        graph.add_task(Task("c2", cost=clb_cost(300, ns(100))), env_output_words=1)
        graph.add_edge("p1", "c1", words=30)
        graph.add_edge("p2", "c2", words=3)
        problem = make_problem(graph, clb_capacity=700, memory_words=20, ct=ms(1))
        result = IlpTemporalPartitioner().partition(problem)
        assert_valid(problem, result)
        for boundary in range(1, result.partition_count):
            assert result.boundary_words(boundary) <= 20

    def test_infeasible_memory_reported(self):
        graph = TaskGraph("impossible")
        graph.add_task(Task("a", cost=clb_cost(300, ns(100))))
        graph.add_task(Task("b", cost=clb_cost(300, ns(100))))
        graph.add_edge("a", "b", words=100)
        # Device too small for both tasks together, memory too small for the cut.
        problem = make_problem(graph, clb_capacity=400, memory_words=10, ct=ms(1))
        with pytest.raises(PartitioningError):
            IlpTemporalPartitioner().partition(problem)

    def test_relaxes_partition_bound_when_needed(self):
        # Resources allow 2 partitions, but the temporal order of a 3-chain with
        # per-task resources exceeding half the device forces 3.
        graph = linear_pipeline([400, 400, 400], [ns(100)] * 3, words_per_edge=2)
        problem = make_problem(graph, clb_capacity=500, memory_words=100, ct=ms(1))
        partitioner = IlpTemporalPartitioner()
        result = partitioner.partition(problem)
        assert result.partition_count == 3
        assert partitioner.last_report.attempted_bounds == [3]

    def test_explore_extra_partitions(self, small_problem):
        base = IlpTemporalPartitioner().partition(small_problem)
        explorer = IlpTemporalPartitioner(explore_extra_partitions=2)
        explored = explorer.partition(small_problem)
        # Exploring more bounds can never return something worse.
        assert explored.total_latency <= base.total_latency + 1e-12

    def test_single_task_graph(self):
        graph = TaskGraph("single")
        graph.add_task(Task("only", cost=clb_cost(100, ns(50))), env_input_words=1)
        problem = make_problem(graph, clb_capacity=200, memory_words=16, ct=ms(1))
        result = IlpTemporalPartitioner().partition(problem)
        assert result.partition_count == 1
        assert result.computation_latency == pytest.approx(ns(50))


class TestHeuristicPartitioners:
    def test_list_partitioner_valid_on_random_graphs(self):
        for seed in range(4):
            graph = random_dsp_task_graph(task_count=25, seed=seed)
            problem = make_problem(graph, clb_capacity=800, memory_words=4096, ct=ms(10))
            result = ListTemporalPartitioner().partition(problem)
            assert_valid(problem, result)

    def test_level_partitioner_valid_on_random_graphs(self):
        for seed in range(4):
            graph = random_dsp_task_graph(task_count=25, seed=seed)
            problem = make_problem(graph, clb_capacity=800, memory_words=4096, ct=ms(10))
            result = LevelClusteringPartitioner().partition(problem)
            assert_valid(problem, result)

    def test_ilp_never_worse_than_heuristics(self):
        for seed in (0, 1):
            graph = random_dsp_task_graph(task_count=14, seed=seed, max_level_width=4)
            problem = make_problem(graph, clb_capacity=900, memory_words=4096, ct=ms(10))
            ilp = IlpTemporalPartitioner().partition(problem)
            for heuristic in (ListTemporalPartitioner(), LevelClusteringPartitioner()):
                other = heuristic.partition(problem)
                assert ilp.total_latency <= other.total_latency + 1e-12

    def test_list_priority_rules(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        for priority in ("resource", "delay", "topological"):
            result = ListTemporalPartitioner(priority=priority).partition(problem)
            assert_valid(problem, result)

    def test_list_unknown_priority(self):
        with pytest.raises(PartitioningError):
            ListTemporalPartitioner(priority="alphabetical")

    def test_list_respects_memory_constraint(self):
        graph = linear_pipeline([200, 200, 200], [ns(100)] * 3, words_per_edge=50)
        problem = make_problem(graph, clb_capacity=250, memory_words=60, ct=ms(1))
        result = ListTemporalPartitioner().partition(problem)
        assert_valid(problem, result)


class TestMultilevelPartitioner:
    def test_valid_and_deterministic_on_a_large_graph(self):
        graph = random_dsp_task_graph(task_count=400, seed=0, max_level_width=12)
        problem = make_problem(
            graph, clb_capacity=20 * 400, memory_words=1 << 16, ct=ms(5)
        )
        partitioner = MultilevelPartitioner()
        result = partitioner.partition(problem)
        assert_valid(problem, result)

        report = partitioner.last_report
        assert report.level_sizes[0] == 400
        assert report.coarse_tasks <= partitioner.max_coarse_tasks
        assert result.method.startswith("multilevel[portfolio,")

        again = MultilevelPartitioner().partition(problem)
        assert again.assignment == result.assignment
        assert again.method == result.method

    def test_small_graph_skips_coarsening(self):
        graph = random_dsp_task_graph(task_count=12, seed=2)
        problem = make_problem(graph, clb_capacity=800, memory_words=4096, ct=ms(10))
        partitioner = MultilevelPartitioner()
        result = partitioner.partition(problem)
        assert_valid(problem, result)
        # Already below the coarse target: one level, no merge pass ran.
        assert partitioner.last_report.level_sizes == [12]
        assert result.method == "multilevel[portfolio,0lv,12t]"

    @pytest.mark.parametrize("inner", MULTILEVEL_INNER_CHOICES)
    def test_every_inner_engine_solves_the_coarse_graph(self, inner):
        graph = random_dsp_task_graph(task_count=120, seed=1, max_level_width=8)
        # 30 CLBs/task keeps the coarse packing loose enough that the exact
        # inner engines solve it in milliseconds, not minutes.
        problem = make_problem(
            graph, clb_capacity=30 * 120, memory_words=1 << 16, ct=ms(5)
        )
        partitioner = MultilevelPartitioner(inner=inner, max_coarse_tasks=12)
        result = partitioner.partition(problem)
        assert_valid(problem, result)
        assert partitioner.last_report.inner == inner
        assert result.method.startswith(f"multilevel[{inner},")

    def test_inner_name_parsing(self):
        assert multilevel_inner("multilevel") == "portfolio"
        assert multilevel_inner("multilevel:list") == "list"
        assert multilevel_inner("ilp") is None
        with pytest.raises(PartitioningError, match="unknown multilevel inner"):
            multilevel_inner("multilevel:bogus")

    def test_constructor_validation(self):
        with pytest.raises(PartitioningError):
            MultilevelPartitioner(inner="bogus")
        with pytest.raises(PartitioningError):
            MultilevelPartitioner(max_coarse_tasks=0)
        with pytest.raises(PartitioningError):
            MultilevelPartitioner(cluster_cap_fraction=0.0)
        with pytest.raises(PartitioningError):
            MultilevelPartitioner(cluster_cap_fraction=1.5)
        with pytest.raises(PartitioningError):
            MultilevelPartitioner(max_refine_moves=-1)


class TestValidationAndMetrics:
    def test_validation_catches_order_violation(self, two_task_graph):
        problem = make_problem(two_task_graph, clb_capacity=150, memory_words=16)
        bad = TemporalPartitioning(
            graph=two_task_graph,
            assignment={"a": 2, "b": 1},
            partition_count=2,
            reconfiguration_time=ms(1),
            method="bad",
        )
        report = validate_partitioning(problem, bad)
        assert not report.is_valid
        assert any("temporal order" in violation for violation in report.violations)
        with pytest.raises(PartitionValidationError):
            report.raise_if_invalid()

    def test_validation_catches_resource_violation(self, two_task_graph):
        problem = make_problem(two_task_graph, clb_capacity=150, memory_words=16)
        bad = TemporalPartitioning(
            graph=two_task_graph,
            assignment={"a": 1, "b": 1},
            partition_count=1,
            reconfiguration_time=ms(1),
        )
        report = validate_partitioning(problem, bad)
        assert any("exceeding the capacity" in violation for violation in report.violations)

    def test_validation_catches_memory_violation(self, two_task_graph):
        problem = make_problem(two_task_graph, clb_capacity=150, memory_words=2)
        bad = TemporalPartitioning(
            graph=two_task_graph,
            assignment={"a": 1, "b": 2},
            partition_count=2,
            reconfiguration_time=ms(1),
        )
        report = validate_partitioning(problem, bad)
        assert any("memory" in violation for violation in report.violations)

    def test_metrics(self, dct_graph, paper_system):
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        result = IlpTemporalPartitioner().partition(problem)
        metrics = compute_metrics(result, problem.resource_capacity)
        assert metrics.partition_count == 3
        assert metrics.max_boundary_words == 16
        assert 0 < metrics.mean_utilisation <= 1
        assert metrics.delay_imbalance >= 1.0
        assert metrics.reconfiguration_overhead == pytest.approx(0.3)

    def test_summary_rows(self, case_study_ilp):
        rows = partition_summary_rows(case_study_ilp.partitioning)
        assert len(rows) == 3
        assert rows[0]["task_types"] == {"T1": 16}


# ---------------------------------------------------------------------------
# Resource sums
# ---------------------------------------------------------------------------

RESOURCE_KINDS = ("clb", "dsp", "bram")


def _added(vectors):
    """The sum of *vectors* one ``ResourceVector.__add__`` at a time."""
    return sum(vectors, ResourceVector({}))


def _added_lower_bound(graph, capacity, tasks=None):
    """``partition_lower_bound`` with its totals summed by ``__add__``."""
    selected = list(graph.tasks()) if tasks is None else [graph.task(n) for n in tasks]
    totals = _added(task.resources for task in selected)
    bound = 1
    for name in totals.names():
        available = capacity[name]
        needed = totals[name]
        if needed == 0:
            continue
        if available <= 0:
            raise GraphError(
                f"task graph {graph.name!r} needs resource {name!r} but the "
                "device provides none"
            )
        bound = max(bound, math.ceil(needed / available))
    for task in selected:
        if not task.resources.fits_within(capacity):
            raise GraphError(
                f"task {task.name!r} does not fit on the device by itself; "
                "temporal partitioning cannot help"
            )
    return bound


def _amounts(draw):
    kinds = draw(st.lists(st.sampled_from(RESOURCE_KINDS), unique=True, max_size=3))
    return ResourceVector(
        {kind: draw(st.sampled_from((0, 1, 2**63)) | st.integers(0, 90)) for kind in kinds}
    )


@st.composite
def _costed_assignments(draw):
    """A graph of 1-12 tasks with zero to three kinds each (zero amounts
    included), an assignment to 1-4 partitions, a capacity and a subset."""
    graph = TaskGraph("sums")
    for index in range(draw(st.integers(1, 12))):
        graph.add_task(Task(f"t{index}", cost=TaskCost(_amounts(draw), 1e-9)))
    count = draw(st.integers(1, 4))
    assignment = {name: draw(st.integers(1, count)) for name in graph.task_names()}
    subset = draw(st.lists(st.sampled_from(graph.task_names()), unique=True))
    return graph, assignment, count, _amounts(draw), subset


def _outcome(function, *args):
    try:
        return "value", function(*args)
    except Exception as error:  # the comparison is about which inputs raise
        return "error", type(error), str(error)


@given(_costed_assignments())
@settings(max_examples=150, deadline=None)
def test_resources_are_summed_like_vector_additions(case):
    """Partition infos and the resource lower bound add amounts up in plain
    ints; the sums, the bound and its errors are those of ``__add__``."""
    graph, assignment, count, capacity, subset = case
    result = TemporalPartitioning(graph, assignment, count, ms(1))
    for info in result.partitions:
        assert info.resources == _added(graph.task(name).resources for name in info.tasks)
    all_tasks = list(graph.tasks())
    assert ResourceVector.total(task.resources for task in all_tasks) == _added(
        task.resources for task in all_tasks
    )
    for tasks in (None, subset):
        assert _outcome(partition_lower_bound, graph, capacity, tasks) == _outcome(
            _added_lower_bound, graph, capacity, tasks
        )
