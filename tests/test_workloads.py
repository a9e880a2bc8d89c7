"""Tests for the workload registry and the batched flow engine."""

from __future__ import annotations

import pytest

from repro.errors import SynthesisError, WorkloadError
from repro.partition import PartitionProblem
from repro.runtime import EngineConfig, PartitionEngine, problem_fingerprint
from repro.runtime.jobs import ResultSource
from repro.synth import FlowEngine, FlowJob, FlowOptions, workload_flow_jobs
from repro.taskgraph import TaskGraph, linear_pipeline
from repro.units import ns
from repro.workloads import (
    Workload,
    get_workload,
    iter_workloads,
    register,
    register_workload,
    unregister_workload,
    workload_names,
)

BUILTIN_WORKLOADS = (
    "jpeg_dct",
    "fir_filterbank",
    "random_layered",
    "wavelet_pyramid",
    "matmul_pipeline",
)


def _dummy_builder(**_params) -> TaskGraph:
    return linear_pipeline([100, 100], [ns(100), ns(200)])


# ---------------------------------------------------------------------------
# Registry behaviour
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtin_catalog_is_registered(self):
        names = workload_names()
        for name in BUILTIN_WORKLOADS:
            assert name in names

    def test_get_unknown_workload_names_the_known_ones(self):
        with pytest.raises(WorkloadError, match="jpeg_dct"):
            get_workload("definitely_not_registered")

    def test_duplicate_registration_is_an_error(self):
        register(Workload(name="dup_test", builder=_dummy_builder))
        try:
            with pytest.raises(WorkloadError, match="already registered"):
                register(Workload(name="dup_test", builder=_dummy_builder))
            # replace=True overwrites deliberately.
            replacement = Workload(
                name="dup_test", builder=_dummy_builder, description="v2"
            )
            register(replacement, replace=True)
            assert get_workload("dup_test").description == "v2"
        finally:
            unregister_workload("dup_test")
        with pytest.raises(WorkloadError, match="not registered"):
            unregister_workload("dup_test")

    def test_decorator_registers_and_returns_the_builder(self):
        @register_workload("decorated_test", description="via decorator")
        def build(**_params) -> TaskGraph:
            return _dummy_builder()

        try:
            assert build is not None and callable(build)
            workload = get_workload("decorated_test")
            assert workload.description == "via decorator"
            assert len(workload.build_graph()) == 2
        finally:
            unregister_workload("decorated_test")

    def test_iteration_is_name_sorted(self):
        names = [workload.name for workload in iter_workloads()]
        assert names == sorted(names)

    def test_builtin_catalog_imported_cleanly(self):
        from repro.workloads import catalog_errors

        assert catalog_errors() == []

    def test_unknown_builder_parameter_is_a_workload_error(self):
        with pytest.raises(WorkloadError, match="rejected parameters"):
            get_workload("matmul_pipeline").build_graph(bogus_parameter=1)

    def test_empty_sweep_values_rejected(self):
        with pytest.raises(WorkloadError, match="empty value list"):
            Workload(name="bad_sweep", builder=_dummy_builder, sweep={"seed": ()})


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def _fingerprint(self, name: str, **params) -> str:
        workload = get_workload(name)
        graph = workload.build_graph(**params)
        problem = PartitionProblem.from_system(graph, workload.default_system())
        return problem_fingerprint(problem)

    def test_same_seed_same_canonical_hash(self):
        assert self._fingerprint("random_layered", seed=7) == self._fingerprint(
            "random_layered", seed=7
        )

    def test_different_seed_different_canonical_hash(self):
        assert self._fingerprint("random_layered", seed=0) != self._fingerprint(
            "random_layered", seed=1
        )

    def test_variants_are_deterministic_and_unique(self):
        workload = get_workload("random_layered")
        first = workload.variants()
        second = workload.variants()
        assert [v.name for v in first] == [v.name for v in second]
        assert len({v.name for v in first}) == len(first)
        # The sweep expands the full cartesian product.
        assert len(first) == len(workload.sweep["seed"]) * len(
            workload.sweep["task_count"]
        )

    def test_unswept_workload_has_single_default_variant(self):
        variants = get_workload("jpeg_dct").variants()
        assert len(variants) == 1
        assert variants[0].name == "jpeg_dct"

    def test_synthetic_graphs_have_documented_shapes(self):
        assert len(get_workload("wavelet_pyramid").build_graph(levels=3)) == 7
        assert len(get_workload("matmul_pipeline").build_graph(dim=4)) == 8
        assert len(get_workload("random_layered").build_graph(task_count=12)) == 12


# ---------------------------------------------------------------------------
# FlowEngine
# ---------------------------------------------------------------------------

class TestFlowEngine:
    def _job(self, name: str, **params) -> FlowJob:
        workload = get_workload(name)
        return FlowJob(
            graph=workload.build_graph(**params),
            system=workload.default_system(),
            options=workload.flow_options(),
            tag=name,
            workload=name,
        )

    def test_batch_across_workloads_meets_expectations(self):
        engine = FlowEngine(engine=PartitionEngine(EngineConfig()))
        jobs = [self._job("jpeg_dct"), self._job("matmul_pipeline"),
                self._job("wavelet_pyramid")]
        batch = engine.run_batch(jobs)
        assert batch.ok, batch.describe()
        for report in batch:
            expected = get_workload(report.job.workload).expectations["partitions"]
            assert report.design.partition_count == expected
        # The paper's case study keeps its headline numbers through the
        # batch path: 3 partitions, k = 2048.
        jpeg = batch[0].design
        assert jpeg.computations_per_run == 2048

    def test_warm_cache_round_trip(self):
        engine = FlowEngine(engine=PartitionEngine(EngineConfig()))
        jobs = [self._job("matmul_pipeline")]
        cold = engine.run_batch(jobs)
        assert cold[0].partition_source == ResultSource.SOLVE.value
        warm = engine.run_batch(jobs)
        assert warm[0].partition_source == ResultSource.MEMORY_CACHE.value
        assert warm[0].cached_partition
        assert (
            warm[0].design.partitioning.assignment
            == cold[0].design.partitioning.assignment
        )
        assert engine.stats.cache.misses == 1
        assert engine.stats.cache.memory_hits == 1

    def test_structured_estimate_failure_does_not_sink_the_batch(self):
        # A task without cost or DFG cannot be estimated; with a second,
        # healthy job in the same batch only the broken one fails.
        from repro.taskgraph import Task

        broken = TaskGraph("unestimable")
        broken.add_task(Task("nocost"), env_input_words=1)
        engine = FlowEngine()
        good = self._job("matmul_pipeline")
        batch = engine.run_batch(
            [FlowJob(graph=broken, system=good.system, tag="broken"), good]
        )
        assert not batch.ok
        assert len(batch.failures()) == 1
        report = batch[0]
        assert report.failed_stage == "estimate"
        assert report.error and report.error_kind
        assert "failed:estimate" in report.row()["status"]
        assert batch[1].ok

    def test_per_stage_timings_are_recorded(self):
        engine = FlowEngine()
        report = engine.run_batch([self._job("matmul_pipeline")])[0]
        for stage in ("estimate", "partition", "memory-map", "fission",
                      "timing", "assemble"):
            assert stage in report.stage_seconds
        assert report.wall_time == pytest.approx(
            sum(report.stage_seconds.values())
        )

    def test_run_single_raises_structured_error(self):
        engine = FlowEngine()
        broken = TaskGraph("unestimable2")
        from repro.taskgraph import Task

        broken.add_task(Task("nocost"), env_input_words=1)
        system = get_workload("matmul_pipeline").default_system()
        with pytest.raises(
            SynthesisError,
            match=r"flow job 'broken' failed at stage estimate \(EstimationError\): task 'nocost'",
        ):
            engine.run(FlowJob(graph=broken, system=system, tag="broken"))

    def test_engine_and_config_are_mutually_exclusive(self):
        with pytest.raises(SynthesisError, match="not both"):
            FlowEngine(engine=PartitionEngine(EngineConfig()), workers=2)

    def test_estimation_never_mutates_the_submitted_graph(self):
        """A job's graph is estimated on a copy: a graph shared across jobs
        targeting different systems must not inherit the first job's costs."""
        workload = get_workload("fir_filterbank")
        graph = workload.build_graph()
        engine = FlowEngine()
        report = engine.run_batch([
            FlowJob(graph=graph, system=workload.default_system(),
                    options=workload.flow_options(), tag="fir")
        ])[0]
        assert report.ok
        assert not graph.all_estimated()
        assert report.design.partitioning.graph.all_estimated()

    def test_batch_dedup_across_identical_flow_jobs(self):
        engine = FlowEngine()
        job = self._job("matmul_pipeline")
        batch = engine.run_batch([job, job])
        assert batch.ok
        assert batch[0].partition_source == ResultSource.SOLVE.value
        assert batch[1].partition_source == ResultSource.BATCH_DEDUP.value

    def test_rows_carry_the_partition_cache_flag(self):
        engine = FlowEngine(engine=PartitionEngine(EngineConfig()))
        jobs = [self._job("matmul_pipeline")]
        cold_rows = engine.run_batch(jobs).rows()
        warm_rows = engine.run_batch(jobs).rows()
        assert cold_rows[0]["cached_partition"] is False
        assert warm_rows[0]["cached_partition"] is True

    def test_describe_failures_only_mode(self):
        from repro.taskgraph import Task

        broken = TaskGraph("unestimable3")
        broken.add_task(Task("nocost"), env_input_words=1)
        engine = FlowEngine()
        good = self._job("matmul_pipeline")
        batch = engine.run_batch(
            [FlowJob(graph=broken, system=good.system, tag="broken"), good]
        )
        compact = batch.describe(failures_only=True)
        assert "1 failed" in compact
        assert "broken [estimate]" in compact
        # The happy job's tag is noise in the compact mode.
        assert "matmul_pipeline" not in compact

        healthy = engine.run_batch([good])
        assert healthy.describe(failures_only=True) == "flow batch of 1 jobs: all ok"


# ---------------------------------------------------------------------------
# Workload -> flow-job expansion
# ---------------------------------------------------------------------------

class TestWorkloadFlowJobs:
    def test_default_expansion_is_one_job_per_workload(self):
        jobs = workload_flow_jobs(names=["jpeg_dct", "matmul_pipeline"])
        assert [job.workload for job in jobs] == ["jpeg_dct", "matmul_pipeline"]

    def test_ct_sweep_expands_and_tags_jobs(self):
        jobs = workload_flow_jobs(
            names=["matmul_pipeline"], ct_values=[0.001, 0.005]
        )
        assert len(jobs) == 2
        assert jobs[0].tag.endswith("@ct=1ms")
        assert jobs[0].system.reconfiguration_time == pytest.approx(0.001)
        assert jobs[1].system.reconfiguration_time == pytest.approx(0.005)

    def test_variant_expansion_matches_the_sweep(self):
        workload = get_workload("matmul_pipeline")
        jobs = workload_flow_jobs(names=["matmul_pipeline"], variants=True)
        assert len(jobs) == len(workload.variants())
        assert jobs[1].graph.name == "matmul_pipeline-d4"

    def test_partitioner_override_applies_to_options(self):
        jobs = workload_flow_jobs(names=["matmul_pipeline"], partitioner="list")
        assert jobs[0].options.partitioner == "list"
        # The workload's own options are untouched.
        assert get_workload("matmul_pipeline").flow_options().partitioner == "ilp"

    def test_options_default_comes_from_the_workload(self):
        jobs = workload_flow_jobs(names=["fir_filterbank"])
        assert jobs[0].options.max_clock_period == pytest.approx(
            FlowOptions(max_clock_period=ns(80)).max_clock_period
        )
