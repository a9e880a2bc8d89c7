"""Tests for the end-to-end synthesis flow and design artefacts (repro.synth)."""

import pytest

from repro.arch import generic_system, xc4044
from repro.errors import SynthesisError
from repro.fission import SequencingStrategy
from repro.hls import emit_vhdl_like
from repro.jpeg import build_dct_task_graph
from repro.partition import (
    ListTemporalPartitioner,
    PartitionProblem,
    TemporalPartitioning,
    make_partitioner,
)
from repro.runtime import JobStatus, PartitionEngine, ResultSource
from repro.synth import (
    DesignFlow,
    FlowEngine,
    FlowJob,
    FlowOptions,
    StaticDesign,
    static_design_from_estimator,
    static_design_from_parameters,
    stages,
)
from repro.taskgraph import image_pipeline_task_graph, linear_pipeline
from repro.units import ms, ns
from repro.verify.oracles import design_fingerprint


class TestStaticDesign:
    def test_paper_static_design(self):
        design = static_design_from_parameters(
            "dct-static", clbs=1600, cycles_per_block=160, clock_period=ns(100),
            env_input_words=16, env_output_words=16,
        )
        assert design.block_delay == pytest.approx(ns(16000))
        assert design.fits(xc4044())
        spec = design.timing_spec()
        assert spec.env_input_words == 16

    def test_static_design_validation(self):
        with pytest.raises(SynthesisError):
            StaticDesign("bad", clbs=10, cycles_per_block=0, clock_period=ns(10),
                         env_input_words=1, env_output_words=1)

    def test_static_design_from_estimator_shares_units(self):
        graph = build_dct_task_graph(attach_dfgs=True)
        design = static_design_from_estimator(graph, xc4044(), max_clock_period=ns(100))
        # Unit sharing across the 32 tasks keeps the static design well under
        # the sum of per-task areas (4000 CLBs).
        assert design.clbs < 4000
        assert design.cycles_per_block > 0
        assert design.env_input_words == 16

    def test_static_design_from_estimator_needs_dfgs(self):
        graph = build_dct_task_graph(attach_dfgs=False)
        with pytest.raises(SynthesisError):
            static_design_from_estimator(graph, xc4044(), max_clock_period=ns(100))


class TestDesignFlow:
    def test_flow_on_dct_with_paper_costs(self, paper_system):
        flow = DesignFlow(paper_system)
        design = flow.build(build_dct_task_graph())
        assert design.partition_count == 3
        assert design.computations_per_run == 2048
        assert design.block_delay == pytest.approx(ns(8440))
        assert design.total_configuration_clbs() == 4000
        assert "for" in design.host_code_for(SequencingStrategy.FDH)
        assert "for" in design.host_code_for(SequencingStrategy.IDH)

    def test_staged_flow_matches_build(self, paper_system):
        """Driving the stage transforms by hand equals the one-call build."""
        options = FlowOptions()
        graph = DesignFlow(paper_system, options).estimate(build_dct_task_graph())
        problem = PartitionProblem.from_system(graph, paper_system)
        partitioning = make_partitioner(options.solver_spec()).partition(problem)
        memory_map = stages.run_memory_map(partitioning, options)
        fission = stages.run_fission(partitioning, memory_map, paper_system, options)
        timing = stages.run_timing(partitioning, fission, memory_map)
        design = stages.assemble(
            "dct4x4-rtr", paper_system, partitioning, memory_map, fission, timing, []
        )
        # The artefacts handed in are adopted, not recomputed.
        assert design.memory_map is memory_map
        assert design.fission is fission
        assert design.timing_spec is timing
        built = DesignFlow(paper_system, options).build(build_dct_task_graph())
        assert design_fingerprint(design) == design_fingerprint(built)
        assert design.describe() == built.describe()
        assert design.host_code == built.host_code

    def test_flow_with_list_partitioner(self, paper_system):
        flow = DesignFlow(paper_system, FlowOptions(partitioner="list"))
        design = flow.build(build_dct_task_graph())
        assert design.partition_count == 3
        # The list baseline's latency is the paper's 10 960 ns figure.
        assert design.block_delay == pytest.approx(ns(10960))

    def test_flow_with_level_partitioner(self, paper_system):
        flow = DesignFlow(paper_system, FlowOptions(partitioner="level"))
        design = flow.build(build_dct_task_graph())
        assert design.partition_count >= 3

    def test_flow_estimates_unpriced_graph(self, paper_system):
        graph = build_dct_task_graph(attach_dfgs=True)
        for name in graph.task_names():
            task = graph.task(name)
            task.cost = None  # strip the paper costs; the flow must re-estimate
        flow = DesignFlow(paper_system)
        design = flow.build(graph)
        assert design.partition_count >= 2
        assert design.computations_per_run >= 1

    def test_flow_rejects_unknown_partitioner(self):
        with pytest.raises(SynthesisError):
            FlowOptions(partitioner="simulated-annealing")

    def test_flow_on_image_pipeline(self):
        from repro.arch import generic_system
        from repro.units import ms

        system = generic_system(clb_capacity=600, memory_words=4096, reconfiguration_time=ms(10))
        design = DesignFlow(system).build(image_pipeline_task_graph())
        assert design.partition_count >= 2
        assert design.fission.computations_per_run >= 1

    def test_flow_generates_rtl_when_requested(self, paper_system):
        graph = build_dct_task_graph(attach_dfgs=True)
        flow = DesignFlow(paper_system, FlowOptions(generate_rtl=True))
        design = flow.build(graph)
        assert len(design.configurations) == design.partition_count
        first = design.configuration(1)
        assert first.iteration_bound == design.computations_per_run
        text = emit_vhdl_like(first)
        assert "entity" in text and "iteration_bound" in text

    def test_flow_rtl_requires_dfgs(self, paper_system):
        flow = DesignFlow(paper_system, FlowOptions(generate_rtl=True))
        with pytest.raises(SynthesisError):
            flow.build(build_dct_task_graph(attach_dfgs=False))

    def test_rounded_memory_blocks_option(self, paper_system):
        flow = DesignFlow(paper_system, FlowOptions(round_memory_blocks=True))
        design = flow.build(build_dct_task_graph())
        # Rounding P2's 24-word block to 32 does not change k (P1's 32 dominates).
        assert design.computations_per_run == 2048
        assert design.memory_map.rounded

    def test_design_describe(self, paper_system):
        design = DesignFlow(paper_system).build(build_dct_task_graph())
        text = design.describe()
        assert "3 configurations" in text and "k=2048" in text

    def test_configuration_index_bounds(self, paper_system):
        design = DesignFlow(paper_system).build(build_dct_task_graph())
        with pytest.raises(SynthesisError):
            design.configuration(1)  # no RTL generated in this flow run


def _backwards(partition):
    """*partition* with every result's partitions run in reverse order: each
    task stays with its partition-mates, but a producer now follows its
    consumer."""

    def run(self, problem):
        result = partition(self, problem)
        last = result.partition_count + 1
        return TemporalPartitioning(
            graph=result.graph,
            assignment={name: last - index for name, index in result.assignment.items()},
            partition_count=result.partition_count,
            reconfiguration_time=result.reconfiguration_time,
            method=result.method,
        )

    return run


class TestInvalidPartitioning:
    """Every fresh solve is validated against its problem: a partitioner
    that breaks the temporal order yields a failed job, never a stored
    outcome or a design."""

    SYSTEM = generic_system(clb_capacity=500, memory_words=256, reconfiguration_time=ms(1))
    OPTIONS = FlowOptions(partitioner="list")

    @pytest.fixture(autouse=True)
    def backwards_list_partitioner(self, monkeypatch):
        monkeypatch.setattr(
            ListTemporalPartitioner, "partition", _backwards(ListTemporalPartitioner.partition)
        )

    @staticmethod
    def _graph():
        # 300 CLBs per stage on a 500-CLB device: one stage per partition.
        return linear_pipeline(
            stage_clbs=[300] * 3, stage_delays=[ns(100)] * 3, words_per_edge=8
        )

    def test_an_inline_job_fails_and_is_never_stored(self):
        engine = PartitionEngine(workers=0)
        problem = PartitionProblem.from_system(self._graph(), self.SYSTEM)
        job = engine.make_job(problem, partitioner="list")
        for _ in range(2):
            report = engine.solve_batch([job])[0]
            assert report.source is ResultSource.SOLVE
            assert report.outcome.status is JobStatus.FAILED
            assert report.outcome.error_kind == "PartitionValidationError"
            assert "temporal order violated" in report.outcome.error
        stats = engine.stats.snapshot()
        assert (stats["cache_misses"], stats["cache_stores"], stats["failed"]) == (2, 0, 2)

    def test_a_flow_report_fails_at_the_partition_stage(self):
        job = FlowJob(self._graph(), self.SYSTEM, self.OPTIONS)
        report = FlowEngine(workers=0).run_batch([job])[0]
        assert report.design is None
        assert report.failed_stage == "partition"
        assert report.error_kind == "PartitionValidationError"

    def test_design_flow_build_raises(self):
        with pytest.raises(
            SynthesisError, match=r"failed at stage partition \(PartitionValidationError\)"
        ):
            DesignFlow(self.SYSTEM, self.OPTIONS).build(self._graph())
