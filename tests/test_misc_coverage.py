"""Targeted tests for less-travelled paths: error handling, edge cases, reports."""

from dataclasses import replace

import numpy as np
import pytest
from ilp_helpers import make_form

from repro import errors
from repro.arch import xc4044
from repro.dfg import vector_product_dfg
from repro.errors import (
    FissionError,
    IlpError,
    MemoryMappingError,
    PartitioningError,
    ReproError,
    SimulationError,
    SolverError,
    SynthesisError,
)
from repro.fission import SequencerPlan, SequencingStrategy
from repro.hls import TaskEstimator, minimal_allocation, xc4000_library
from repro.ilp import SolveStatus, solve_milp_scipy
from repro.simulate import SimulationEvent, EventKind
from repro.units import ns


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [
            PartitioningError,
            FissionError,
            MemoryMappingError,
            SynthesisError,
            SimulationError,
            SolverError,
            IlpError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_solver_error_is_ilp_error(self):
        assert issubclass(SolverError, IlpError)

    def test_every_exported_name_is_an_exception(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and name.endswith("Error"):
                assert issubclass(obj, Exception)

    def test_catching_base_class_catches_subsystem_errors(self):
        with pytest.raises(ReproError):
            raise PartitioningError("boom")


class TestIlpEdgeCases:
    def test_unbounded_lp_detected_by_relaxation(self):
        # max x over a continuous x >= 0.
        form = make_form([-1], upper=[np.inf], integrality=[0])
        assert solve_milp_scipy(form).status is SolveStatus.UNBOUNDED

    def test_unbounded_milp_detected(self):
        # HiGHS answers "infeasible or unbounded" here; a zero-objective
        # re-solve finds x = 0 feasible, so the model is unbounded.
        form = make_form([-1], upper=[np.inf])
        result = solve_milp_scipy(form)
        assert result.status is SolveStatus.UNBOUNDED

    def test_integer_infeasible_milp_with_unbounded_relaxation(self):
        # 2x - 2y = 1 has real solutions along an unbounded ray, none integral.
        form = make_form([-1, -1], [[2, -2]], [1], [1], upper=[np.inf, np.inf])
        relaxation = replace(form, integrality=np.zeros(2))
        assert solve_milp_scipy(relaxation).status is SolveStatus.UNBOUNDED
        assert solve_milp_scipy(form).status is SolveStatus.INFEASIBLE

    def test_model_with_no_constraints(self):
        form = make_form([1])
        assert solve_milp_scipy(form).objective == pytest.approx(0.0)

    def test_objective_with_constant_term(self):
        # min x + 10  s.t.  x >= 1.
        form = make_form([1], [[1]], [1], [np.inf], constant=10.0)
        assert solve_milp_scipy(form).objective == pytest.approx(11.0)

    def test_maximization_with_constant(self):
        # max 2x + 5, as min -2x - 5.
        form = make_form([-2], constant=-5.0)
        assert -solve_milp_scipy(form).objective == pytest.approx(7.0)


class TestEstimatorInternals:
    def test_area_breakdown_components_sum(self):
        estimator = TaskEstimator(xc4044(), max_clock_period=ns(100))
        estimate = estimator.estimate_dfg(vector_product_dfg(4, 8, 9), env_io_words=5)
        breakdown = estimate.breakdown
        assert breakdown.raw_total == (
            breakdown.functional_units
            + breakdown.registers
            + breakdown.steering
            + breakdown.controller
            + breakdown.memory_ports
        )
        # Layout inflation only ever adds area.
        assert estimate.clbs >= breakdown.raw_total

    def test_no_memory_port_without_io(self):
        estimator = TaskEstimator(xc4044(), max_clock_period=ns(100))
        estimate = estimator.estimate_dfg(vector_product_dfg(4, 8, 9), env_io_words=0)
        assert estimate.breakdown.memory_ports == 0

    def test_explicit_allocation_is_respected(self):
        library = xc4000_library()
        dfg = vector_product_dfg(4, 8, 9)
        allocation = minimal_allocation(dfg, library)
        estimator = TaskEstimator(xc4044(), max_clock_period=ns(100))
        estimate = estimator.estimate_dfg(dfg, allocation=allocation)
        assert estimate.allocation.instances == allocation.instances

    def test_task_cost_conversion(self):
        estimator = TaskEstimator(xc4044(), max_clock_period=ns(100))
        estimate = estimator.estimate_dfg(vector_product_dfg(4, 8, 9))
        cost = estimate.to_task_cost()
        assert cost.clbs == estimate.clbs
        assert cost.delay == pytest.approx(estimate.delay)
        assert cost.cycles == estimate.cycles


class TestSequencerValidation:
    def test_plan_rejects_bad_parameters(self):
        with pytest.raises(FissionError):
            SequencerPlan(SequencingStrategy.FDH, partition_count=0, computations_per_run=1)
        with pytest.raises(FissionError):
            SequencerPlan(SequencingStrategy.IDH, partition_count=1, computations_per_run=0)

    def test_host_code_contains_partition_count(self):
        from repro.fission import generate_host_code

        code = generate_host_code(SequencerPlan(SequencingStrategy.FDH, 5, 16))
        assert "5 - 1" in code


class TestSimulationEvents:
    def test_event_end_time(self):
        event = SimulationEvent(kind=EventKind.EXECUTE, start_time=1.0, duration=0.5)
        assert event.end_time == pytest.approx(1.5)

    def test_event_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            SimulationEvent(kind=EventKind.EXECUTE, start_time=0.0, duration=-1.0)

    def test_event_describe_mentions_partition_and_words(self):
        event = SimulationEvent(
            kind=EventKind.TRANSFER_IN, start_time=0.0, duration=0.001,
            partition=2, run=3, words=64,
        )
        text = event.describe()
        assert "P2" in text and "64 words" in text and "transfer_in" in text


class TestDesignFlowErrors:
    def test_rtr_design_configuration_count_mismatch(self, case_study_reference):
        from repro.synth import RtrDesign

        with pytest.raises(SynthesisError):
            RtrDesign(
                name="broken",
                system=case_study_reference.system,
                partitioning=case_study_reference.partitioning,
                memory_map=case_study_reference.memory_map,
                fission=case_study_reference.fission,
                timing_spec=case_study_reference.rtr_spec,
                configurations=[object()],  # 1 configuration for 3 partitions
            )

    def test_estimate_stage_disabled(self, paper_system):
        from repro.jpeg import build_dct_task_graph
        from repro.synth import DesignFlow, FlowOptions

        graph = build_dct_task_graph(attach_dfgs=True)
        for name in graph.task_names():
            graph.task(name).cost = None
        flow = DesignFlow(paper_system, FlowOptions(estimate_missing_costs=False))
        with pytest.raises(SynthesisError):
            flow.build(graph)


class TestReportingHelpers:
    def test_breakdown_table_empty(self):
        from repro.simulate import breakdown_table

        assert "no breakdowns" in breakdown_table({})

    def test_format_events_empty(self):
        from repro.simulate import format_events

        assert format_events([]) == ""

    def test_partition_describe_contains_method(self, case_study_reference):
        text = case_study_reference.partitioning.describe()
        assert "paper-reference" in text
