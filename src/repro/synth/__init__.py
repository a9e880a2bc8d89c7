"""End-to-end synthesis flow (Figure 2), stage pipeline and batch service."""

from ..partition.registry import PARTITIONERS
from .flow import DesignFlow, FlowOptions
from .flow_engine import (
    FlowBatchReport,
    FlowEngine,
    FlowJob,
    FlowReport,
    FlowStage,
    workload_flow_jobs,
)
from .pipeline import StagePipeline
from .rtr_design import RtrDesign
from .stages import (
    PIPELINE_STAGES,
    STAGE_VERSIONS,
    StageKey,
    StagePlan,
    build_stage_plan,
    ct_invariant_solver,
)
from .static_design import (
    StaticDesign,
    static_design_from_estimator,
    static_design_from_parameters,
)

__all__ = [
    "DesignFlow",
    "FlowBatchReport",
    "FlowEngine",
    "FlowJob",
    "FlowOptions",
    "FlowReport",
    "FlowStage",
    "PARTITIONERS",
    "PIPELINE_STAGES",
    "RtrDesign",
    "STAGE_VERSIONS",
    "StageKey",
    "StagePipeline",
    "StagePlan",
    "StaticDesign",
    "build_stage_plan",
    "ct_invariant_solver",
    "static_design_from_estimator",
    "static_design_from_parameters",
    "workload_flow_jobs",
]
