"""repro — temporal partitioning and loop fission for RTR FPGA synthesis.

A from-scratch Python reproduction of *"An Automated Temporal Partitioning and
Loop Fission Approach for FPGA Based Reconfigurable Synthesis of DSP
Applications"* (Kaul, Vemuri, Govindarajan, Ouaiss — DAC 1999).

The public API is organised by subsystem:

* :mod:`repro.arch` — target architecture models (FPGA, memory, bus, board);
* :mod:`repro.dfg` / :mod:`repro.taskgraph` — behaviour specifications;
* :mod:`repro.hls` — the high-level-synthesis estimator and RTL generation;
* :mod:`repro.ilp` — the MILP matrix form and its HiGHS solver call;
* :mod:`repro.partition` — the ILP temporal partitioner and heuristic baselines;
* :mod:`repro.memmap` — memory blocks and address generation;
* :mod:`repro.fission` — loop fission, FDH/IDH strategies and throughput models;
* :mod:`repro.synth` — the end-to-end design flow and design artefacts;
* :mod:`repro.simulate` — execution simulation of static and RTR designs;
* :mod:`repro.jpeg` — the JPEG/DCT case study;
* :mod:`repro.workloads` — the registry of named, parameterised scenarios;
* :mod:`repro.explore` — design-space exploration: Pareto search over the
  joint (workload, system, CT, partitioner, sequencing) space;
* :mod:`repro.experiments` — drivers regenerating the paper's tables and figures.

Quickstart::

    from repro.arch import paper_case_study_system
    from repro.jpeg import build_dct_task_graph
    from repro.synth import DesignFlow

    system = paper_case_study_system()
    design = DesignFlow(system).build(build_dct_task_graph())
    print(design.describe())
"""

from . import (
    arch,
    dfg,
    errors,
    experiments,
    explore,
    fission,
    hls,
    ilp,
    jpeg,
    memmap,
    partition,
    runtime,
    simulate,
    synth,
    taskgraph,
    units,
    workloads,
)
from .arch import paper_case_study_system
from .jpeg import build_dct_task_graph
from .partition import IlpTemporalPartitioner, ListTemporalPartitioner, PartitionProblem
from .runtime import EngineConfig, PartitionEngine
from .synth import DesignFlow, FlowEngine, FlowJob, FlowOptions
from .workloads import get_workload, register_workload, workload_names

__version__ = "1.9.0"

__all__ = [
    "DesignFlow",
    "EngineConfig",
    "FlowEngine",
    "FlowJob",
    "FlowOptions",
    "IlpTemporalPartitioner",
    "ListTemporalPartitioner",
    "PartitionEngine",
    "PartitionProblem",
    "__version__",
    "arch",
    "build_dct_task_graph",
    "dfg",
    "errors",
    "experiments",
    "explore",
    "fission",
    "get_workload",
    "hls",
    "ilp",
    "jpeg",
    "memmap",
    "paper_case_study_system",
    "partition",
    "register_workload",
    "runtime",
    "simulate",
    "synth",
    "taskgraph",
    "units",
    "workload_names",
    "workloads",
]
