"""Loop fission: throughput maximisation for loop-enclosed task graphs.

Implements Section 2.2: the memory-limited computations-per-run analysis
(Eq. 9), the FDH and IDH host-sequencing strategies with their overhead
models, breakeven/sweep analyses, and host sequencing-code generation.
"""

from .analysis import FissionAnalysis, analyse_fission
from .sequencer import (
    SequencerCallbacks,
    SequencerPlan,
    count_configuration_loads,
    generate_host_code,
    run_sequencer,
)
from .strategies import (
    RtrTimingSpec,
    SequencingStrategy,
    StaticTimingSpec,
    TimingBreakdown,
    execution_time,
    fdh_execution_time,
    fdh_reconfiguration_overhead,
    idh_execution_time,
    idh_overhead,
    static_execution_time,
)
from .throughput import (
    StrategyComparison,
    breakeven_computations,
    compare_static_vs_rtr,
    reconfiguration_absorption_point,
    reconfiguration_time_sweep,
    rtr_timing_spec,
    static_timing_spec,
    sweep_workload_sizes,
)

__all__ = [
    "FissionAnalysis",
    "RtrTimingSpec",
    "SequencerCallbacks",
    "SequencerPlan",
    "SequencingStrategy",
    "StaticTimingSpec",
    "StrategyComparison",
    "TimingBreakdown",
    "analyse_fission",
    "breakeven_computations",
    "compare_static_vs_rtr",
    "count_configuration_loads",
    "execution_time",
    "fdh_execution_time",
    "fdh_reconfiguration_overhead",
    "generate_host_code",
    "idh_execution_time",
    "idh_overhead",
    "reconfiguration_absorption_point",
    "reconfiguration_time_sweep",
    "rtr_timing_spec",
    "run_sequencer",
    "static_execution_time",
    "static_timing_spec",
    "sweep_workload_sizes",
]
