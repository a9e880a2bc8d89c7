"""Design-space exploration: Pareto search over the joint design space.

The paper closes its latency/area trade-off by hand — relax the partition
bound, sweep the configuration time, compare FDH against IDH.  This package
automates that loop as a subsystem:

* :mod:`repro.explore.space` — :class:`DesignPoint` / :class:`SearchSpace`:
  the (workload + parameters, system, CT, partitioner, sequencing) product
  with deterministic enumeration, seeded sampling and neighbourhoods;
* :mod:`repro.explore.objectives` — the multi-objective criteria (latency,
  area utilisation, reconfiguration overhead, throughput) with per-objective
  min/max directions;
* :mod:`repro.explore.pareto` — strict dominance and the incremental
  :class:`ParetoFront` tracker;
* :mod:`repro.explore.strategies` — the pluggable strategy registry
  (``grid``, ``random``, ``greedy``, ``anneal``);
* :mod:`repro.explore.store` — the persistent :class:`RunStore` (a
  :mod:`repro.jsonl` log) that makes interrupted explorations resumable by
  point fingerprint;
* :mod:`repro.explore.engine` — :class:`Explorer`, which evaluates candidate
  batches through :class:`~repro.synth.flow_engine.FlowEngine` so the
  partition caches make repeated neighbourhoods nearly free, and
  :func:`open_run_store`, which decides every store's meta line;
* :mod:`repro.explore.shard` — fingerprint-range sharding: :func:`run_range`
  replays one trajectory over one slice of the space into its own
  ``<store>.shard-<i>-of-<n>.jsonl`` store, and :func:`run_sharded` maps it
  over N slices in a process pool;
* :mod:`repro.explore.merge` — the Pareto-merge fold that unions shard (or
  any) run stores into one front, order-invariantly and idempotently;
* :mod:`repro.explore.scheduler` — the work-stealing shard scheduler:
  a fine M-way range partition handed out dynamically over ``repro serve``
  with lease timeouts, re-issue and stealing, fault-tolerant because range
  evaluation (:func:`run_range` again) is idempotent.

Quickstart::

    from repro.explore import ExploreConfig, Explorer, SearchSpace
    from repro.units import ms

    space = SearchSpace.for_workloads(
        ["jpeg_dct"], ct_values=(ms(1), ms(10), ms(100)),
        partitioners=("ilp", "list"), sequencings=("fdh", "idh"),
    )
    result = Explorer(space, strategy="random", budget=16, seed=7).run()
    for row in result.front.rows():
        print(row)
"""

from .engine import (
    ExplorationResult,
    ExploreConfig,
    Explorer,
    default_store_path,
    is_deterministic_failure,
    open_run_store,
)
from .objectives import (
    DEFAULT_EVAL_BLOCKS,
    OBJECTIVES,
    Objective,
    evaluate_report,
    objective_names,
    objective_vector,
    resolve_objectives,
)
from .merge import (
    MergeResult,
    describe_context_mismatch,
    merge_fronts,
    merge_records,
    merge_stores,
)
from .pareto import FrontEntry, ParetoFront, dominates
from .scheduler import (
    DELAY_ENV,
    Completion,
    ExplorationPlan,
    Lease,
    ScheduledWorkerResult,
    SchedulerError,
    ShardScheduler,
    default_worker_id,
    run_scheduled_worker,
)
from .shard import (
    ShardSpec,
    ShardedExplorationResult,
    run_range,
    run_sharded,
    shard_key,
    shard_of,
    shard_store_path,
    shard_store_paths,
)
from .space import WORKLOAD_DEFAULT_SYSTEM, DesignPoint, SearchSpace
from .store import PointRecord, RunStore, read_store
from .strategies import (
    SEARCH_STRATEGIES,
    ExhaustiveSearch,
    GreedyHillClimb,
    RandomSearch,
    Scalariser,
    SearchStrategy,
    SimulatedAnnealing,
    assert_shardable,
    make_strategy,
    register_strategy,
    shardable_strategy_names,
    strategy_names,
)

__all__ = [
    "Completion",
    "DEFAULT_EVAL_BLOCKS",
    "DELAY_ENV",
    "DesignPoint",
    "ExhaustiveSearch",
    "ExplorationPlan",
    "ExplorationResult",
    "ExploreConfig",
    "Explorer",
    "FrontEntry",
    "GreedyHillClimb",
    "Lease",
    "MergeResult",
    "OBJECTIVES",
    "Objective",
    "ParetoFront",
    "PointRecord",
    "RandomSearch",
    "RunStore",
    "SEARCH_STRATEGIES",
    "Scalariser",
    "ScheduledWorkerResult",
    "SchedulerError",
    "SearchSpace",
    "SearchStrategy",
    "ShardScheduler",
    "ShardSpec",
    "ShardedExplorationResult",
    "SimulatedAnnealing",
    "WORKLOAD_DEFAULT_SYSTEM",
    "assert_shardable",
    "default_store_path",
    "default_worker_id",
    "describe_context_mismatch",
    "dominates",
    "evaluate_report",
    "is_deterministic_failure",
    "make_strategy",
    "merge_fronts",
    "merge_records",
    "merge_stores",
    "objective_names",
    "objective_vector",
    "open_run_store",
    "read_store",
    "register_strategy",
    "resolve_objectives",
    "run_range",
    "run_scheduled_worker",
    "run_sharded",
    "shard_key",
    "shard_of",
    "shard_store_path",
    "shard_store_paths",
    "shardable_strategy_names",
    "strategy_names",
]
