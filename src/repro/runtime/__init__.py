"""Batched, parallel, caching execution layer for the partitioner.

The paper's tool solves one ILP per invocation; production workloads solve
*fleets* of them — the same graph swept across devices and reconfiguration
times, or many graphs against one board.  This subsystem amortises that
work:

* :mod:`repro.runtime.canonical` — content hashing of problems, graphs,
  devices and arbitrary stage payloads;
* :mod:`repro.runtime.artifacts` — the content-addressed artifact store,
  the one memory + disk cache of every stage (per-stage version tags,
  shared cache-root layout);
* :mod:`repro.runtime.cache` — the LRU layer and the partition-outcome
  codec over the store;
* :mod:`repro.runtime.jobs` — job/outcome/report types;
* :mod:`repro.runtime.worker` — the function worker processes run;
* :mod:`repro.runtime.engine` — :class:`PartitionEngine` itself.
"""

from .artifacts import (
    ArtifactStore,
    CacheAreaReport,
    StageStats,
    clear_cache_dir,
    default_cache_dir,
    prune_cache_dir,
    scan_cache_dir,
)
from .cache import CacheStats, LruCache, ResultCache
from .canonical import (
    canonical_device_dict,
    canonical_fingerprint,
    canonical_graph_text,
    canonical_problem_text,
    canonical_value,
    problem_fingerprint,
)
from .engine import (
    BatchReport,
    EngineConfig,
    EngineStats,
    PartitionEngine,
    configure_shared_engine,
    ct_sweep_jobs,
    shared_engine,
)
from .jobs import (
    JobOutcome,
    JobReport,
    JobStatus,
    PartitionJob,
    ResultSource,
    SolverSpec,
    outcome_to_partitioning,
)
from .worker import execute_job

__all__ = [
    "ArtifactStore",
    "BatchReport",
    "CacheAreaReport",
    "CacheStats",
    "EngineConfig",
    "EngineStats",
    "JobOutcome",
    "JobReport",
    "JobStatus",
    "LruCache",
    "PartitionEngine",
    "PartitionJob",
    "ResultCache",
    "ResultSource",
    "SolverSpec",
    "StageStats",
    "canonical_device_dict",
    "canonical_fingerprint",
    "canonical_graph_text",
    "canonical_problem_text",
    "canonical_value",
    "clear_cache_dir",
    "configure_shared_engine",
    "ct_sweep_jobs",
    "default_cache_dir",
    "execute_job",
    "outcome_to_partitioning",
    "problem_fingerprint",
    "prune_cache_dir",
    "scan_cache_dir",
    "shared_engine",
]
