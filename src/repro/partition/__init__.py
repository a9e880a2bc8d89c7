"""Temporal partitioning: the paper's core contribution plus baselines.

* :class:`IlpTemporalPartitioner` — the optimal ILP approach of Section 2.1
  (preprocessing lower bound, relax-N loop, Eqs. 1-8);
* :class:`ListTemporalPartitioner` — the latency-blind greedy baseline the
  paper argues against;
* :class:`LevelClusteringPartitioner` — a scheduling/clustering style
  heuristic in the spirit of the prior work the paper cites;
* :class:`AnnealTemporalPartitioner` — seeded simulated-annealing refinement
  of the list solution (latency-aware, still cheap);
* :class:`PortfolioPartitioner` — deterministic ladder over all of the above
  plus an optimality certificate, with the ILP as the fallback when no
  heuristic is certified;
* :class:`MultilevelPartitioner` — criticality-driven multilevel clustering
  pre-partitioner for 10k-100k-node graphs (coarsen, solve with any inner
  engine, uncoarsen + refine);
* :func:`make_partitioner` — the registry that turns a :class:`SolverSpec`
  (partitioner name, limits, seed) into one of the above;
* validation and metrics shared by all of them.
"""

from .anneal_partitioner import AnnealTemporalPartitioner
from .greedy_partitioner import LevelClusteringPartitioner
from .hierarchy import MultilevelPartitioner, MultilevelReport
from .ilp_formulation import FormulationOptions, TemporalPartitioningFormulation
from .ilp_partitioner import IlpPartitionerReport, IlpTemporalPartitioner
from .list_partitioner import ListTemporalPartitioner
from .metrics import (
    PartitioningComparison,
    PartitioningMetrics,
    compare_partitionings,
    compute_metrics,
    partition_summary_rows,
)
from .portfolio import PortfolioPartitioner, PortfolioReport
from .registry import (
    MULTILEVEL_INNER_CHOICES,
    PARTITIONER_CHOICES,
    PARTITIONERS,
    SolverSpec,
    check_partitioner,
    make_partitioner,
    multilevel_inner,
)
from .result import PartitionInfo, TemporalPartitioning
from .spec import PartitionProblem
from .validate import ValidationReport, assert_valid, validate_partitioning

__all__ = [
    "AnnealTemporalPartitioner",
    "FormulationOptions",
    "IlpPartitionerReport",
    "IlpTemporalPartitioner",
    "LevelClusteringPartitioner",
    "ListTemporalPartitioner",
    "MULTILEVEL_INNER_CHOICES",
    "MultilevelPartitioner",
    "MultilevelReport",
    "PARTITIONERS",
    "PARTITIONER_CHOICES",
    "PartitionInfo",
    "PartitionProblem",
    "PartitioningComparison",
    "PartitioningMetrics",
    "PortfolioPartitioner",
    "PortfolioReport",
    "SolverSpec",
    "TemporalPartitioning",
    "TemporalPartitioningFormulation",
    "ValidationReport",
    "assert_valid",
    "check_partitioner",
    "compare_partitionings",
    "compute_metrics",
    "make_partitioner",
    "multilevel_inner",
    "partition_summary_rows",
    "validate_partitioning",
]
