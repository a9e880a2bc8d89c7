"""Tests for the partitioner registry (repro.partition.registry).

The registry is the only code that names, validates, keys and builds a
partitioner, so these tests pin its three contracts: every spelling builds
the right solver with every relevant ``SolverSpec`` field forwarded, every
front end rejects unknown names the same way, and the cache keys derived
from a partitioner choice are byte-identical to the pinned values.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.arch.catalog import paper_case_study_system
from repro.errors import ExplorationError, PartitioningError, SynthesisError
from repro.explore import SearchSpace
from repro.jpeg.taskgraph_builder import build_dct_task_graph
from repro.partition import (
    PARTITIONER_CHOICES,
    AnnealTemporalPartitioner,
    IlpTemporalPartitioner,
    LevelClusteringPartitioner,
    ListTemporalPartitioner,
    MultilevelPartitioner,
    PartitionProblem,
    PortfolioPartitioner,
    SolverSpec,
    make_partitioner,
)
from repro.runtime import EngineConfig, JobStatus, PartitionEngine
from repro.runtime.jobs import PartitionJob
from repro.serve import JobSpec
from repro.serve.protocol import ProtocolError
from repro.synth import FlowOptions, stages
from repro.workloads import get_workload

#: Every partitioner spelling, written out so the golden digest below does
#: not depend on the registry it checks.
SPELLINGS = (
    "ilp", "list", "level", "anneal", "portfolio", "multilevel",
    "multilevel:portfolio", "multilevel:ilp", "multilevel:list",
    "multilevel:level", "multilevel:anneal",
)

#: sha256 over every (spelling, seed, extra-partitions) choice's stage plan,
#: CT-invariance flag and partition-job fingerprint; each row also names the
#: ``"scipy"`` solver tag every key carries.
GOLDEN_KEYS = "2fd89995f19d9d89fac926793218df4f1c9a034859ba746e8275866619f9f919"


def test_spellings_are_the_registry_choices():
    assert SPELLINGS == PARTITIONER_CHOICES


def test_cache_keys_match_the_pinned_digest():
    """Stage keys and job fingerprints are byte-identical to the pinned ones."""
    workload = get_workload("matmul_pipeline")
    graph = workload.build_graph()
    system = workload.default_system()
    problem = PartitionProblem.from_system(graph, system)
    digest = hashlib.sha256()
    for partitioner in SPELLINGS:
        for seed in (0, 3):
            for extra in (0, 2):
                options = FlowOptions(partitioner=partitioner, partitioner_seed=seed)
                plan = stages.build_stage_plan(
                    graph, system, options, explore_extra_partitions=extra
                )
                job = PartitionJob(
                    stages.normalised_partition_problem(problem, extra, partitioner),
                    SolverSpec(
                        partitioner=partitioner,
                        explore_extra_partitions=extra,
                        seed=seed,
                    ),
                )
                row = [
                    partitioner, seed, "scipy", extra,
                    [key.digest for key in plan.keys],
                    stages.ct_invariant_solver(partitioner, extra),
                    job.fingerprint(),
                ]
                digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == GOLDEN_KEYS


@pytest.mark.parametrize(
    "name, kind",
    [
        ("ilp", IlpTemporalPartitioner),
        ("list", ListTemporalPartitioner),
        ("level", LevelClusteringPartitioner),
        ("anneal", AnnealTemporalPartitioner),
        ("portfolio", PortfolioPartitioner),
        ("multilevel", MultilevelPartitioner),
        ("multilevel:list", MultilevelPartitioner),
    ],
)
def test_make_partitioner_builds_the_named_solver(name, kind):
    assert type(make_partitioner(SolverSpec(partitioner=name))) is kind


def test_spec_fields_reach_the_solver():
    spec = SolverSpec(partitioner="ilp", time_limit=2.5, explore_extra_partitions=1)
    ilp = make_partitioner(spec)
    assert (ilp.time_limit, ilp.explore_extra_partitions) == (2.5, 1)
    assert make_partitioner(SolverSpec(partitioner="anneal", seed=7)).seed == 7
    multilevel = make_partitioner(
        SolverSpec(partitioner="multilevel:anneal", seed=7, time_limit=2.5)
    )
    assert (multilevel.inner, multilevel.seed, multilevel.time_limit) == ("anneal", 7, 2.5)


@pytest.mark.parametrize("name", ["portfolio", "multilevel", "multilevel:portfolio"])
def test_time_limit_reaches_the_portfolio_exact_arm(name):
    partitioner = make_partitioner(SolverSpec(partitioner=name, time_limit=1.5, seed=4))
    if isinstance(partitioner, MultilevelPartitioner):
        partitioner = partitioner._build_inner()
    assert isinstance(partitioner, PortfolioPartitioner)
    assert (partitioner.time_limit, partitioner.anneal_seed) == (1.5, 4)


def test_portfolio_time_limit_fails_the_job():
    """The HLS-estimated DCT defeats the certificate, so the portfolio's
    exact arm runs; under a short limit it must stop and fail the job
    (uncached), exactly like a plain ILP job, instead of solving on."""
    graph = build_dct_task_graph(attach_dfgs=True)
    for name in graph.task_names():
        graph.task(name).cost = None
    system = paper_case_study_system()
    estimated = stages.run_estimate(graph, system, FlowOptions())
    problem = PartitionProblem.from_system(estimated, system)
    engine = PartitionEngine(EngineConfig(partitioner="portfolio", time_limit=0.3))
    for _ in range(2):
        report = engine.solve_batch([problem])[0]
        assert report.outcome.status is JobStatus.FAILED
        assert "ILP solve" in report.outcome.error
    assert engine.stats.cache.misses == 2


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda name: SolverSpec(partitioner=name), PartitioningError),
        (lambda name: FlowOptions(partitioner=name), SynthesisError),
        (lambda name: JobSpec(workload="jpeg_dct", partitioner=name), ProtocolError),
        (
            lambda name: SearchSpace(
                workloads=(("jpeg_dct", ()),), partitioners=("list", name)
            ),
            ExplorationError,
        ),
    ],
)
@pytest.mark.parametrize("name", ["bogus", "multilevel:bogus", "Multilevel"])
def test_every_front_end_rejects_unknown_names(build, error, name):
    with pytest.raises(error, match="unknown partitioner"):
        build(name)
