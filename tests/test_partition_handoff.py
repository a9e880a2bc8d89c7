"""An in-process solve hands its validated partitioning to the flow.

``execute_job`` validates every fresh result.  On the in-process path the
engine keeps that object on the solving ``JobReport`` (``solved``), and
``rehydrate_partitioning`` re-tags it with the job's CT and the outcome's
method, backend, objective and solve time instead of rebuilding it from
the stored assignment.  The object must equal the rebuilt one field by
field, for every partitioner and for CT-normalised jobs.  Cache hits,
batch-dedup copies and pool results carry nothing and rebuild, with the
same designs; the kept object never reaches the result cache.
"""

from __future__ import annotations

import pytest

from repro.partition import PartitionProblem
from repro.partition.registry import ct_invariant_solver
from repro.partition.result import TemporalPartitioning
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import ResultSource
from repro.synth import stages
from repro.synth.flow_engine import FlowEngine, workload_flow_jobs
from repro.verify.oracles import design_fingerprint

PARTITIONERS = (
    "ilp",
    "list",
    "level",
    "anneal",
    "portfolio",
    "multilevel:ilp",
    "multilevel:list",
    "multilevel:level",
    "multilevel:anneal",
    "multilevel:portfolio",
)


def _hex(value):
    return None if value is None else float(value).hex()


def _fields(partitioning: TemporalPartitioning):
    """Every field of a partitioning, floats by their bits, dicts with their
    order."""
    return {
        "assignment": list(partitioning.assignment.items()),
        "partition_count": partitioning.partition_count,
        "partitions": [
            (info.index, info.tasks, _hex(info.delay), list(info.resources.amounts.items()))
            for info in partitioning.partitions
        ],
        "method": partitioning.method,
        "backend": partitioning.solver_backend,
        "objective": _hex(partitioning.objective_value),
        "ct": _hex(partitioning.reconfiguration_time),
        "solve_time": _hex(partitioning.solve_time),
    }


def _design_view(report):
    design = report.design
    partitioning = design.partitioning
    return (
        design_fingerprint(design),
        design.describe(),
        partitioning.method,
        partitioning.solver_backend,
        _hex(partitioning.objective_value),
    )


@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_an_inline_solve_hands_over_what_a_rebuild_gives(partitioner):
    """A costed graph at CT 0 and at 10 ms and an estimated one (the
    estimate stage's copy) at 10 ms, each a fresh flow.  A CT-invariant
    solver solves the two 10 ms jobs CT-normalised, at 0."""
    jobs = workload_flow_jobs(
        names=["matmul_pipeline"], ct_values=[0.0, 0.01], partitioner=partitioner
    )
    jobs += workload_flow_jobs(names=["fir_filterbank"], partitioner=partitioner)
    normalised = 0
    for job in jobs:
        engine = FlowEngine()
        report = engine.run_batch([job])[0]
        assert report.ok, report.error
        (partition,) = engine.engine.last_batch.reports
        assert partition.source is ResultSource.SOLVE
        design = report.design
        assert partition.solved is design.partitioning
        solved_ct = partition.job.problem.reconfiguration_time
        normalised += solved_ct != job.system.reconfiguration_time
        problem = PartitionProblem.from_system(design.partitioning.graph, job.system)
        rebuilt = stages.rehydrate_partitioning(problem, partition.outcome, solved_ct)
        assert rebuilt is not design.partitioning
        assert rebuilt.graph is design.partitioning.graph
        assert _fields(design.partitioning) == _fields(rebuilt)
    assert normalised == (2 if ct_invariant_solver(partitioner) else 0)


def test_cache_dedup_and_pool_flows_rebuild_the_same_designs(tmp_path):
    """Two CTs of one CT-invariant job: the second is a batch-dedup copy.
    A second batch reads the memory cache, a new engine the disk cache, and
    a two-worker engine solves in the pool.  None of those reports keeps a
    partitioning, and every design equals the job's inline fresh flow."""
    jobs = workload_flow_jobs(names=["matmul_pipeline"], ct_values=[0.002, 0.02])
    fresh = []
    for job in jobs:
        engine = FlowEngine()
        fresh.append(_design_view(engine.run_batch([job])[0]))
        assert engine.engine.last_batch[0].solved is not None

    engine = FlowEngine(cache_dir=tmp_path)
    runs = {"batch": engine.run_batch(jobs)}
    first, copy = engine.engine.last_batch.reports
    assert first.source is ResultSource.SOLVE and first.solved is not None
    assert copy.source is ResultSource.BATCH_DEDUP and copy.solved is None
    runs["memory"] = engine.run_batch(jobs)
    memory = engine.engine.last_batch.reports
    disk_engine = FlowEngine(cache_dir=tmp_path)
    runs["disk"] = disk_engine.run_batch(jobs)
    disk = disk_engine.engine.last_batch.reports
    pool_engine = FlowEngine(workers=2)
    runs["pool"] = pool_engine.run_batch(jobs)
    pool = pool_engine.engine.last_batch.reports

    assert [report.source for report in memory] == [
        ResultSource.MEMORY_CACHE, ResultSource.BATCH_DEDUP
    ]
    assert [report.source for report in disk] == [
        ResultSource.DISK_CACHE, ResultSource.BATCH_DEDUP
    ]
    assert [report.source for report in pool] == [
        ResultSource.SOLVE, ResultSource.BATCH_DEDUP
    ]
    assert all(report.solved is None for report in memory + disk + pool)
    for name, batch in runs.items():
        assert [_design_view(report) for report in batch] == fresh, name


def test_the_handed_over_partitioning_is_never_cached(monkeypatch):
    """What reaches the result cache is the outcome alone, which shares no
    dict or list with the partitioning the flow keeps."""
    stored = []
    put = ResultCache.put

    def recording(self, fingerprint, outcome):
        stored.append(outcome)
        return put(self, fingerprint, outcome)

    monkeypatch.setattr(ResultCache, "put", recording)
    (job,) = workload_flow_jobs(names=["matmul_pipeline"], partitioner="anneal")
    engine = FlowEngine()
    design = engine.run(job)
    partitioning = design.partitioning
    assert engine.engine.last_batch[0].solved is partitioning
    (outcome,) = stored
    assert engine.engine.cache.get(outcome.fingerprint) is outcome
    fields = vars(outcome).values()
    assert not any(isinstance(value, TemporalPartitioning) for value in fields)
    cached = {id(value) for value in fields if isinstance(value, (dict, list))}
    kept = {id(partitioning.assignment), id(partitioning.partitions)}
    for info in partitioning.partitions:
        kept |= {id(info.tasks), id(info.resources.amounts)}
    assert cached and not cached & kept
    assert outcome.assignment == partitioning.assignment
