"""Tests for the batched partitioning engine (repro.runtime)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import PartitioningError
from repro.partition import IlpTemporalPartitioner, PartitionProblem
from repro.runtime import (
    ArtifactStore,
    EngineConfig,
    JobOutcome,
    JobStatus,
    LruCache,
    PartitionEngine,
    ResultCache,
    ResultSource,
    SolverSpec,
    configure_shared_engine,
    ct_sweep_jobs,
    problem_fingerprint,
    shared_engine,
)
from repro.runtime.artifacts import _prune_oldest
from repro.runtime.cache import PARTITION_VERSION
from repro.runtime.jobs import PartitionJob
from repro.taskgraph import Task, TaskGraph, clb_cost, linear_pipeline
from repro.units import ms, ns

from partition_helpers import make_problem


def _pipeline_problem(ct=ms(1), stages=3, clbs_per_stage=300):
    graph = linear_pipeline(
        stage_clbs=[clbs_per_stage] * stages,
        stage_delays=[ns(100 * (i + 1)) for i in range(stages)],
        words_per_edge=8,
        env_input_words=8,
        env_output_words=8,
    )
    return make_problem(graph, clb_capacity=500, memory_words=256, ct=ct)


def _infeasible_problem():
    """Two tasks that cannot share a partition, joined by an edge too fat
    for the board memory — no feasible partitioning exists."""
    graph = TaskGraph("infeasible")
    graph.add_task(Task("a", cost=clb_cost(400, ns(100))), env_input_words=1)
    graph.add_task(Task("b", cost=clb_cost(400, ns(100))), env_output_words=1)
    graph.add_edge("a", "b", words=1000)
    return make_problem(graph, clb_capacity=500, memory_words=16, ct=ms(1))


# ---------------------------------------------------------------------------
# Canonicalisation and hashing
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_identical_problems_hash_identically(self):
        assert problem_fingerprint(_pipeline_problem()) == problem_fingerprint(
            _pipeline_problem()
        )

    def test_insertion_order_does_not_matter(self):
        def build(order):
            graph = TaskGraph("order")
            tasks = {
                "a": Task("a", cost=clb_cost(100, ns(100))),
                "b": Task("b", cost=clb_cost(200, ns(200))),
            }
            for name in order:
                graph.add_task(tasks[name])
            graph.add_edge("a", "b", words=4)
            return make_problem(graph)

        assert problem_fingerprint(build("ab")) == problem_fingerprint(build("ba"))

    def test_parameters_change_the_hash(self):
        base = _pipeline_problem(ct=ms(1))
        assert problem_fingerprint(base) != problem_fingerprint(
            _pipeline_problem(ct=ms(2))
        )

    def test_solver_spec_changes_the_hash(self):
        problem = _pipeline_problem()
        ilp = PartitionJob(problem, SolverSpec(partitioner="ilp"))
        lst = PartitionJob(problem, SolverSpec(partitioner="list"))
        assert ilp.fingerprint() != lst.fingerprint()

    def test_time_limit_does_not_change_the_hash(self):
        problem = _pipeline_problem()
        assert (
            PartitionJob(problem, SolverSpec(time_limit=None)).fingerprint()
            == PartitionJob(problem, SolverSpec(time_limit=30.0)).fingerprint()
        )

    def test_hash_stable_across_process_boundaries(self):
        """The fingerprint must not depend on PYTHONHASHSEED or process state."""
        script = textwrap.dedent(
            """
            from repro.runtime import problem_fingerprint
            from repro.taskgraph import linear_pipeline
            from repro.arch import clbs
            from repro.partition import PartitionProblem
            from repro.units import ms, ns

            graph = linear_pipeline(
                stage_clbs=[300, 300, 300],
                stage_delays=[ns(100), ns(200), ns(300)],
                words_per_edge=8,
                env_input_words=8,
                env_output_words=8,
            )
            problem = PartitionProblem(
                graph=graph,
                resource_capacity=clbs(500),
                memory_words=256,
                reconfiguration_time=ms(1),
            )
            print(problem_fingerprint(problem))
            """
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p] or [""]
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert child.stdout.strip() == problem_fingerprint(_pipeline_problem())


# ---------------------------------------------------------------------------
# Cache layers
# ---------------------------------------------------------------------------

def _outcome(fingerprint="f" * 64):
    return JobOutcome(
        fingerprint=fingerprint,
        status=JobStatus.SOLVED,
        assignment={"a": 1},
        partition_count=1,
        total_latency=1.0,
        computation_latency=0.5,
        method="ilp",
        backend="scipy",
    )


def _result_cache(root, max_entries=None):
    """A partition-outcome cache over a fresh store (empty memory layer)."""
    return ResultCache(ArtifactStore(root, max_entries=max_entries))


def _entry(root, fingerprint):
    return root / "stages" / "partition" / f"{fingerprint}.json"


def _entries(root):
    return list((root / "stages" / "partition").glob("*.json"))


class TestCaches:
    def test_lru_evicts_least_recently_used(self):
        cache = LruCache(capacity=2)
        cache.put("a", _outcome("a"))
        cache.put("b", _outcome("b"))
        cache.get("a")  # refresh a; b is now the eviction candidate
        cache.put("c", _outcome("c"))
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_disk_roundtrip(self, tmp_path):
        _result_cache(tmp_path).put("k" * 64, _outcome("k" * 64))
        loaded = _result_cache(tmp_path).get("k" * 64)
        assert loaded is not None
        assert loaded.assignment == {"a": 1}
        assert loaded.status is JobStatus.SOLVED

    def test_disk_corrupt_file_is_a_miss(self, tmp_path):
        path = _entry(tmp_path, "c" * 64)
        path.parent.mkdir(parents=True)
        path.write_text("not json", encoding="utf-8")
        assert _result_cache(tmp_path).get("c" * 64) is None
        assert not path.exists()

    def test_disk_truncated_entry_is_a_logged_miss(self, tmp_path, caplog):
        """A half-written JSON file (killed mid-write) is a miss, not a crash."""
        fingerprint = "t" * 64
        _result_cache(tmp_path).put(fingerprint, _outcome(fingerprint))
        path = _entry(tmp_path, fingerprint)
        path.write_text(path.read_text(encoding="utf-8")[:20], encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.runtime.artifacts"):
            assert _result_cache(tmp_path).get(fingerprint) is None
        assert any(
            "corrupt partition artifact" in record.message for record in caplog.records
        )
        assert not path.exists()

    def test_disk_schema_mismatch_is_a_miss(self, tmp_path):
        """Valid JSON with the wrong shape must also be treated as a miss."""
        fingerprint = "s" * 64
        path = _entry(tmp_path, fingerprint)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({
                "stage": "partition",
                "version": PARTITION_VERSION,
                "payload": {"status": "solved", "unexpected": 1},
            }),
            encoding="utf-8",
        )
        assert _result_cache(tmp_path).get(fingerprint) is None
        assert not path.exists()

    def test_engine_overwrites_corrupt_disk_entry(self, tmp_path):
        """A corrupt entry is re-solved and overwritten by the next batch."""
        engine = PartitionEngine(EngineConfig(cache_dir=tmp_path))
        problem = _pipeline_problem()
        first = engine.solve_batch([problem])
        assert first.ok
        fingerprint = engine.make_job(problem).fingerprint()
        path = _entry(tmp_path, fingerprint)
        path.write_text("{truncated", encoding="utf-8")

        fresh = PartitionEngine(EngineConfig(cache_dir=tmp_path))
        second = fresh.solve_batch([problem])
        assert second.ok
        assert second[0].source is ResultSource.SOLVE
        assert fresh.stats.cache.misses == 1
        # The overwritten entry round-trips again.
        assert _result_cache(tmp_path).get(fingerprint) is not None

    def test_disk_cache_bounded_prunes_oldest(self, tmp_path):
        """max_entries prunes oldest-mtime entries and counts the prunes."""
        cache = _result_cache(tmp_path, max_entries=2)
        fingerprints = [letter * 64 for letter in "abcd"]
        for index, fingerprint in enumerate(fingerprints):
            cache.put(fingerprint, _outcome(fingerprint))
            # Distinct mtimes even on coarse-grained filesystems.
            os.utime(_entry(tmp_path, fingerprint), (index, index))
        assert len(_entries(tmp_path)) == 2
        assert cache.stats.disk_pruned == 2
        reader = _result_cache(tmp_path)
        assert reader.get(fingerprints[0]) is None
        assert reader.get(fingerprints[1]) is None
        assert reader.get(fingerprints[3]) is not None

    def test_disk_cache_prune_never_evicts_the_fresh_entry(self, tmp_path):
        """With identical mtimes (coarse-grained filesystems) the name
        tie-break must not evict the entry whose put triggered the prune."""
        cache = _result_cache(tmp_path, max_entries=2)
        for letter in "yz":
            cache.put(letter * 64, _outcome(letter * 64))
        for path in _entries(tmp_path):
            os.utime(path, (1000, 1000))
        # "a" sorts before "y"/"z"; force the same mtime race by pruning
        # again with every mtime equal.
        cache.put("a" * 64, _outcome("a" * 64))
        fresh = _entry(tmp_path, "a" * 64)
        os.utime(fresh, (1000, 1000))
        _prune_oldest(fresh.parent, 2, keep=fresh.name)
        assert _result_cache(tmp_path).get("a" * 64) is not None
        assert len(_entries(tmp_path)) == 2

    def test_disk_cache_unbounded_never_prunes(self, tmp_path):
        cache = _result_cache(tmp_path)
        for letter in "abcd":
            cache.put(letter * 64, _outcome(letter * 64))
        assert len(_entries(tmp_path)) == 4
        assert cache.stats.disk_pruned == 0

    def test_disk_cache_bad_max_entries_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, max_entries=0)

    def test_engine_bounded_disk_cache_stat(self, tmp_path):
        """The engine surfaces disk prunes in its stats snapshot."""
        engine = PartitionEngine(
            EngineConfig(cache_dir=tmp_path, max_disk_entries=1)
        )
        problems = [
            _pipeline_problem(stages=stages) for stages in (3, 4, 5)
        ]
        batch = engine.solve_batch(problems)
        assert batch.ok
        assert engine.stats.snapshot()["cache_disk_pruned"] == 2
        assert len(_entries(tmp_path)) == 1

    def test_outcome_json_roundtrip(self):
        outcome = _outcome()
        again = JobOutcome.from_json_dict(
            json.loads(json.dumps(outcome.to_json_dict()))
        )
        assert again == outcome


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------

class TestEngine:
    def test_cache_hit_miss_accounting(self, tmp_path):
        engine = PartitionEngine(EngineConfig(cache_dir=tmp_path))
        problem = _pipeline_problem()

        first = engine.solve_batch([problem])
        assert first[0].source is ResultSource.SOLVE
        assert engine.stats.cache.misses == 1
        assert engine.stats.cache.stores == 1

        second = engine.solve_batch([problem])
        assert second[0].source is ResultSource.MEMORY_CACHE
        assert engine.stats.cache.memory_hits == 1

        # A brand new engine sees the on-disk result.
        fresh = PartitionEngine(EngineConfig(cache_dir=tmp_path))
        third = fresh.solve_batch([fresh.make_job(problem)])
        assert third[0].source is ResultSource.DISK_CACHE
        assert fresh.stats.cache.disk_hits == 1
        assert fresh.stats.solved == 1

    def test_batch_dedup_solves_once(self):
        engine = PartitionEngine(EngineConfig())
        problem = _pipeline_problem()
        batch = engine.solve_batch([problem, problem, problem])
        sources = [report.source for report in batch]
        assert sources[0] is ResultSource.SOLVE
        assert sources[1:] == [ResultSource.BATCH_DEDUP, ResultSource.BATCH_DEDUP]
        assert engine.stats.deduped == 2
        assert engine.stats.cache.misses == 1

    def test_each_job_is_fingerprinted_once(self, monkeypatch):
        """The engine keys a job once and hands that key to the worker."""
        import repro.runtime.jobs as jobs_module

        calls = []
        fingerprint = jobs_module.problem_fingerprint

        def counting(*args, **kwargs):
            calls.append(args)
            return fingerprint(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "problem_fingerprint", counting)
        engine = PartitionEngine(EngineConfig())
        first, second = _pipeline_problem(), _pipeline_problem(ct=ms(2))
        batch = engine.solve_batch([first, second, first])
        assert len(calls) == 3
        assert batch.ok
        assert batch[2].source is ResultSource.BATCH_DEDUP
        assert batch[0].outcome.fingerprint == engine.make_job(first).fingerprint()

    def test_failures_are_not_cached(self):
        engine = PartitionEngine(EngineConfig())
        problem = _infeasible_problem()
        engine.solve_batch([problem])
        engine.solve_batch([problem])
        # Both attempts ran the solver: no hit was served for a failure.
        assert engine.stats.cache.misses == 2
        assert engine.stats.cache.hits == 0

    def test_batch_matches_serial_partitioner(self, dct_graph, paper_system):
        ct_values = [ms(1), ms(5), ms(20)]
        engine = PartitionEngine(EngineConfig(workers=2))
        batch = engine.solve_batch(
            ct_sweep_jobs(engine, dct_graph, paper_system, ct_values)
        )
        assert batch.ok
        partitioner = IlpTemporalPartitioner()
        for ct, report in zip(ct_values, batch):
            problem = PartitionProblem.from_system(
                dct_graph, paper_system.with_reconfiguration_time(ct)
            )
            expected = partitioner.partition(problem)
            assert report.outcome.partition_count == expected.partition_count
            assert report.outcome.total_latency == pytest.approx(
                expected.total_latency, abs=1e-15
            )
            rehydrated = report.partitioning()
            assert rehydrated.assignment == expected.assignment
            assert rehydrated.total_latency == pytest.approx(
                expected.total_latency, abs=1e-15
            )

    def test_infeasible_problem_yields_structured_failure(self):
        engine = PartitionEngine(EngineConfig())
        report = engine.solve_batch([_infeasible_problem()])[0]
        assert report.outcome.status is JobStatus.FAILED
        assert report.outcome.error_kind == "PartitioningError"
        assert "no feasible" in report.outcome.error
        with pytest.raises(PartitioningError):
            report.partitioning()

    def test_solve_raises_on_failure(self):
        engine = PartitionEngine(EngineConfig())
        with pytest.raises(PartitioningError, match="failed"):
            engine.solve(_infeasible_problem())

    def test_job_timeout_surfaces_structured_error(self, dct_graph, paper_system):
        engine = PartitionEngine(EngineConfig(workers=2, job_timeout=0.01))
        problem = PartitionProblem.from_system(dct_graph, paper_system)
        report = engine.solve_batch([engine.make_job(problem)])[0]
        assert report.outcome.status is JobStatus.TIMEOUT
        assert "wall-clock" in report.outcome.error
        assert engine.stats.timeouts == 1

    def test_unpicklable_job_surfaces_structured_crash(self):
        engine = PartitionEngine(EngineConfig(workers=2))
        problem = _pipeline_problem()
        problem.graph.poison = lambda: None  # lambdas cannot be pickled
        report = engine.solve_batch([engine.make_job(problem)])[0]
        assert report.outcome.status is JobStatus.CRASHED
        assert report.outcome.error
        assert engine.stats.crashes == 1

    @pytest.mark.skipif(
        sys.platform != "linux", reason="relies on fork-based worker start"
    )
    def test_dead_worker_surfaces_structured_crash(self, monkeypatch):
        import repro.runtime.engine as engine_module

        monkeypatch.setattr(engine_module, "execute_job", _kill_worker)
        engine = PartitionEngine(EngineConfig(workers=2))
        batch = engine.solve_batch([_pipeline_problem(), _pipeline_problem(ct=ms(2))])
        for report in batch:
            assert report.outcome.status is JobStatus.CRASHED
            assert "died" in report.outcome.error or report.outcome.error
        assert engine.stats.crashes == 2

    def test_mixed_batch_keeps_order_and_isolation(self):
        """A failing job must not disturb its neighbours' results."""
        engine = PartitionEngine(EngineConfig())
        good = _pipeline_problem()
        batch = engine.solve_batch([good, _infeasible_problem(), good])
        assert batch[0].ok and batch[2].ok
        assert not batch[1].ok
        assert batch[2].source is ResultSource.BATCH_DEDUP

    def test_job_timeout_requires_pool_workers(self):
        with pytest.raises(PartitioningError, match="workers >= 2"):
            EngineConfig(workers=0, job_timeout=1.0)
        with pytest.raises(PartitioningError, match="workers >= 2"):
            EngineConfig(workers=1, job_timeout=1.0)

    def test_lru_capacity_below_one_is_rejected_up_front(self):
        # Not at the first cache lookup, in the middle of a batch.
        for capacity in (0, -3):
            with pytest.raises(PartitioningError, match="lru_capacity"):
                EngineConfig(lru_capacity=capacity)

    def test_disk_write_failure_does_not_lose_the_batch(self, tmp_path, monkeypatch):
        engine = PartitionEngine(EngineConfig(cache_dir=tmp_path))

        def broken_write(path, stage, version, payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(engine.store, "_write_disk", broken_write)
        batch = engine.solve_batch([_pipeline_problem()])
        assert batch.ok
        assert engine.stats.cache.disk_write_errors == 1

    def test_cached_rows_report_zero_wall_time(self):
        engine = PartitionEngine(EngineConfig())
        problem = _pipeline_problem()
        engine.solve_batch([problem])
        warm = engine.solve_batch([problem])[0]
        assert warm.source is ResultSource.MEMORY_CACHE
        assert warm.wall_time == 0.0
        assert warm.outcome.solve_time > 0.0  # original cost stays visible

    def test_rejects_bad_submission_type(self):
        engine = PartitionEngine(EngineConfig())
        with pytest.raises(PartitioningError, match="expected"):
            engine.solve_batch(["not a problem"])

    def test_list_and_level_partitioners_dispatch(self):
        engine = PartitionEngine(EngineConfig())
        problem = _pipeline_problem()
        for partitioner in ("list", "level"):
            report = engine.solve_batch(
                [engine.make_job(problem, partitioner=partitioner)]
            )[0]
            assert report.ok
            assert report.outcome.method == partitioner or report.outcome.method


def _kill_worker(job, fingerprint):
    os._exit(13)


# ---------------------------------------------------------------------------
# Shared engine / experiments wiring
# ---------------------------------------------------------------------------

class TestSharedEngine:
    def test_case_study_reuses_cached_solve(self):
        from repro.experiments import build_case_study

        engine = PartitionEngine(EngineConfig())
        first = build_case_study(use_ilp=True, engine=engine)
        second = build_case_study(use_ilp=True, engine=engine)
        assert engine.stats.solved == 2  # two jobs accounted...
        assert engine.stats.cache.misses == 1  # ...but only one actual solve
        assert engine.stats.cache.memory_hits == 1
        assert first.partitioning.assignment == second.partitioning.assignment

    def test_shared_engine_is_a_singleton(self):
        original = shared_engine()
        try:
            assert shared_engine() is original
            replaced = configure_shared_engine(EngineConfig(lru_capacity=8))
            assert shared_engine() is replaced
            assert shared_engine() is not original
        finally:
            # Restore so other tests keep their warm cache.
            import repro.runtime.engine as engine_module

            engine_module._shared_engine = original
