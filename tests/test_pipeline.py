"""Tests for the content-addressed stage pipeline (repro.synth.stages/pipeline).

Covers the ISSUE-4 acceptance criteria directly:

* stage keys are stable across processes and insensitive to irrelevant
  detail (graph names), and a version bump changes the key / invalidates
  stale disk entries;
* delta (incremental) evaluation is byte-identical to a cold full-flow run
  for every builtin workload;
* a warm CT-only explore neighbourhood performs zero partition solves and
  zero HLS estimations;
* the shared cache layout is manageable through ``repro cache``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.explore import OBJECTIVES, DesignPoint, ExploreConfig, Explorer, SearchSpace
from repro.explore.objectives import evaluate_report
from repro.runtime import ArtifactStore, EngineConfig, PartitionEngine
from repro.synth import FlowEngine, workload_flow_jobs
from repro.synth import stages
from repro.units import ms
from repro.workloads import get_workload, workload_names


def _plan_for(name="matmul_pipeline", ct=None, **option_overrides):
    from dataclasses import replace

    workload = get_workload(name)
    graph = workload.build_graph()
    system = workload.default_system()
    if ct is not None:
        system = system.with_reconfiguration_time(ct)
    options = workload.flow_options()
    if option_overrides:
        options = replace(options, **option_overrides)
    return stages.build_stage_plan(graph, system, options)


# ---------------------------------------------------------------------------
# Stage keys
# ---------------------------------------------------------------------------

class TestStageKeys:
    def test_plan_lists_every_pipeline_stage_in_order(self):
        plan = _plan_for()
        assert tuple(key.stage for key in plan.keys) == stages.PIPELINE_STAGES
        assert "estimate@v" in plan.describe()

    def test_keys_are_chained_through_the_dag(self):
        """Changing one axis re-keys exactly that stage and its dependents."""
        base = _plan_for()

        # A partitioner change keeps the estimate key, changes everything after.
        other = _plan_for(partitioner="level")
        assert other.digest(stages.ESTIMATE) == base.digest(stages.ESTIMATE)
        for stage in (stages.PARTITION, stages.MEMORY_MAP, stages.FISSION, stages.TIMING):
            assert other.digest(stage) != base.digest(stage)

        # A memory-rounding change keeps estimate+partition, changes the rest.
        rounded = _plan_for(round_memory_blocks=True)
        assert rounded.digest(stages.ESTIMATE) == base.digest(stages.ESTIMATE)
        assert rounded.digest(stages.PARTITION) == base.digest(stages.PARTITION)
        for stage in (stages.MEMORY_MAP, stages.FISSION, stages.TIMING):
            assert rounded.digest(stage) != base.digest(stage)

    def test_ct_only_change_shares_every_stage_key(self):
        """CT is not an input of any cached stage under the default solver."""
        a = _plan_for(ct=ms(1))
        b = _plan_for(ct=ms(50))
        assert [key.digest for key in a.keys] == [key.digest for key in b.keys]

    def test_graph_name_does_not_change_the_key(self):
        workload = get_workload("matmul_pipeline")
        system = workload.default_system()
        options = workload.flow_options()
        graph_a = workload.build_graph()
        graph_b = workload.build_graph()
        graph_b.name = "renamed"
        plan_a = stages.build_stage_plan(graph_a, system, options)
        plan_b = stages.build_stage_plan(graph_b, system, options)
        assert plan_a.digest(stages.ESTIMATE) == plan_b.digest(stages.ESTIMATE)

    def test_version_bump_changes_the_key_and_its_dependents(self, monkeypatch):
        base = _plan_for()
        monkeypatch.setitem(stages.STAGE_VERSIONS, stages.ESTIMATE, 999)
        bumped = _plan_for()
        for stage in stages.PIPELINE_STAGES:
            assert bumped.digest(stage) != base.digest(stage)
        assert bumped.key(stages.ESTIMATE).version == 999

    def test_ct_invariance_gate(self):
        assert stages.ct_invariant_solver("ilp", 0)
        assert stages.ct_invariant_solver("list", 0)
        assert stages.ct_invariant_solver("list", 3)
        assert not stages.ct_invariant_solver("ilp", 1)

    def test_ct_dependent_solver_keys_include_ct(self):
        workload = get_workload("matmul_pipeline")
        graph = workload.build_graph()
        options = workload.flow_options()
        estimate = stages.estimate_stage_key(
            graph, workload.default_system(), options
        )
        a = stages.partition_stage_key(
            estimate, workload.default_system().with_reconfiguration_time(ms(1)),
            options, explore_extra_partitions=2,
        )
        b = stages.partition_stage_key(
            estimate, workload.default_system().with_reconfiguration_time(ms(2)),
            options, explore_extra_partitions=2,
        )
        assert a.digest != b.digest

    def test_keys_stable_across_process_boundaries(self):
        """Stage digests must not depend on PYTHONHASHSEED or process state."""
        script = textwrap.dedent(
            """
            from repro.synth import build_stage_plan
            from repro.workloads import get_workload

            workload = get_workload("matmul_pipeline")
            plan = build_stage_plan(
                workload.build_graph(),
                workload.default_system(),
                workload.flow_options(),
            )
            for key in plan.keys:
                print(key.digest)
            """
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "4242"
        env["PYTHONPATH"] = os.pathsep.join([p for p in sys.path if p] or [""])
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert child.stdout.split() == [key.digest for key in _plan_for().keys]

    def test_graph_digest_tracks_every_content_mutation(self):
        """graph_content_digest is a pure content hash: any in-place
        mutation — costs, env I/O — changes it (no stale process-wide memo)."""
        workload = get_workload("fir_filterbank")
        graph = workload.build_graph()
        before = stages.graph_content_digest(graph)
        assert stages.graph_content_digest(workload.build_graph()) == before

        estimated = stages.run_estimate(
            graph, workload.default_system(), workload.flow_options()
        )
        # run_estimate worked on a copy; the original digest is unchanged,
        # while the estimated copy hashes differently (it carries costs).
        assert stages.graph_content_digest(graph) == before
        assert stages.graph_content_digest(estimated) != before

        # In-place cost mutation changes the digest...
        name = graph.task_names()[0]
        graph.set_cost(name, estimated.task(name).cost)
        after_cost = stages.graph_content_digest(graph)
        assert after_cost != before
        # ...and so does an env-I/O mutation (invisible to any coarse salt).
        graph.set_env_io(name, env_input_words=graph.env_input_words(name) + 1)
        assert stages.graph_content_digest(graph) != after_cost

    def test_run_batch_accepts_mutated_graph_across_batches(self):
        """The per-batch digest memo must not leak across run_batch calls:
        mutating a graph between batches yields fresh stage keys."""
        workload = get_workload("fir_filterbank")
        graph = workload.build_graph()
        engine = FlowEngine()
        from repro.synth import FlowJob

        job = FlowJob(graph=graph, system=workload.default_system(),
                      options=workload.flow_options(), tag="fir")
        first = engine.run_batch([job])[0]
        assert first.ok and first.stage_sources["estimate"] == "computed"
        # Mutate the SAME graph object between batches: more env input words
        # means a different estimation problem — a stale memo would silently
        # serve the old estimate artifact as a cache hit.
        name = graph.task_names()[0]
        graph.set_env_io(name, env_input_words=graph.env_input_words(name) + 8)
        second = engine.run_batch([job])[0]
        assert second.ok
        assert second.stage_sources["estimate"] == "computed"

    def test_unknown_stage_raises(self):
        from repro.errors import SynthesisError

        with pytest.raises(SynthesisError, match="not part of this plan"):
            _plan_for().key("no-such-stage")


# ---------------------------------------------------------------------------
# The artifact store
# ---------------------------------------------------------------------------

class TestArtifactStore:
    def test_memory_roundtrip_and_stats(self):
        store = ArtifactStore()
        value, source = store.get("demo", 1, "d" * 64)
        assert value is None and source == ""
        store.put("demo", 1, "d" * 64, {"x": 1})
        value, source = store.get("demo", 1, "d" * 64)
        assert value == {"x": 1} and source == "memory-cache"
        stats = store.stats_for("demo")
        assert stats.memory_hits == 1 and stats.misses == 1 and stats.stores == 1

    def test_disk_roundtrip_with_codec(self, tmp_path):
        writer = ArtifactStore(cache_dir=tmp_path)
        writer.put("demo", 1, "e" * 64, {"y": 2}, encode=lambda v: v)
        reader = ArtifactStore(cache_dir=tmp_path)
        value, source = reader.get("demo", 1, "e" * 64, decode=lambda v: v)
        assert value == {"y": 2} and source == "disk-cache"
        assert (tmp_path / "stages" / "demo" / f"{'e' * 64}.json").is_file()

    def test_disk_entry_is_the_json_text_of_its_envelope(self, tmp_path):
        """The bytes on disk are ``json.dumps`` of the envelope, the same
        text a streaming ``json.dump`` writes."""
        payload = {
            "delays": [0.1, 1e-09, 2106.0000000000005, -0.0, 1e300, 7],
            "nested": [[1, [2.5, "x"]], [], {"k": [None, True]}],
            "name": "Übertragung – 変換 ✓",
        }
        writer = ArtifactStore(cache_dir=tmp_path)
        writer.put("demo", 3, "b" * 64, payload, encode=lambda v: v)
        envelope = {"stage": "demo", "version": 3, "payload": payload}
        streamed = io.StringIO()
        json.dump(envelope, streamed)
        written = (tmp_path / "stages" / "demo" / f"{'b' * 64}.json").read_bytes()
        assert written == json.dumps(envelope).encode("utf-8")
        assert written == streamed.getvalue().encode("utf-8")

    def test_memory_only_stage_never_builds_a_disk_path(self, tmp_path, monkeypatch):
        """Without a codec a stage stays in memory, even in a store with a
        cache root: no entry path is built, nothing lands on disk."""
        store = ArtifactStore(cache_dir=tmp_path)
        built = []
        disk_path = store._disk_path
        monkeypatch.setattr(
            store, "_disk_path", lambda *args: built.append(args) or disk_path(*args)
        )
        store.put("demo", 1, "c" * 64, {"w": 4})
        assert store.get("demo", 1, "c" * 64) == ({"w": 4}, "memory-cache")
        assert ArtifactStore(cache_dir=tmp_path).get("demo", 1, "c" * 64) == (None, "")
        assert built == [] and list(tmp_path.iterdir()) == []
        store.put("demo", 1, "c" * 64, {"w": 4}, encode=lambda v: v)
        assert built == [("demo", "c" * 64)]
        assert [p.name for p in (tmp_path / "stages" / "demo").iterdir()] == [f"{'c' * 64}.json"]

    def test_stale_version_on_disk_is_a_miss_and_removed(self, tmp_path):
        writer = ArtifactStore(cache_dir=tmp_path)
        writer.put("demo", 1, "f" * 64, {"z": 3}, encode=lambda v: v)
        path = tmp_path / "stages" / "demo" / f"{'f' * 64}.json"
        assert path.is_file()
        reader = ArtifactStore(cache_dir=tmp_path)
        value, source = reader.get("demo", 2, "f" * 64, decode=lambda v: v)
        assert value is None and source == ""
        assert not path.exists()

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "stages" / "demo" / f"{'a' * 64}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        reader = ArtifactStore(cache_dir=tmp_path)
        value, source = reader.get("demo", 1, "a" * 64, decode=lambda v: v)
        assert value is None and source == ""
        assert not path.exists()


# ---------------------------------------------------------------------------
# Delta evaluation through the flow engine
# ---------------------------------------------------------------------------

class TestDeltaEvaluation:
    def test_ct_sweep_batch_solves_once(self):
        engine = FlowEngine(engine=PartitionEngine(EngineConfig()))
        jobs = workload_flow_jobs(
            names=["matmul_pipeline"], ct_values=[ms(1), ms(5), ms(20)]
        )
        batch = engine.run_batch(jobs)
        assert batch.ok
        assert engine.stats.cache.misses == 1
        assert engine.stage_stats["estimate"]["runs"] == 1
        assert [r.partition_source for r in batch] == [
            "solve", "batch-dedup", "batch-dedup"
        ]
        # Latencies still reflect each job's own CT.
        latencies = [r.design.partitioning.total_latency for r in batch]
        assert latencies == sorted(latencies) and len(set(latencies)) == 3

    @pytest.mark.parametrize("name", sorted(workload_names(exclude_tags=("huge",))))
    def test_incremental_metrics_bit_identical_to_cold_run(self, name):
        """ISSUE-4 acceptance: delta evaluation == cold full flow, bitwise."""
        base_ct, new_ct = ms(3), ms(7)
        objectives = tuple(OBJECTIVES.values())

        warm_engine = FlowEngine(engine=PartitionEngine(EngineConfig()))
        warm_base = warm_engine.run_batch(
            workload_flow_jobs(names=[name], ct_values=[base_ct])
        )
        assert warm_base.ok, warm_base.describe(failures_only=True)
        delta = warm_engine.run_batch(
            workload_flow_jobs(names=[name], ct_values=[new_ct])
        )[0]
        assert delta.ok
        # The delta run reused every cached stage.
        assert delta.cached_stage("estimate"), delta.stage_sources
        assert delta.cached_partition, delta.stage_sources

        cold = FlowEngine(engine=PartitionEngine(EngineConfig())).run_batch(
            workload_flow_jobs(names=[name], ct_values=[new_ct])
        )[0]
        assert cold.ok

        for sequencing in ("fdh", "idh"):
            point = DesignPoint.create(name, ct=new_ct, sequencing=sequencing)
            delta_metrics = evaluate_report(delta, point, objectives)
            cold_metrics = evaluate_report(cold, point, objectives)
            assert delta_metrics == cold_metrics  # float equality = bitwise

        assert (
            delta.design.partitioning.assignment
            == cold.design.partitioning.assignment
        )
        assert (
            delta.design.partitioning.partition_delays
            == cold.design.partitioning.partition_delays
        )

    def test_estimate_artifact_served_from_disk_across_engines(self, tmp_path):
        jobs = workload_flow_jobs(names=["matmul_pipeline"])
        first = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        assert first.run_batch(jobs).ok
        second = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        report = second.run_batch(workload_flow_jobs(names=["matmul_pipeline"]))[0]
        assert report.stage_sources["estimate"] == "disk-cache"
        assert report.partition_source == "disk-cache"

    def test_version_bump_invalidates_disk_artifacts(self, tmp_path, monkeypatch):
        jobs = workload_flow_jobs(names=["matmul_pipeline"])
        assert FlowEngine(config=EngineConfig(cache_dir=tmp_path)).run_batch(jobs).ok
        monkeypatch.setitem(stages.STAGE_VERSIONS, stages.ESTIMATE, 999)
        fresh = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        report = fresh.run_batch(workload_flow_jobs(names=["matmul_pipeline"]))[0]
        assert report.stage_sources["estimate"] == "computed"
        assert fresh.stage_stats["estimate"]["runs"] == 1

    def test_row_carries_stage_times_and_sources(self):
        engine = FlowEngine()
        row = engine.run_batch(workload_flow_jobs(names=["matmul_pipeline"]))[0].row()
        for column in ("t_estimate_s", "t_partition_s", "t_memory_map_s",
                       "t_fission_s", "t_timing_s", "t_assemble_s"):
            assert column in row
        assert "estimate=computed" in row["stage_sources"]
        assert row["cached_estimate"] is False


# ---------------------------------------------------------------------------
# Explore neighbourhoods (the acceptance scenario)
# ---------------------------------------------------------------------------

class TestExploreNeighbourhoods:
    CT_AXIS = (ms(1), ms(2), ms(5), ms(10), ms(20))

    def _space(self):
        return SearchSpace.for_workloads(
            ["matmul_pipeline"],
            ct_values=self.CT_AXIS,
            partitioners=("ilp",),
            sequencings=("fdh", "idh"),
        )

    def test_warm_ct_neighbourhood_zero_solves_zero_estimations(self):
        """ISSUE-4 acceptance: a CT-only neighbourhood evaluated warm does
        zero partition solves and zero HLS estimations."""
        space = self._space()
        flow_engine = FlowEngine(engine=PartitionEngine(EngineConfig()))

        # Warm-up: evaluate ONE point (one CT, one sequencing).
        explorer = Explorer(
            space, config=ExploreConfig(budget=1, batch_size=1), flow_engine=flow_engine
        )
        warmup = explorer.run()
        assert warmup.ok and warmup.flow_evaluated == 1

        misses_before = flow_engine.stats.cache.misses
        estimate_runs_before = flow_engine.stage_stats["estimate"]["runs"]

        # The rest of the space differs from the warm point only along CT
        # and sequencing — the whole neighbourhood must be served by the
        # stage caches.
        full = Explorer(
            space,
            config=ExploreConfig(budget=space.size, batch_size=4),
            flow_engine=flow_engine,
        ).run()
        assert full.ok and full.visited == space.size

        assert flow_engine.stats.cache.misses == misses_before, (
            "warm CT-only neighbourhood re-solved the partition stage"
        )
        assert (
            flow_engine.stage_stats["estimate"]["runs"] == estimate_runs_before
        ), "warm CT-only neighbourhood re-ran the HLS estimator"
        for record in full.records:
            assert record.cache_hits() == len(stages.PIPELINE_STAGES), (
                record.stage_sources
            )

    def test_sequencing_only_neighbour_reuses_every_stage(self):
        space = self._space()
        flow_engine = FlowEngine(engine=PartitionEngine(EngineConfig()))
        base = DesignPoint.create(
            "matmul_pipeline", ct=self.CT_AXIS[0], sequencing="fdh"
        )
        neighbour = DesignPoint.create(
            "matmul_pipeline", ct=self.CT_AXIS[0], sequencing="idh"
        )
        explorer = Explorer(
            space, config=ExploreConfig(budget=2, batch_size=1), flow_engine=flow_engine
        )
        cold, _ = explorer._evaluate([(base, base.fingerprint())])
        warm, _ = explorer._evaluate([(neighbour, neighbour.fingerprint())])
        record = warm[neighbour.fingerprint()]
        assert record.ok
        # Sequencing enters only objective evaluation: every flow stage hits.
        assert record.cache_hits() == len(stages.PIPELINE_STAGES)
        # And the two points still measure differently where they should.
        base_record = cold[base.fingerprint()]
        assert record.metrics["latency"] == base_record.metrics["latency"]

    def test_stage_sources_round_trip_through_the_store(self, tmp_path):
        from repro.explore import RunStore

        space = self._space()
        path = tmp_path / "run.jsonl"
        with RunStore(path, space.fingerprint()) as store:
            result = Explorer(
                space, config=ExploreConfig(budget=4, batch_size=2), store=store
            ).run()
        assert result.ok
        with RunStore(path, space.fingerprint()) as store:
            replayed = store.replay()
        assert replayed and all(record.stage_sources for record in replayed)
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert "stage_sources" in json.loads(line)

    def test_engine_stats_include_stage_counters(self):
        result = Explorer(
            self._space(), config=ExploreConfig(budget=3, batch_size=3)
        ).run()
        assert "stage_estimate_runs" in result.engine_stats
        assert "stage_memory_map_memory_hits" in result.engine_stats


# ---------------------------------------------------------------------------
# The cache CLI
# ---------------------------------------------------------------------------

class TestCacheCli:
    def _populate(self, tmp_path):
        engine = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        assert engine.run_batch(
            workload_flow_jobs(names=["matmul_pipeline"], ct_values=[ms(1), ms(2)])
        ).ok

    def test_stats_lists_partition_and_stage_areas(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "partition" in out and "stage:estimate" in out

    def test_prune_bounds_every_area(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli_main(
            ["cache", "prune", "--max-entries", "0", "--cache-dir", str(tmp_path)]
        ) == 0
        assert not list(tmp_path.glob("*.json"))
        assert not list((tmp_path / "stages").glob("*/*.json"))

    def test_clear_removes_everything(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert cli_main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*.json"))
        assert not list((tmp_path / "stages").glob("*/*.json"))

    def test_stats_on_missing_root_is_ok(self, tmp_path, capsys):
        assert cli_main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "nope")]
        ) == 0
        assert "missing" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Pipeline plumbing details
# ---------------------------------------------------------------------------

class TestPipelinePlumbing:
    def test_flow_engine_shares_the_partition_engine_store(self, tmp_path):
        """One store holds every stage: partition outcomes sit beside the
        estimate artifacts, and nothing is written at the cache root."""
        flow_engine = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        assert flow_engine.pipeline.store is flow_engine.engine.store
        assert flow_engine.run_batch(workload_flow_jobs(names=["matmul_pipeline"])).ok
        assert sorted(p.name for p in (tmp_path / "stages").iterdir()) == [
            "estimate", "partition",
        ]
        assert not list(tmp_path.glob("*.json"))

    def test_max_disk_entries_bounds_every_stage_directory(self, tmp_path):
        flow_engine = FlowEngine(
            config=EngineConfig(cache_dir=tmp_path, max_disk_entries=2)
        )
        jobs = workload_flow_jobs(
            names=["fir_filterbank", "matmul_pipeline", "verify_chain", "wavelet_pyramid"]
        )
        assert flow_engine.run_batch(jobs).ok
        for stage in (stages.ESTIMATE, stages.PARTITION):
            files = list((tmp_path / "stages" / stage).glob("*.json"))
            assert 1 <= len(files) <= 2, stage
            assert flow_engine.stage_stats[stage]["disk_pruned"] == 2
        assert flow_engine.stats.snapshot()["cache_disk_pruned"] == 2

    def test_estimate_artifact_round_trip_is_bit_exact(self):
        workload = get_workload("fir_filterbank")
        graph = workload.build_graph()
        estimated = stages.run_estimate(
            graph, workload.default_system(), workload.flow_options()
        )
        payload = stages.estimate_artifact(estimated)
        # Through JSON, as the disk layer would store it.
        payload = json.loads(json.dumps(payload))
        rehydrated = stages.apply_estimate_artifact(graph, payload)
        for name in estimated.task_names():
            a, b = estimated.task(name), rehydrated.task(name)
            assert a.delay == b.delay
            assert a.resources.as_dict() == b.resources.as_dict()
        assert not graph.all_estimated()  # the input graph is never mutated

    def test_designflow_estimate_no_longer_mutates_its_input(self):
        from repro.synth import DesignFlow

        workload = get_workload("fir_filterbank")
        graph = workload.build_graph()
        flow = DesignFlow(workload.default_system(), workload.flow_options())
        estimated = flow.estimate(graph)
        assert estimated.all_estimated()
        assert not graph.all_estimated()

    def test_describe_stats_reports_hits(self):
        engine = FlowEngine()
        engine.run_batch(
            workload_flow_jobs(names=["matmul_pipeline"], ct_values=[ms(1), ms(2)])
        )
        text = engine.pipeline.describe_stats()
        assert "estimate 1/2" in text


# ---------------------------------------------------------------------------
# The estimate entry of a graph that needed no estimation
# ---------------------------------------------------------------------------

def _estimate_entry(engine, job, cache_dir):
    """The estimate entry of *job* in *engine*'s memory layer and on disk."""
    key = engine.pipeline.plan(job.graph, job.system, job.options).key(stages.ESTIMATE)
    memory = engine.pipeline.store._memory_for(stages.ESTIMATE).get(key.digest)
    path = cache_dir / "stages" / stages.ESTIMATE / f"{key.digest}.json"
    return memory, path


def _cost_bits(graph):
    return [
        (name, graph.task(name).resources.as_dict(), graph.task(name).delay.hex(),
         graph.task(name).cost.cycles, graph.task(name).cost.clock_period)
        for name in graph.task_names()
    ]


class TestPassThroughEstimate:
    """A fully costed graph passes estimation untouched, so its entry is an
    empty table; the entry is still stored, looked up and counted."""

    def test_costed_graph_stores_an_empty_table(self, tmp_path):
        job = workload_flow_jobs(names=["matmul_pipeline"])[0]
        assert job.graph.all_estimated()
        engine = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        report = engine.run_batch([job])[0]
        assert report.stage_sources["estimate"] == "computed"
        memory, path = _estimate_entry(engine, job, tmp_path)
        assert memory == {}
        assert path.read_text(encoding="utf-8") == json.dumps(
            {"stage": "estimate", "version": stages.STAGE_VERSIONS[stages.ESTIMATE],
             "payload": {}}
        )
        assert engine.stage_stats["estimate"]["runs"] == 1

    def test_second_flow_hits_the_empty_table(self, tmp_path):
        from repro.verify import design_fingerprint

        first = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        cold = first.run_batch(workload_flow_jobs(names=["matmul_pipeline"]))[0]
        warm = first.run_batch(workload_flow_jobs(names=["matmul_pipeline"]))[0]
        assert warm.stage_sources["estimate"] == "memory-cache"
        assert first.stage_stats["estimate"]["runs"] == 1
        second = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        disk = second.run_batch(workload_flow_jobs(names=["matmul_pipeline"]))[0]
        assert disk.stage_sources["estimate"] == "disk-cache"
        assert disk.row()["cached_estimate"] is True
        assert second.stage_stats["estimate"]["runs"] == 0
        assert second.stage_stats["estimate"]["disk_hits"] == 1
        prints = {design_fingerprint(r.design) for r in (cold, warm, disk)}
        assert len(prints) == 1 and "" not in prints

    def test_uncosted_graph_round_trips_its_full_table(self, tmp_path):
        job = workload_flow_jobs(names=["fir_filterbank"])[0]
        assert not job.graph.all_estimated()
        estimated = stages.run_estimate(job.graph, job.system, job.options)
        table = stages.estimate_artifact(estimated)
        assert table and len(table) == len(job.graph)

        writer = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        assert writer.run_batch([job]).ok
        memory, path = _estimate_entry(writer, job, tmp_path)
        assert memory == table
        assert json.loads(path.read_text(encoding="utf-8"))["payload"] == table

        reader = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        plan = reader.pipeline.plan(job.graph, job.system, job.options)
        rehydrated, source = reader.pipeline.estimate(plan, job.graph, job.system, job.options)
        assert source == "disk-cache"
        assert _cost_bits(rehydrated) == _cost_bits(estimated)
        assert not job.graph.all_estimated()

    def test_full_table_on_disk_is_still_a_hit(self, tmp_path):
        """An entry that holds a costed graph's full table, as stores written
        before the empty table do, is a hit that returns the graph as is."""
        job = workload_flow_jobs(names=["matmul_pipeline"])[0]
        engine = FlowEngine(config=EngineConfig(cache_dir=tmp_path))
        _, path = _estimate_entry(engine, job, tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "stage": "estimate", "version": stages.STAGE_VERSIONS[stages.ESTIMATE],
            "payload": stages.estimate_artifact(job.graph),
        }), encoding="utf-8")
        plan = engine.pipeline.plan(job.graph, job.system, job.options)
        graph, source = engine.pipeline.estimate(plan, job.graph, job.system, job.options)
        assert source == "disk-cache" and graph is job.graph
        report = engine.run_batch([job])[0]
        assert report.stage_sources["estimate"] == "memory-cache"
        assert engine.stage_stats["estimate"]["runs"] == 0
