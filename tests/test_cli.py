"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.taskgraph import linear_pipeline, save
from repro.units import ns


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition"])
        assert args.taskgraph == "dct"
        assert args.partitioner == "ilp"
        assert args.system == "paper-xc4044"

    def test_flow_options(self):
        args = build_parser().parse_args(
            ["flow", "--strategy", "fdh", "--round-blocks", "--blocks", "100"]
        )
        assert args.strategy == "fdh" and args.round_blocks and args.blocks == 100

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--partitioner", "annealing"])

    @pytest.mark.parametrize("command", ["partition", "partition-batch"])
    def test_solver_backend_cannot_be_chosen(self, command, capsys):
        # HiGHS is the only MILP solver; even its old name is refused.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--backend", "scipy"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ") and out.split()[1][0].isdigit()

    def test_workloads_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workloads"])


class TestCommands:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "paper-xc4044" in out and "XC4044" in out

    def test_partition_dct_with_list_heuristic(self, capsys):
        assert main(["partition", "--partitioner", "list"]) == 0
        out = capsys.readouterr().out
        assert "3 partitions" in out
        assert "10960 ns" in out.replace(",", "")

    def test_partition_dct_with_ilp(self, capsys):
        assert main(["partition", "--partitioner", "ilp"]) == 0
        out = capsys.readouterr().out
        assert "8440 ns" in out.replace(",", "")
        assert "variables" in out

    def test_partition_custom_taskgraph_file(self, tmp_path, capsys):
        graph = linear_pipeline([200, 200, 200], [ns(100), ns(200), ns(300)])
        path = tmp_path / "pipeline.json"
        save(graph, path)
        assert main([
            "partition", str(path), "--partitioner", "list",
            "--system", "custom", "--clbs", "250", "--memory", "1024", "--ct", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 partitions" in out

    @pytest.mark.parametrize("clbs, stalled", [(10, False), (30, True)])
    def test_partition_multilevel_reports_its_phases(self, tmp_path, capsys, clbs, stalled):
        """The multilevel line gives all three phase times, and a second
        line says when no pair of 30-CLB tasks fits the 50-CLB cluster cap."""
        graph = linear_pipeline([clbs] * 60, [ns(100)] * 60)
        path = tmp_path / "pipeline.json"
        save(graph, path)
        assert main([
            "partition", str(path), "--partitioner", "multilevel:list",
            "--system", "custom", "--clbs", "100", "--memory", "4096", "--ct", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "multilevel: inner=list levels 60" in out
        assert "s, refine " in out
        stall = "coarsening stalled at 60 tasks, above the 48-task target"
        assert (stall in out) == stalled

    def test_flow_with_comparison(self, capsys):
        assert main([
            "flow", "--partitioner", "list", "--strategy", "idh",
            "--blocks", "100000", "--static-block-delay-ns", "16000",
        ]) == 0
        out = capsys.readouterr().out
        assert "host sequencing code" in out
        assert "RTR" in out

    def test_table1_command(self, capsys):
        assert main(["table1", "--no-ilp"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "never" in out

    def test_table2_command(self, capsys):
        assert main(["table2", "--no-ilp"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "XC6000" in out

    def test_case_study_command(self, capsys):
        assert main(["case-study", "--no-ilp"]) == 0
        out = capsys.readouterr().out
        assert "k=2048" in out and "XC6000" in out

    def test_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("jpeg_dct", "fir_filterbank", "matmul_pipeline",
                     "random_layered", "wavelet_pyramid"):
            assert name in out

    def test_workloads_list_survives_a_broken_builder(self, capsys):
        """A workload whose builder raises must not break the listing."""
        from repro.errors import SpecificationError
        from repro.workloads import register_workload, unregister_workload

        @register_workload("broken_for_list_test", description="always fails")
        def build_broken(**_params):
            raise SpecificationError("synthetic failure for the listing test")

        try:
            assert main(["workloads", "list"]) == 0
            out = capsys.readouterr().out
            assert "broken_for_list_test" in out and "unavailable" in out
        finally:
            unregister_workload("broken_for_list_test")

    def test_workloads_list_never_builds_the_huge_tiers(self, capsys, monkeypatch):
        """A huge tier's size is its ``task_count`` parameter: the listing
        prints it and never builds the graph."""
        from dataclasses import replace

        from repro.workloads import iter_workloads, registry

        built = []

        def spy(**params):
            built.append(params)
            raise AssertionError("the listing built a huge tier")

        huge = [workload for workload in iter_workloads() if "huge" in workload.tags]
        for workload in huge:
            monkeypatch.setitem(registry._REGISTRY, workload.name, replace(workload, builder=spy))
        assert {"random_layered_10k", "random_layered_50k", "random_layered_100k"} <= {
            workload.name for workload in huge
        }
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        assert built == []
        assert "random_layered_100k 100000 tasks, built on demand" in out
        assert "unavailable" not in out

    def test_workloads_show(self, capsys):
        assert main(["workloads", "show", "matmul_pipeline"]) == 0
        out = capsys.readouterr().out
        assert "matmul_pipeline" in out and "8 tasks" in out and "variants" in out

    def test_workloads_show_unknown_exits_cleanly(self, capsys):
        assert main(["workloads", "show", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_flow_with_workload(self, capsys):
        assert main(["flow", "--workload", "matmul_pipeline"]) == 0
        out = capsys.readouterr().out
        assert "2 configurations" in out and "host sequencing code" in out

    def test_flow_single_json_shares_the_batch_serialisation(self, capsys):
        """``--format json`` without ``--batch`` emits the same row shape."""
        assert main(["flow", "--workload", "jpeg_dct", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        assert rows[0]["workload"] == "jpeg_dct"
        # Derived metrics are canonicalised: the shortest decimal form,
        # never a binary-float artifact like 8439.999999999998.
        assert rows[0]["block_delay_ns"] == 8440.0
        assert json.dumps(rows[0]["block_delay_ns"]) == "8440.0"

    def test_flow_batch_requires_workload(self, capsys):
        assert main(["flow", "--batch"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_flow_rejects_file_and_workload_together(self, capsys):
        assert main(["flow", "graph.json", "--workload", "jpeg_dct"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_flow_batch_honours_system_and_ct_overrides(self, capsys):
        assert main([
            "flow", "--workload", "matmul_pipeline", "--batch",
            "--system", "custom", "--clbs", "800", "--memory", "4096",
            "--ct", "1", "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        # CT=1ms (not the workload default 2ms): 2 reconfigurations + compute.
        assert rows[0]["total_latency_s"] == pytest.approx(
            2 * 0.001 + rows[0]["block_delay_ns"] * 1e-9
        )

    def test_flow_batch_with_ct_sweep_csv(self, capsys):
        assert main([
            "flow", "--workload", "matmul_pipeline", "--batch",
            "--ct-sweep", "1,5", "--format", "csv",
        ]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 3  # header + one row per CT value
        assert "matmul_pipeline[" not in lines[1]  # default params, no variant tag
        assert "@ct=1ms" in lines[1] and "@ct=5ms" in lines[2]
        assert "flow batch of 2 jobs" in captured.err

    def test_explore_random_smoke(self, tmp_path, capsys):
        store = tmp_path / "run.jsonl"
        assert main([
            "explore", "--workload", "matmul_pipeline", "--strategy", "random",
            "--budget", "6", "--partitioners", "list,level",
            "--ct-sweep", "1,5", "--store", str(store), "--format", "json",
        ]) == 0
        captured = capsys.readouterr()
        front = json.loads(captured.out)
        assert front and "latency" in front[0] and "throughput" in front[0]
        assert "flow jobs evaluated: 6" in captured.err
        assert store.exists()

    def test_explore_resume_serves_from_the_store(self, tmp_path, capsys):
        store = tmp_path / "run.jsonl"
        argv = [
            "explore", "--workload", "matmul_pipeline", "--strategy", "anneal",
            "--budget", "8", "--partitioners", "list,level",
            "--ct-sweep", "1,5,20", "--store", str(store), "--resume",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "flow jobs evaluated: 0" in captured.err

    def test_explore_refuses_to_clobber_an_existing_store(self, tmp_path, capsys):
        store = tmp_path / "run.jsonl"
        argv = [
            "explore", "--workload", "matmul_pipeline", "--strategy", "grid",
            "--budget", "2", "--partitioners", "list", "--ct-sweep", "1,5",
            "--store", str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Without --resume or --fresh an existing store is refused intact.
        assert main(argv) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(argv + ["--resume", "--fresh"]) == 2
        capsys.readouterr()
        # --fresh deliberately starts over.
        assert main(argv + ["--fresh"]) == 0

    def test_explore_rejects_unknown_objective(self, tmp_path, capsys):
        code = main([
            "explore", "--workload", "matmul_pipeline",
            "--objectives", "latency,nope", "--store", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert "unknown objective" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("command", ["explore", "schedule"])
    def test_unknown_partitioner_rejected_before_any_store(
        self, command, tmp_path, capsys, monkeypatch
    ):
        import repro.serve

        def no_server(*args, **kwargs):
            raise AssertionError("the coordinator started on a bad space")

        monkeypatch.setattr(repro.serve, "FlowServer", no_server)
        store = tmp_path / "x.jsonl"
        code = main([
            command, "--workload", "fir_filterbank", "--partitioners", "list,bogus",
            "--budget", "4", "--store", str(store),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown partitioner 'bogus'" in err
        assert not store.exists()
        assert not list(tmp_path.iterdir())

    def test_flow_with_unknown_workload_exits_cleanly(self, capsys):
        assert main(["flow", "--workload", "no_such_workload"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no_such_workload" in err and "known:" in err

    def test_flow_batch_with_unknown_workload_exits_cleanly(self, capsys):
        assert main(["flow", "--workload", "no_such_workload", "--batch"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no_such_workload" in err

    def test_explore_resume_refuses_wrong_schema_version(self, tmp_path, capsys):
        store = tmp_path / "run.jsonl"
        store.write_text(
            '{"kind":"meta","version":999,"space":"","context":{}}\n',
            encoding="utf-8",
        )
        code = main([
            "explore", "--workload", "matmul_pipeline", "--strategy", "grid",
            "--budget", "2", "--partitioners", "list", "--ct-sweep", "1",
            "--store", str(store), "--resume",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "schema version" in err
        # The incompatible store was refused, never truncated.
        assert "999" in store.read_text(encoding="utf-8")

    def test_explore_resume_refuses_mismatched_context(self, tmp_path, capsys):
        store = tmp_path / "run.jsonl"
        argv = [
            "explore", "--workload", "matmul_pipeline", "--strategy", "grid",
            "--budget", "2", "--partitioners", "list", "--ct-sweep", "1",
            "--store", str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Resuming under different evaluation context would silently serve
        # stale metrics; the CLI must refuse with a readable message.
        code = main(argv + ["--resume", "--eval-blocks", "999"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "context" in err
        assert "mismatching field(s)" in err and "eval_blocks" in err

    def test_verify_rejects_zero_scenarios(self, capsys):
        assert main(["verify", "--scenarios", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--scenarios must be at least 1" in err

    def test_verify_rejects_unknown_family(self, capsys):
        assert main(["verify", "--scenarios", "2", "--families", "nope"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown scenario family" in err

    def test_error_reported_cleanly(self, tmp_path, capsys):
        # A task graph that cannot be partitioned (task larger than the device)
        # must produce exit code 2 and an error message, not a traceback.
        graph = linear_pipeline([5000], [ns(100)])
        path = tmp_path / "too_big.json"
        save(graph, path)
        code = main(["partition", str(path), "--system", "custom", "--clbs", "100"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestShardedCli:
    """``repro explore --shards`` and ``repro frontier --store`` end to end."""

    def _explore_argv(self, store, extra=()):
        return [
            "explore", "--workload", "matmul_pipeline", "--strategy", "grid",
            "--budget", "8", "--partitioners", "list,level", "--ct-sweep",
            "1,5", "--store", str(store), "--format", "json",
        ] + list(extra)

    def test_sharded_merge_is_byte_identical_to_unsharded(self, tmp_path, capsys):
        solo_out = tmp_path / "solo.json"
        assert main(
            self._explore_argv(tmp_path / "solo.jsonl")
            + ["--output", str(solo_out)]
        ) == 0
        capsys.readouterr()
        sharded_out = tmp_path / "sharded.json"
        assert main(
            self._explore_argv(tmp_path / "run.jsonl")
            + ["--shards", "2", "--output", str(sharded_out)]
        ) == 0
        err = capsys.readouterr().err
        assert "shard 1/2" in err and "shard 2/2" in err
        assert solo_out.read_bytes() == sharded_out.read_bytes()
        shard_stores = sorted(tmp_path.glob("run.shard-*-of-2.jsonl"))
        assert [path.name for path in shard_stores] == [
            "run.shard-0-of-2.jsonl", "run.shard-1-of-2.jsonl",
        ]
        # The merged union frontier of the shard stores, via the frontier
        # command, is the same bytes again.
        frontier_out = tmp_path / "frontier.json"
        argv = ["frontier", "--format", "json", "--output", str(frontier_out)]
        for path in shard_stores:
            argv += ["--store", str(path)]
        assert main(argv) == 0
        assert "merged" in capsys.readouterr().err
        assert frontier_out.read_bytes() == solo_out.read_bytes()

    def test_shard_index_runs_one_shard_and_hints_the_merge(self, tmp_path, capsys):
        assert main(
            self._explore_argv(
                tmp_path / "run.jsonl",
                ["--shards", "2", "--shard-index", "0"],
            )
        ) in (0, 1)  # one shard's own front may be empty
        err = capsys.readouterr().err
        assert "shard 1/2" in err or "shard 0" in err.replace("1/2", "")
        assert "repro frontier" in err and "--store" in err
        assert (tmp_path / "run.shard-0-of-2.jsonl").exists()
        assert not (tmp_path / "run.shard-1-of-2.jsonl").exists()

    def test_sharded_refuses_existing_store_then_resumes(self, tmp_path, capsys):
        argv = self._explore_argv(tmp_path / "run.jsonl", ["--shards", "2"])
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "0 flow" in err

    def test_sharded_rejects_adaptive_strategy(self, tmp_path, capsys):
        code = main([
            "explore", "--workload", "matmul_pipeline", "--strategy", "anneal",
            "--budget", "4", "--partitioners", "list", "--ct-sweep", "1",
            "--store", str(tmp_path / "run.jsonl"), "--shards", "2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot be sharded" in err

    def test_shard_flag_validation(self, tmp_path, capsys):
        base = [
            "explore", "--workload", "matmul_pipeline", "--budget", "2",
            "--partitioners", "list", "--ct-sweep", "1",
            "--store", str(tmp_path / "run.jsonl"),
        ]
        assert main(base + ["--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(base + ["--shards", "2", "--shard-index", "2"]) == 2
        assert "--shard-index" in capsys.readouterr().err

    def test_frontier_store_rejects_mixed_contexts(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(self._explore_argv(a)) == 0
        assert main(self._explore_argv(b, ["--eval-blocks", "999"])) == 0
        capsys.readouterr()
        code = main(["frontier", "--store", str(a), "--store", str(b)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "context" in err
        # The refusal names exactly which context field disagrees, with
        # both values, so a two-machine operator can see what to fix.
        assert "mismatching field(s)" in err
        assert "eval_blocks" in err and "999" in err

    def test_frontier_without_store_is_the_paper_report(self, capsys):
        assert main(["frontier"]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out.lower() or "Pareto" in out


class TestSchedulerCli:
    """Argument handling of ``repro schedule`` / ``repro explore --scheduler``."""

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.ranges == 16
        assert args.lease_timeout == 30.0
        assert args.port == 8788
        assert args.flow_workers == 0

    def test_schedule_rejects_adaptive_strategies_at_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--strategy", "anneal"])

    def test_schedule_rejects_zero_ranges(self, tmp_path, capsys):
        code = main([
            "schedule", "--workload", "matmul_pipeline", "--budget", "2",
            "--partitioners", "list", "--ct-sweep", "1",
            "--store", str(tmp_path / "run.jsonl"), "--ranges", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "range" in err

    def test_worker_reports_an_unreachable_scheduler_cleanly(self, capsys):
        # Nothing listens on this port: the worker must exit 2 with a
        # readable transport error, not a traceback.
        code = main([
            "explore", "--scheduler", "http://127.0.0.1:9/",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
