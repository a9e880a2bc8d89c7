"""Tests for the differential verification subsystem (repro.verify).

The heart of this file is the fault-injection suite: every oracle is handed
artifacts with one deliberately injected defect and must catch it — an
oracle that cannot fail is not an oracle.  Around that sit scenario-
generator determinism, harness/shrink behaviour, byte-identical verdict
stores, workload-catalog registration and the ``repro verify`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import SpecificationError, WorkloadError
from repro.arch import generic_system
from repro.fission.strategies import TimingBreakdown
from repro.memmap import build_memory_map
from repro.partition.result import TemporalPartitioning
from repro.runtime.engine import EngineConfig
from repro.synth.flow_engine import FlowEngine, FlowJob, FlowReport
from repro.synth.stages import graph_content_digest
from repro.verify import (
    ALL_FAMILIES,
    FAMILIES,
    HUGE_FAMILY,
    FeasibilityOracle,
    IlpNotWorseOracle,
    KPathsOracle,
    MemoryLegalityOracle,
    Oracle,
    PartitionValidityOracle,
    Scenario,
    ScenarioArtifacts,
    TimingModelOracle,
    Verifier,
    VerifyConfig,
    WarmColdOracle,
    build_family_graph,
    design_fingerprint,
    generate_scenario,
    generate_scenarios,
    read_verdicts,
)

#: A scenario every partitioner solves comfortably: a 6-stage chain on a
#: 500-CLB board (tasks are 20-300 CLBs, so 2+ partitions are forced).
FEASIBLE = Scenario(
    family="chain",
    seed=1,
    task_count=6,
    clb_capacity=500,
    memory_words=4096,
    reconfiguration_time=0.005,
)


def build_artifacts(tmp_path, scenario=FEASIBLE, blocks=129) -> ScenarioArtifacts:
    """Cold ILP+list flows plus a warm ILP re-run, like the harness builds."""
    graph = scenario.build_graph()
    system = scenario.build_system()
    jobs = [
        FlowJob(graph=graph, system=system,
                options=scenario.flow_options(partitioner),
                tag=f"{scenario.name}@{partitioner}")
        for partitioner in ("ilp", "list")
    ]
    cold = FlowEngine(config=EngineConfig(cache_dir=tmp_path)).run_batch(jobs)
    warm = FlowEngine(config=EngineConfig(cache_dir=tmp_path)).run_batch(jobs)
    return ScenarioArtifacts(
        scenario=scenario,
        system=system,
        graph=graph,
        ilp_report=cold[0],
        list_report=cold[1],
        warm_ilp_report=warm[0],
        blocks=blocks,
    )


def failed_partition_report(job) -> FlowReport:
    """A structured partition-stage failure, as the flow engine reports it."""
    return FlowReport(
        job=job,
        failed_stage="partition",
        error="no feasible temporal partitioning exists",
        error_kind="PartitioningError",
    )


def singleton_partitioning(partitioning) -> TemporalPartitioning:
    """Every task in its own partition, in dependency order (valid but worse)."""
    graph = partitioning.graph
    order = graph.topological_order()
    return TemporalPartitioning(
        graph=graph,
        assignment={name: index + 1 for index, name in enumerate(order)},
        partition_count=len(order),
        reconfiguration_time=partitioning.reconfiguration_time,
        method="singleton",
    )


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

class TestScenarioGeneration:
    def test_same_recipe_builds_the_same_graph(self):
        first = build_family_graph("layered", 77, 9)
        second = build_family_graph("layered", 77, 9)
        assert graph_content_digest(first) == graph_content_digest(second)

    def test_different_seeds_build_different_graphs(self):
        assert graph_content_digest(build_family_graph("layered", 1, 9)) != (
            graph_content_digest(build_family_graph("layered", 2, 9))
        )

    def test_generate_scenarios_is_deterministic(self):
        assert generate_scenarios(12, 5) == generate_scenarios(12, 5)
        assert generate_scenarios(12, 5) != generate_scenarios(12, 6)

    def test_round_robin_covers_every_family(self):
        families = {s.family for s in generate_scenarios(len(FAMILIES), 0)}
        assert families == set(FAMILIES)

    def test_every_generated_graph_validates(self):
        for scenario in generate_scenarios(30, 3):
            graph = scenario.build_graph()
            assert len(graph) == scenario.task_count
            assert all(task.has_cost for task in graph.tasks())

    def test_degenerate_family_is_never_connected(self):
        # Single nodes, disconnected chain pairs or edge-free graphs only.
        for seed in range(12):
            for count in (1, 2, 4, 6):
                graph = build_family_graph("degenerate", seed, count)
                assert graph.edge_count() <= max(0, count - 2)

    def test_degenerate_single_node(self):
        graph = build_family_graph("degenerate", 0, 1)
        assert len(graph) == 1 and graph.edge_count() == 0

    def test_chain_is_a_chain(self):
        graph = build_family_graph("chain", 9, 7)
        assert len(graph) == 7 and graph.edge_count() == 6

    def test_diamond_has_exact_task_counts_even_below_one_motif(self):
        for count in (1, 2, 3, 4, 5, 7, 10):
            graph = build_family_graph("diamond", 5, count)
            assert len(graph) == count

    def test_scenario_json_roundtrip(self):
        scenario = generate_scenario(4, 99)
        assert Scenario.from_json_dict(scenario.to_json_dict()) == scenario

    def test_with_task_count_keeps_the_system(self):
        smaller = FEASIBLE.with_task_count(2)
        assert smaller.task_count == 2
        assert smaller.clb_capacity == FEASIBLE.clb_capacity
        assert smaller.memory_words == FEASIBLE.memory_words

    def test_unknown_family_rejected(self):
        with pytest.raises(WorkloadError):
            build_family_graph("moebius", 0, 4)
        with pytest.raises(WorkloadError):
            generate_scenario(0, 0, families=("moebius",))
        with pytest.raises(WorkloadError):
            generate_scenario(0, 0, family="moebius")

    def test_zero_tasks_rejected(self):
        with pytest.raises(SpecificationError):
            build_family_graph("chain", 0, 0)


class TestWorkloadCatalog:
    def test_families_are_registered_workloads(self):
        from repro.workloads import workload_names

        names = workload_names()
        for family in FAMILIES:
            assert f"verify_{family}" in names

    def test_registry_builder_matches_the_family_builder(self):
        from repro.workloads import get_workload

        workload = get_workload("verify_chain")
        graph = workload.build_graph(seed=2)
        expected = build_family_graph(
            "chain", 2, workload.default_params["task_count"]
        )
        assert graph_content_digest(graph) == graph_content_digest(expected)

    def test_seed_sweep_expands_variants(self):
        from repro.workloads import get_workload

        variants = get_workload("verify_diamond").variants()
        assert len(variants) == 4
        assert {v.params["seed"] for v in variants} == {0, 1, 2, 3}

    def test_workloads_list_shows_the_families(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for family in FAMILIES:
            assert f"verify_{family}" in out


# ---------------------------------------------------------------------------
# The opt-in huge scale family
# ---------------------------------------------------------------------------

class TestHugeScaleFamily:
    def test_huge_family_is_opt_in(self):
        assert HUGE_FAMILY not in FAMILIES
        assert ALL_FAMILIES == FAMILIES + (HUGE_FAMILY,)
        # The default round-robin stream never draws it.
        assert all(s.family != HUGE_FAMILY for s in generate_scenarios(15, 0))

    def test_huge_scenarios_get_loose_budgets_and_a_multilevel_primary(self):
        for index in range(3):
            scenario = generate_scenario(index, 0, families=(HUGE_FAMILY,))
            assert scenario.family == HUGE_FAMILY
            assert 300 <= scenario.task_count <= 800
            assert scenario.memory_profile == "loose"
            assert scenario.primary_partitioner == "multilevel"
            assert scenario.implementations() == ("multilevel", "list")

    def test_small_families_keep_the_exact_primary(self):
        assert FEASIBLE.primary_partitioner == "ilp"
        assert FEASIBLE.implementations() == ("ilp", "list")

    def test_huge_graphs_build_deterministically(self):
        scenario = generate_scenario(0, 0, families=(HUGE_FAMILY,))
        graph = scenario.build_graph()
        assert len(graph) == scenario.task_count
        assert all(task.has_cost for task in graph.tasks())
        assert graph_content_digest(graph) == (
            graph_content_digest(scenario.build_graph())
        )

    def test_huge_family_shrinks_to_tiny_graphs(self):
        # The shrinker rebuilds failing scenarios at smaller node counts,
        # so the builder must stay well-defined down to one task.
        for count in (1, 2, 5):
            assert len(build_family_graph(HUGE_FAMILY, 3, count)) == count

    def test_verify_huge_workload_registered(self):
        from repro.workloads import get_workload

        workload = get_workload(f"verify_{HUGE_FAMILY}")
        assert "huge" in workload.tags
        assert workload.flow_options().partitioner == "multilevel"

    def test_huge_end_to_end_run_is_green_and_byte_stable(self, tmp_path):
        for name in ("a", "b"):
            report = Verifier(
                VerifyConfig(scenarios=1, seed=0, families=(HUGE_FAMILY,),
                             store_path=tmp_path / f"{name}.jsonl")
            ).run()
            assert report.ok
            record = report.records[0]
            assert record.scenario.family == HUGE_FAMILY
            skipped = [v for v in record.verdicts if v.status == "skip"]
            assert [v.oracle for v in skipped] == ["ilp-not-worse"]
        assert (tmp_path / "a.jsonl").read_bytes() == (
            (tmp_path / "b.jsonl").read_bytes()
        )


# ---------------------------------------------------------------------------
# Fault injection: every oracle must catch its deliberately broken input
# ---------------------------------------------------------------------------

class TestOracleFaultInjection:
    def test_clean_artifacts_pass_every_oracle(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        for oracle in (IlpNotWorseOracle(), FeasibilityOracle(),
                       TimingModelOracle(), WarmColdOracle(),
                       MemoryLegalityOracle(), PartitionValidityOracle(),
                       KPathsOracle()):
            verdict = oracle.check(artifacts)
            assert verdict.status == "pass", (oracle.name, verdict.detail)

    def test_ilp_not_worse_catches_a_beaten_ilp(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        design = artifacts.ilp_report.design
        worse = singleton_partitioning(design.partitioning)
        assert worse.total_latency > artifacts.list_report.design.partitioning.total_latency
        tampered = replace(
            artifacts.ilp_report,
            design=replace(design, partitioning=worse),
        )
        artifacts.ilp_report = tampered
        verdict = IlpNotWorseOracle().check(artifacts)
        assert verdict.failed
        assert "beaten by" in verdict.detail
        assert verdict.data["ilp_latency"] > verdict.data["list_latency"]

    def test_feasibility_catches_an_ilp_that_misses_a_feasible_instance(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        artifacts.ilp_report = failed_partition_report(artifacts.ilp_report.job)
        verdict = FeasibilityOracle().check(artifacts)
        assert verdict.failed
        assert "exact ILP reports the instance infeasible" in verdict.detail

    def test_feasibility_catches_an_ilp_solving_a_provably_infeasible_instance(
        self, tmp_path
    ):
        artifacts = build_artifacts(tmp_path)
        artifacts.list_report = failed_partition_report(artifacts.list_report.job)
        # Shrink the device below every task: infeasibility is now *certified*,
        # so an ILP claiming success is lying.
        artifacts.system = generic_system(clb_capacity=10, memory_words=4096)
        verdict = FeasibilityOracle().check(artifacts)
        assert verdict.failed
        assert "provably infeasible" in verdict.detail

    def test_feasibility_tolerates_a_heuristic_dead_end(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        artifacts.list_report = failed_partition_report(artifacts.list_report.job)
        verdict = FeasibilityOracle().check(artifacts)
        assert verdict.status == "pass"
        assert "dead-ended" in verdict.detail

    def test_timing_oracle_catches_a_tampered_timing_spec(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        design = artifacts.ilp_report.design
        spec = design.timing_spec
        doubled = replace(
            spec, partition_delays=[delay * 2 for delay in spec.partition_delays]
        )
        artifacts.ilp_report = replace(
            artifacts.ilp_report, design=replace(design, timing_spec=doubled)
        )
        verdict = TimingModelOracle().check(artifacts)
        assert verdict.failed
        assert "differs from a recomputation" in verdict.detail

    def test_timing_oracle_catches_a_drifting_analytic_model(self, tmp_path, monkeypatch):
        artifacts = build_artifacts(tmp_path)

        def drifting(strategy, spec, total, system, include_transfers=True):
            return TimingBreakdown(label="drifting", computation=1234.5)

        monkeypatch.setattr("repro.verify.oracles.execution_time", drifting)
        verdict = TimingModelOracle().check(artifacts)
        assert verdict.failed
        assert "disagrees with the event simulator" in verdict.detail

    def test_warm_cold_catches_a_diverged_warm_design(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        warm_design = artifacts.warm_ilp_report.design
        diverged = replace(
            warm_design,
            partitioning=singleton_partitioning(warm_design.partitioning),
        )
        artifacts.warm_ilp_report = replace(
            artifacts.warm_ilp_report, design=diverged
        )
        verdict = WarmColdOracle().check(artifacts)
        assert verdict.failed
        assert verdict.data["cold_fingerprint"] != verdict.data["warm_fingerprint"]

    def test_warm_cold_catches_a_success_mismatch(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        artifacts.warm_ilp_report = failed_partition_report(
            artifacts.warm_ilp_report.job
        )
        verdict = WarmColdOracle().check(artifacts)
        assert verdict.failed
        assert "disagree on success" in verdict.detail

    def test_memory_legality_catches_a_bank_overflow(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        # The design was sized for 4096 words; a 4-word bank cannot hold its
        # boundaries (nor k copies of the per-iteration block).
        artifacts.system = generic_system(clb_capacity=500, memory_words=4)
        verdict = MemoryLegalityOracle().check(artifacts)
        assert verdict.failed
        assert "exceeding" in verdict.detail

    def test_memory_legality_catches_an_unmapped_edge(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        design = artifacts.ilp_report.design
        # A memory map built for a *different* partitioning leaves this
        # design's cut edges unmapped (wrong blocks, wrong live sets).
        foreign = build_memory_map(singleton_partitioning(design.partitioning))
        artifacts.ilp_report = replace(
            artifacts.ilp_report, design=replace(design, memory_map=foreign)
        )
        verdict = MemoryLegalityOracle().check(artifacts)
        assert verdict.failed

    def test_partition_validity_catches_a_precedence_violation(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        design = artifacts.ilp_report.design
        graph = design.partitioning.graph
        order = graph.topological_order()
        backwards = TemporalPartitioning(
            graph=graph,
            assignment={
                name: len(order) - index for index, name in enumerate(order)
            },
            partition_count=len(order),
            reconfiguration_time=design.partitioning.reconfiguration_time,
            method="backwards",
        )
        artifacts.ilp_report = replace(
            artifacts.ilp_report, design=replace(design, partitioning=backwards)
        )
        verdict = PartitionValidityOracle().check(artifacts)
        assert verdict.failed
        assert "temporal order violated" in verdict.detail

    def test_ilp_not_worse_skips_for_a_heuristic_primary(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        artifacts.primary_partitioner = "multilevel"
        assert not artifacts.primary_is_exact
        verdict = IlpNotWorseOracle().check(artifacts)
        assert verdict.status == "skip"
        assert "no never-beaten optimality claim" in verdict.detail

    def test_feasibility_tolerates_a_heuristic_primary_dead_end(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        artifacts.primary_partitioner = "multilevel"
        artifacts.ilp_report = failed_partition_report(artifacts.ilp_report.job)
        verdict = FeasibilityOracle().check(artifacts)
        assert verdict.status == "pass"
        assert "dead-ended on an instance the list scheduler solved" in verdict.detail
        assert verdict.data["list_partitions"] >= 1

    def test_kpaths_oracle_catches_a_broken_top1(self, tmp_path, monkeypatch):
        from repro.taskgraph import k_longest_path_delays as real

        artifacts = build_artifacts(tmp_path)
        monkeypatch.setattr(
            "repro.verify.oracles.k_longest_path_delays",
            lambda graph, k: [delay * 2 for delay in real(graph, k)],
        )
        verdict = KPathsOracle().check(artifacts)
        assert verdict.failed
        assert "critical-path DP" in verdict.detail

    def test_kpaths_oracle_catches_a_drifting_tail(self, tmp_path, monkeypatch):
        from repro.taskgraph import count_root_to_leaf_paths
        from repro.taskgraph import k_longest_path_delays as real

        artifacts = build_artifacts(tmp_path)
        # The feasible chain has a single path; swap in a reconvergent graph
        # so the multiset comparison has a tail to drift.
        artifacts.graph = build_family_graph("layered", 0, 10)
        assert count_root_to_leaf_paths(artifacts.graph) > 1

        def drifting(graph, k):
            delays = real(graph, k)
            # Top-1 intact (passes the critical-path cross-check), the rest
            # off by one ulp-scale factor — exactly the bug class the
            # bitwise multiset comparison exists to catch.
            return delays[:1] + [delay * (1 + 1e-12) for delay in delays[1:]]

        monkeypatch.setattr("repro.verify.oracles.k_longest_path_delays", drifting)
        verdict = KPathsOracle().check(artifacts)
        assert verdict.failed
        assert "diverge from enumeration" in verdict.detail
        assert verdict.data["rank"] >= 1

    def test_kpaths_oracle_skips_enumeration_past_the_budget(self, tmp_path, monkeypatch):
        artifacts = build_artifacts(tmp_path)
        monkeypatch.setattr("repro.verify.oracles.KPATHS_ENUM_LIMIT", 0)
        verdict = KPathsOracle().check(artifacts)
        assert verdict.status == "pass"
        assert "enumeration budget" in verdict.detail
        assert verdict.data["path_count"] >= 1

    def test_design_fingerprint_is_content_sensitive(self, tmp_path):
        artifacts = build_artifacts(tmp_path)
        design = artifacts.ilp_report.design
        assert design_fingerprint(design) == design_fingerprint(design)
        tampered = replace(
            design, partitioning=singleton_partitioning(design.partitioning)
        )
        assert design_fingerprint(design) != design_fingerprint(tampered)
        assert design_fingerprint(None) == ""


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

class _FailsOnBigGraphs(Oracle):
    """A synthetic oracle failing whenever the graph has >= 4 tasks."""

    name = "big-graph"

    def check(self, artifacts):
        from repro.verify.oracles import FAIL, PASS, OracleVerdict

        count = len(artifacts.ilp_report.job.graph)
        status = FAIL if count >= 4 else PASS
        return OracleVerdict(
            oracle=self.name, status=status, detail=f"{count} tasks"
        )


class TestVerifier:
    def test_small_run_passes_every_oracle(self):
        report = Verifier(VerifyConfig(scenarios=6, seed=0)).run()
        assert report.ok
        assert len(report.records) == 6
        assert report.scenarios_per_second > 0
        counts = report.oracle_counts()
        assert set(counts) == {o.name for o in Verifier(
            VerifyConfig(scenarios=1)).oracles}
        for record in report.records:
            assert record.fingerprint == record.scenario.fingerprint()

    def test_verdict_store_is_byte_deterministic(self, tmp_path):
        for name in ("a", "b"):
            report = Verifier(
                VerifyConfig(scenarios=5, seed=11, store_path=tmp_path / f"{name}.jsonl")
            ).run()
            assert report.ok
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_different_seeds_write_different_stores(self, tmp_path):
        for seed in (0, 1):
            Verifier(
                VerifyConfig(scenarios=3, seed=seed,
                             store_path=tmp_path / f"s{seed}.jsonl")
            ).run()
        assert (tmp_path / "s0.jsonl").read_bytes() != (tmp_path / "s1.jsonl").read_bytes()

    def test_store_records_are_readable_counterexample_recipes(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        Verifier(VerifyConfig(scenarios=3, seed=0, store_path=path)).run()
        records = list(read_verdicts(path))
        assert records[0]["kind"] == "meta"
        assert records[0]["scenarios"] == 3
        scenario_records = [r for r in records if r.get("kind") == "scenario"]
        assert len(scenario_records) == 3
        rebuilt = Scenario.from_json_dict(scenario_records[0]["scenario"])
        rebuilt.build_graph().validate()

    def test_read_verdicts_rejects_corrupt_and_mismatched_stores(self, tmp_path):
        from repro.errors import ReproError

        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"kind":"meta"\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match="corrupt verdict store"):
            list(read_verdicts(corrupt))
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('{"kind":"meta","version":999}\n', encoding="utf-8")
        with pytest.raises(ReproError, match="schema version"):
            list(read_verdicts(wrong))
        with pytest.raises(ReproError, match="cannot read"):
            list(read_verdicts(tmp_path / "missing.jsonl"))
        # A byte that is not UTF-8 is a corrupt line too, with its number.
        undecodable = tmp_path / "undecodable.jsonl"
        undecodable.write_bytes(b'{"kind":"meta","version":1}\n\xff\xfe\n')
        with pytest.raises(ReproError, match="corrupt verdict store .* at line 2"):
            list(read_verdicts(undecodable))
        # So is a line that is JSON but not an object.
        scalar = tmp_path / "scalar.jsonl"
        scalar.write_text('{"kind":"meta","version":1}\n42\n', encoding="utf-8")
        with pytest.raises(ReproError, match="corrupt verdict store .* at line 2"):
            list(read_verdicts(scalar))

    def test_failing_scenarios_are_shrunk_to_smaller_node_counts(self):
        # Find a chain scenario with a comfortably shrinkable task count.
        seed = next(
            s for s in range(50)
            if generate_scenario(0, s, families=("chain",)).task_count >= 6
        )
        config = VerifyConfig(scenarios=1, seed=seed, families=("chain",))
        report = Verifier(config, oracles=[_FailsOnBigGraphs()]).run()
        record = report.records[0]
        assert not record.ok
        assert record.failed_oracles() == ["big-graph"]
        assert record.shrunk is not None
        # The ladder tries 1, 2, 3, 4, ...; the oracle fails from 4 tasks on.
        assert record.shrunk["task_count"] == 4
        assert record.shrunk["oracles"] == ["big-graph"]
        shrunk = Scenario.from_json_dict(record.shrunk["scenario"])
        assert shrunk.task_count == 4
        assert shrunk.clb_capacity == record.scenario.clb_capacity

    def test_shrink_can_be_disabled(self):
        config = VerifyConfig(
            scenarios=1, seed=3, families=("chain",), shrink=False
        )
        report = Verifier(config, oracles=[_FailsOnBigGraphs()]).run()
        for record in report.records:
            assert record.shrunk is None

    def test_config_validation(self):
        with pytest.raises(SpecificationError, match="at least 1"):
            VerifyConfig(scenarios=0)
        with pytest.raises(WorkloadError, match="unknown scenario family"):
            VerifyConfig(scenarios=1, families=("nope",))
        with pytest.raises(SpecificationError):
            VerifyConfig(scenarios=1, families=())
        with pytest.raises(SpecificationError):
            VerifyConfig(scenarios=1, workers=-1)
        with pytest.raises(SpecificationError):
            VerifyConfig(scenarios=1, blocks=0)
        with pytest.raises(SpecificationError):
            Verifier(VerifyConfig(scenarios=1), scenarios=2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestVerifyCli:
    def test_verify_smoke_table(self, capsys):
        assert main(["verify", "--scenarios", "5", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert "Differential verification" in captured.out
        assert "all oracles passed" in captured.err

    def test_verify_json_rows(self, capsys):
        assert main([
            "verify", "--scenarios", "5", "--seed", "0", "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 5
        assert all(row["status"] == "ok" for row in rows)
        assert {row["family"] for row in rows} == set(FAMILIES)

    def test_verify_store_is_deterministic_across_invocations(self, tmp_path, capsys):
        paths = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
        for path in paths:
            assert main([
                "verify", "--scenarios", "4", "--seed", "7",
                "--store", str(path), "--format", "csv",
            ]) == 0
            capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify_families_filter(self, capsys):
        assert main([
            "verify", "--scenarios", "3", "--families", "chain,degenerate",
            "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["family"] for row in rows} <= {"chain", "degenerate"}

    def test_flow_runs_a_verify_workload(self, capsys):
        assert main(["flow", "--workload", "verify_chain"]) == 0
        assert "host sequencing code" in capsys.readouterr().out
