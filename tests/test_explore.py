"""Tests for the design-space exploration subsystem (repro.explore)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExplorationError
from repro.explore import (
    OBJECTIVES,
    DesignPoint,
    ExploreConfig,
    Explorer,
    ParetoFront,
    PointRecord,
    RunStore,
    Scalariser,
    SearchSpace,
    default_store_path,
    dominates,
    make_strategy,
    objective_vector,
    resolve_objectives,
    strategy_names,
)
from repro.explore.space import WORKLOAD_DEFAULT_SYSTEM
from repro.units import ms

#: A cheap space: heuristic partitioners only, one small workload.
CHEAP_SPACE = SearchSpace.for_workloads(
    ["matmul_pipeline"],
    ct_values=(ms(1), ms(5), ms(20)),
    partitioners=("list", "level"),
    sequencings=("fdh", "idh"),
)

TWO_OBJECTIVES = resolve_objectives(("latency", "throughput"))


def cheap_config(**overrides) -> ExploreConfig:
    defaults = dict(strategy="grid", budget=CHEAP_SPACE.size, batch_size=4)
    defaults.update(overrides)
    return ExploreConfig(**defaults)


# ---------------------------------------------------------------------------
# SearchSpace / DesignPoint
# ---------------------------------------------------------------------------

class TestSearchSpace:
    def test_size_and_enumeration(self):
        points = list(CHEAP_SPACE.enumerate())
        assert len(points) == CHEAP_SPACE.size == 1 * 1 * 3 * 2 * 2
        assert len({point.fingerprint() for point in points}) == len(points)

    def test_index_roundtrip(self):
        for index, point in enumerate(CHEAP_SPACE.enumerate()):
            assert CHEAP_SPACE.index_of(point) == index
            assert CHEAP_SPACE.point_at(index) == point

    def test_point_fingerprint_is_order_independent(self):
        a = DesignPoint.create("w", params={"a": 1, "b": 2.5})
        b = DesignPoint.create("w", params={"b": 2.5, "a": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_point_json_roundtrip(self):
        point = CHEAP_SPACE.point_at(5)
        clone = DesignPoint.from_json_dict(point.to_json_dict())
        assert clone == point
        assert clone.fingerprint() == point.fingerprint()

    def test_out_of_range_index_raises(self):
        with pytest.raises(ExplorationError):
            CHEAP_SPACE.point_at(CHEAP_SPACE.size)

    def test_foreign_point_raises(self):
        foreign = DesignPoint.create("matmul_pipeline", ct=ms(999))
        with pytest.raises(ExplorationError):
            CHEAP_SPACE.index_of(foreign)

    def test_empty_axis_rejected(self):
        with pytest.raises(ExplorationError):
            SearchSpace(workloads=(("w", ()),), partitioners=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ExplorationError):
            SearchSpace(workloads=(("w", ()),), partitioners=("ilp", "ilp"))

    def test_unknown_sequencing_rejected_up_front(self):
        # Sequencing is consumed only deep inside objective evaluation; a
        # bad value must fail at space construction, not after flow work.
        with pytest.raises(ExplorationError, match="sequencing"):
            SearchSpace(workloads=(("w", ()),), sequencings=("idh", "nope"))

    def test_sampling_is_seed_deterministic(self):
        draw = lambda: [  # noqa: E731
            CHEAP_SPACE.random_point(random.Random(42)) for _ in range(5)
        ]
        assert draw() == draw()

    def test_neighbours_differ_in_one_axis(self):
        rng = random.Random(0)
        point = CHEAP_SPACE.point_at(0)
        for neighbour in CHEAP_SPACE.neighbours(point, rng, count=6):
            assert neighbour != point
            coordinates = CHEAP_SPACE.coordinates_of(point)
            other = CHEAP_SPACE.coordinates_of(neighbour)
            assert sum(1 for a, b in zip(coordinates, other) if a != b) == 1

    def test_singleton_space_has_no_neighbours(self):
        space = SearchSpace(workloads=(("w", ()),))
        point = space.point_at(0)
        assert space.neighbours(point, random.Random(0), count=3) == []

    def test_space_fingerprint_stable(self):
        clone = SearchSpace.for_workloads(
            ["matmul_pipeline"],
            ct_values=(ms(1), ms(5), ms(20)),
            partitioners=("list", "level"),
            sequencings=("fdh", "idh"),
        )
        assert clone.fingerprint() == CHEAP_SPACE.fingerprint()


# ---------------------------------------------------------------------------
# Dominance laws (property tests) and the Pareto front
# ---------------------------------------------------------------------------

vectors = st.tuples(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestDominance:
    @given(vectors)
    def test_irreflexive(self, a):
        assert not dominates(a, a, TWO_OBJECTIVES)

    @given(vectors, vectors)
    def test_antisymmetric(self, a, b):
        if dominates(a, b, TWO_OBJECTIVES):
            assert not dominates(b, a, TWO_OBJECTIVES)

    @settings(max_examples=200)
    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        if dominates(a, b, TWO_OBJECTIVES) and dominates(b, c, TWO_OBJECTIVES):
            assert dominates(a, c, TWO_OBJECTIVES)

    def test_directions_respected(self):
        # latency minimises, throughput maximises.
        assert dominates((1.0, 10.0), (2.0, 5.0), TWO_OBJECTIVES)
        assert not dominates((2.0, 5.0), (1.0, 10.0), TWO_OBJECTIVES)
        assert not dominates((1.0, 5.0), (2.0, 10.0), TWO_OBJECTIVES)

    def test_length_mismatch_raises(self):
        with pytest.raises(ExplorationError):
            dominates((1.0,), (1.0, 2.0), TWO_OBJECTIVES)


def _record(name: str, latency: float, throughput: float) -> PointRecord:
    point = DesignPoint.create("w", params={"name": name})
    return PointRecord(
        fingerprint=point.fingerprint(),
        point=point,
        metrics={"latency": latency, "throughput": throughput},
    )


class TestParetoFront:
    def test_incremental_matches_brute_force(self):
        rng = random.Random(7)
        records = [
            _record(str(index), rng.uniform(0, 10), rng.uniform(0, 10))
            for index in range(60)
        ]
        front = ParetoFront(TWO_OBJECTIVES)
        for record in records:
            front.add(record.point, record.metrics, record.fingerprint)
        surviving = {entry.fingerprint for entry in front.entries()}
        expected = set()
        for record in records:
            vector = objective_vector(record.metrics, TWO_OBJECTIVES)
            others = (
                objective_vector(other.metrics, TWO_OBJECTIVES)
                for other in records
                if other is not record
            )
            if not any(dominates(o, vector, TWO_OBJECTIVES) for o in others):
                expected.add(record.fingerprint)
        assert surviving == expected

    def test_dominated_insertion_rejected(self):
        front = ParetoFront(TWO_OBJECTIVES)
        assert front.add(*_split(_record("good", 1.0, 10.0)))
        assert not front.add(*_split(_record("bad", 2.0, 5.0)))
        assert len(front) == 1

    def test_insertion_evicts_dominated(self):
        front = ParetoFront(TWO_OBJECTIVES)
        front.add(*_split(_record("old", 2.0, 5.0)))
        assert front.add(*_split(_record("better", 1.0, 10.0)))
        assert len(front) == 1
        assert front.entries()[0].metrics["latency"] == 1.0

    def test_objective_ties_coexist(self):
        front = ParetoFront(TWO_OBJECTIVES)
        front.add(*_split(_record("a", 1.0, 10.0)))
        front.add(*_split(_record("b", 1.0, 10.0)))
        assert len(front) == 2

    def test_entries_sorted_by_fingerprint(self):
        front = ParetoFront(TWO_OBJECTIVES)
        front.add(*_split(_record("b", 1.0, 10.0)))
        front.add(*_split(_record("a", 1.0, 10.0)))
        fingerprints = [entry.fingerprint for entry in front.entries()]
        assert fingerprints == sorted(fingerprints)


def _split(record: PointRecord):
    return record.point, record.metrics, record.fingerprint


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

class TestObjectives:
    def test_registry_contents(self):
        assert set(OBJECTIVES) == {"latency", "area", "overhead", "throughput"}

    def test_resolve_unknown_raises(self):
        with pytest.raises(ExplorationError):
            resolve_objectives(("latency", "nope"))

    def test_resolve_duplicate_raises(self):
        with pytest.raises(ExplorationError):
            resolve_objectives(("latency", "latency"))

    def test_objective_values_are_sane(self):
        result = Explorer(CHEAP_SPACE, config=cheap_config(
            objectives=("latency", "area", "overhead", "throughput")
        )).run()
        assert result.ok
        for record in result.records:
            assert record.metrics["latency"] > 0
            assert 0 < record.metrics["area"] <= 1
            assert 0 <= record.metrics["overhead"] < 1
            assert record.metrics["throughput"] > 0


# ---------------------------------------------------------------------------
# Run store
# ---------------------------------------------------------------------------

class TestRunStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record = _record("x", 1.0, 2.0)
        with RunStore(path, "space-fp") as store:
            store.record(record)
        with RunStore(path, "space-fp") as reloaded:
            assert len(reloaded) == 1
            loaded = reloaded.get(record.fingerprint)
            assert loaded is not None
            assert loaded.metrics == record.metrics
            assert loaded.point == record.point
            assert loaded.source == "store"

    def test_record_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record = _record("x", 1.0, 2.0)
        with RunStore(path, "fp") as store:
            store.record(record)
            store.record(record)
        assert len(path.read_text().splitlines()) == 2  # meta + one record

    def test_truncated_trailing_line_is_healed(self, tmp_path):
        """A partial trailing line is truncated away, and appends after the
        resume land on a clean line boundary (no gluing onto the stub)."""
        path = tmp_path / "run.jsonl"
        with RunStore(path, "fp") as store:
            store.record(_record("x", 1.0, 2.0))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "interrupted')  # no newline, no close
        with RunStore(path, "fp") as reloaded:
            assert len(reloaded) == 1
            reloaded.record(_record("y", 3.0, 4.0))
        # The store fully self-heals: a fresh open sees both intact records.
        with RunStore(path, "fp") as healed:
            assert len(healed) == 2
            assert healed.get(_record("y", 3.0, 4.0).fingerprint) is not None

    @pytest.mark.parametrize(
        "content", [b"", b'{"kind":"meta","version":1,"spa'],
        ids=["empty", "torn-meta"],
    )
    def test_resume_without_a_meta_line_writes_one_first(self, tmp_path, content):
        """A resumed store whose meta line never reached the disk gets one
        before its first record: the file then equals a fresh store."""
        fresh = tmp_path / "fresh.jsonl"
        with RunStore(fresh, "fp", context={"eval_blocks": 16384}) as store:
            store.record(_record("x", 1.0, 2.0))
        path = tmp_path / "run.jsonl"
        path.write_bytes(content)
        with RunStore(path, "fp", context={"eval_blocks": 16384}) as store:
            assert len(store) == 0
            store.record(_record("x", 1.0, 2.0))
        assert path.read_bytes() == fresh.read_bytes()

    def test_context_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path, "fp", context={"eval_blocks": 16384}):
            pass
        with pytest.raises(ExplorationError, match="stale metrics"):
            RunStore(path, "fp", context={"eval_blocks": 1024})
        # Same context (or none declared) resumes fine.
        with RunStore(path, "fp", context={"eval_blocks": 16384}):
            pass
        with RunStore(path, "fp"):
            pass

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "meta", "version": 999, "space": ""}\n')
        with pytest.raises(ExplorationError):
            RunStore(path, "fp")

    def test_fresh_run_truncates_without_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path, "fp") as store:
            store.record(_record("x", 1.0, 2.0))
        with RunStore(path, "fp", resume=False) as fresh:
            assert len(fresh) == 0

    def test_memory_store_needs_no_path(self):
        store = RunStore()
        store.record(_record("x", 1.0, 2.0))
        assert len(store) == 1

    def test_default_store_path_is_stable(self, tmp_path):
        a = default_store_path(CHEAP_SPACE, tmp_path)
        b = default_store_path(CHEAP_SPACE, tmp_path)
        assert a == b


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class TestStrategies:
    def test_registry(self):
        assert strategy_names() == ["anneal", "greedy", "grid", "random"]
        with pytest.raises(ExplorationError):
            make_strategy("nope", CHEAP_SPACE, TWO_OBJECTIVES, random.Random(0))

    def test_grid_covers_the_space_exactly_once(self):
        result = Explorer(CHEAP_SPACE, config=cheap_config()).run()
        assert result.visited == CHEAP_SPACE.size
        assert result.flow_evaluated == CHEAP_SPACE.size
        assert {record.fingerprint for record in result.records} == {
            point.fingerprint() for point in CHEAP_SPACE.enumerate()
        }

    def test_random_stops_when_space_is_exhausted(self):
        result = Explorer(
            CHEAP_SPACE,
            config=cheap_config(strategy="random", budget=CHEAP_SPACE.size + 20),
        ).run()
        assert result.visited == CHEAP_SPACE.size
        assert len({record.fingerprint for record in result.records}) == CHEAP_SPACE.size

    @pytest.mark.parametrize("strategy", ["greedy", "anneal"])
    def test_local_search_respects_budget(self, strategy):
        result = Explorer(
            CHEAP_SPACE, config=cheap_config(strategy=strategy, budget=10, seed=5)
        ).run()
        assert result.visited == 10
        assert len(result.front) >= 1

    def test_scalariser_failed_record_scores_infinite(self):
        scalariser = Scalariser(TWO_OBJECTIVES)
        failed = PointRecord(
            fingerprint="f", point=DesignPoint.create("w"), status="failed"
        )
        assert scalariser.score(failed) == float("inf")


# ---------------------------------------------------------------------------
# End-to-end determinism and resume
# ---------------------------------------------------------------------------

class TestDeterminismAndResume:
    @pytest.mark.parametrize("strategy", ["grid", "random", "greedy", "anneal"])
    def test_same_seed_same_budget_byte_identical(self, strategy, tmp_path):
        """Same seed + budget => byte-identical store and identical front."""
        outputs = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}.jsonl"
            with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
                result = Explorer(
                    CHEAP_SPACE,
                    config=cheap_config(strategy=strategy, budget=12, seed=9),
                    store=store,
                ).run()
            outputs.append((path.read_bytes(), result.front.to_json_dict()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_resumed_run_evaluates_zero_flow_jobs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = cheap_config(strategy="anneal", budget=15, seed=3)
        with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
            first = Explorer(CHEAP_SPACE, config=config, store=store).run()
        assert first.flow_evaluated > 0
        with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
            resumed = Explorer(CHEAP_SPACE, config=config, store=store).run()
        assert resumed.flow_evaluated == 0
        assert resumed.store_hits == resumed.visited == first.visited
        assert resumed.front.to_json_dict() == first.front.to_json_dict()

    def test_partial_store_resumes_mid_trajectory(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = cheap_config(strategy="grid", budget=CHEAP_SPACE.size)
        half = cheap_config(strategy="grid", budget=CHEAP_SPACE.size // 2)
        with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
            Explorer(CHEAP_SPACE, config=half, store=store).run()
        with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
            full = Explorer(CHEAP_SPACE, config=config, store=store).run()
        assert full.store_hits == CHEAP_SPACE.size // 2
        assert full.flow_evaluated == CHEAP_SPACE.size - CHEAP_SPACE.size // 2


# ---------------------------------------------------------------------------
# The exploration engine
# ---------------------------------------------------------------------------

class TestExplorer:
    def test_front_is_non_empty_and_mutually_non_dominated(self):
        result = Explorer(CHEAP_SPACE, config=cheap_config()).run()
        entries = result.front.entries()
        assert entries
        for a in entries:
            for b in entries:
                assert not dominates(
                    a.vector(result.front.objectives),
                    b.vector(result.front.objectives),
                    result.front.objectives,
                )

    def test_failed_points_are_recorded_not_fatal(self):
        # An unknown system preset is a deterministic, per-point
        # construction failure: recorded, never fatal to the batch.
        space = SearchSpace.for_workloads(
            ["matmul_pipeline"], systems=("no-such-system", WORKLOAD_DEFAULT_SYSTEM)
        )
        result = Explorer(
            space, config=ExploreConfig(strategy="grid", budget=space.size)
        ).run()
        assert result.visited == space.size
        assert result.failures == 1
        assert not result.ok
        failed = [record for record in result.records if not record.ok]
        assert failed[0].error_kind == "ArchitectureError"
        assert len(result.front) >= 1
        # The broken point never reached the flow engine.
        assert result.flow_evaluated == space.size - 1

    def test_transient_failures_are_not_persisted(self):
        from repro.explore import is_deterministic_failure

        deterministic = PointRecord(
            fingerprint="d", point=DesignPoint.create("w"),
            status="failed", error_kind="PartitioningError",
        )
        transient = PointRecord(
            fingerprint="t", point=DesignPoint.create("w"),
            status="failed", error_kind="TimeoutError",
        )
        assert is_deterministic_failure(deterministic)
        assert not is_deterministic_failure(transient)

    def test_deterministic_failures_are_persisted_and_resumed(self, tmp_path):
        space = SearchSpace.for_workloads(
            ["matmul_pipeline"], systems=("no-such-system", WORKLOAD_DEFAULT_SYSTEM)
        )
        path = tmp_path / "run.jsonl"
        config = ExploreConfig(strategy="grid", budget=space.size)
        with RunStore(path, space.fingerprint()) as store:
            Explorer(space, config=config, store=store).run()
        with RunStore(path, space.fingerprint()) as store:
            resumed = Explorer(space, config=config, store=store).run()
        # The ArchitectureError is deterministic: served from the store,
        # never retried.
        assert resumed.flow_evaluated == 0
        assert resumed.failures == 1

    def test_resume_under_a_different_objective_selection(self, tmp_path):
        """Records carry every registered objective, so a store recorded
        under one selection resumes cleanly under another."""
        path = tmp_path / "run.jsonl"
        with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
            Explorer(
                CHEAP_SPACE, config=cheap_config(objectives=("latency",)),
                store=store,
            ).run()
        with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
            result = Explorer(
                CHEAP_SPACE,
                config=cheap_config(objectives=("area", "overhead")),
                store=store,
            ).run()
        assert result.flow_evaluated == 0
        assert len(result.front) >= 1
        for entry in result.front.entries():
            assert {"latency", "area", "overhead", "throughput"} <= set(entry.metrics)

    def test_config_overrides_conflict_raises(self):
        with pytest.raises(ExplorationError):
            Explorer(CHEAP_SPACE, config=cheap_config(), budget=3)

    def test_result_rows_shape(self):
        result = Explorer(CHEAP_SPACE, config=cheap_config(budget=4)).run()
        rows = result.rows()
        assert len(rows) == 4
        assert set(rows[0]) == {
            "design", "status", "source", "latency", "throughput",
            "stage_cache_hits", "stage_sources", "error",
        }

    def test_default_system_resolves_per_workload(self):
        """The workload-default sentinel must resolve each workload's OWN
        board, however the resolution cache is warmed."""
        space = SearchSpace.for_workloads(["fir_filterbank", "matmul_pipeline"])
        explorer = Explorer(space, config=ExploreConfig(budget=1))
        from repro.workloads import get_workload

        for point in space.enumerate():
            resolved = explorer._system_for(point)
            expected = get_workload(point.workload).default_system()
            assert resolved.reconfiguration_time == expected.reconfiguration_time
            assert resolved.resource_capacity == expected.resource_capacity

    def test_workload_variants_expand_the_space(self):
        space = SearchSpace.for_workloads(["random_layered"], variants=True)
        from repro.workloads import get_workload

        assert len(space.workloads) == len(get_workload("random_layered").variants())


# ---------------------------------------------------------------------------
# The frontier experiment driver
# ---------------------------------------------------------------------------

class TestFrontier:
    def test_jpeg_dct_frontier_smoke(self):
        from repro.experiments.frontier import (
            format_frontier_table,
            jpeg_dct_frontier,
        )

        report = jpeg_dct_frontier(
            ct_values=(ms(10), ms(100)), partitioners=("list", "level")
        )
        assert report.result.ok
        assert len(report.result.front) >= 1
        # The paper's partitioner (ilp) is outside this reduced space, so
        # its point cannot be on the front; the comparison must still work.
        table = format_frontier_table(report)
        assert "Pareto front" in table
        assert report.describe()

    def test_paper_point_fingerprint_is_in_default_space(self):
        from repro.experiments.frontier import jpeg_dct_space, paper_design_point

        space = jpeg_dct_space()
        assert space.index_of(paper_design_point()) >= 0
