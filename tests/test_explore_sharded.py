"""Tests for sharded distributed exploration (repro.explore.shard / merge).

The three contracts under test:

* the fingerprint-range partition is a disjoint cover of the key space for
  any shard count (every point belongs to exactly one shard, purely as a
  function of its fingerprint);
* the Pareto-merge fold obeys the union law (union-of-fronts equals
  front-of-union), is order-invariant and idempotent;
* an N-way sharded run is byte-deterministic: the merged frontier is
  identical to the unsharded frontier for the same seed + budget, resuming
  replays the shard stores with zero flow jobs, and a shard killed
  mid-append (torn trailing JSONL line) resumes losing nothing but the torn
  record.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExplorationError
from repro.explore import (
    DesignPoint,
    ExploreConfig,
    Explorer,
    ParetoFront,
    PointRecord,
    RunStore,
    SearchSpace,
    ShardSpec,
    merge_fronts,
    merge_records,
    merge_stores,
    read_store,
    resolve_objectives,
    run_sharded,
    shard_key,
    shard_of,
    shard_store_path,
    shard_store_paths,
    shardable_strategy_names,
)
from repro.explore.shard import SHARD_KEY_SPACE
from repro.units import ms

#: The cheap all-heuristic space the explorer tests use (no ILP solves).
CHEAP_SPACE = SearchSpace.for_workloads(
    ["matmul_pipeline"],
    ct_values=(ms(1), ms(5), ms(20)),
    partitioners=("list", "level"),
    sequencings=("fdh", "idh"),
)

TWO = ("latency", "throughput")


def cheap_config(**overrides) -> ExploreConfig:
    defaults = dict(
        strategy="grid", budget=CHEAP_SPACE.size, batch_size=4, objectives=TWO
    )
    defaults.update(overrides)
    return ExploreConfig(**defaults)


def front_bytes(front: ParetoFront) -> str:
    return json.dumps(front.to_json_dict(), sort_keys=True)


def _record(index: int, latency: float, throughput: float) -> PointRecord:
    point = DesignPoint.create("synthetic", params={"i": index})
    return PointRecord(
        fingerprint=point.fingerprint(),
        point=point,
        metrics={"latency": latency, "throughput": throughput},
    )


#: Hypothesis strategy for lists of synthetic evaluated records.  Indices
#: key the fingerprints, so equal indices model the same design point
#: re-appearing (deterministic evaluation: same metrics too).
metric = st.floats(min_value=0.125, max_value=1024.0, allow_nan=False)
record_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=31), metric, metric),
    max_size=24,
).map(
    lambda triples: [
        _record(i, lat, thr)
        for i, (lat, thr) in {
            i: (lat, thr) for i, lat, thr in triples
        }.items()
    ]
)

hex_fingerprints = st.integers(
    min_value=0, max_value=(1 << 256) - 1
).map(lambda value: f"{value:064x}")


# ---------------------------------------------------------------------------
# The fingerprint-range partition
# ---------------------------------------------------------------------------

class TestShardPartition:
    @given(hex_fingerprints, st.integers(min_value=1, max_value=64))
    def test_every_fingerprint_lands_in_exactly_one_shard(self, fp, count):
        owners = [
            index for index in range(count) if ShardSpec(index, count).contains(fp)
        ]
        assert owners == [shard_of(fp, count)]
        assert 0 <= owners[0] < count

    @given(
        st.lists(hex_fingerprints, min_size=2, max_size=8),
        st.integers(min_value=1, max_value=16),
    )
    def test_ranges_are_monotone_in_the_key(self, fps, count):
        fps.sort(key=shard_key)
        shards = [shard_of(fp, count) for fp in fps]
        assert shards == sorted(shards)

    @given(st.integers(min_value=1, max_value=64))
    def test_key_ranges_are_a_disjoint_cover(self, count):
        edges = [ShardSpec(index, count).key_range() for index in range(count)]
        assert edges[0][0] == 0
        assert edges[-1][1] == SHARD_KEY_SPACE
        for (_, high), (low, _) in zip(edges, edges[1:]):
            assert high == low  # contiguous, no gap, no overlap

    def test_real_design_points_partition_disjointly(self):
        for count in (1, 2, 3, 5):
            owners = {}
            for point in CHEAP_SPACE.enumerate():
                fp = point.fingerprint()
                owners.setdefault(shard_of(fp, count), set()).add(fp)
            assert sum(len(fps) for fps in owners.values()) == CHEAP_SPACE.size
            assert set().union(*owners.values()) == {
                point.fingerprint() for point in CHEAP_SPACE.enumerate()
            }

    def test_shard_assignment_is_stable_across_processes(self):
        # Pure function of the hex digest: pin a couple of known values so
        # any change to the key derivation is loud.
        assert shard_key("0" * 64) == 0
        assert shard_key("f" * 64) == (1 << 64) - 1
        assert shard_of("0" * 64, 7) == 0
        assert shard_of("f" * 64, 7) == 6

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ExplorationError):
            ShardSpec(0, 0)
        with pytest.raises(ExplorationError):
            ShardSpec(2, 2)
        with pytest.raises(ExplorationError):
            ShardSpec(-1, 2)
        with pytest.raises(ExplorationError):
            shard_of("ab", 2)  # too short for a 64-bit key
        with pytest.raises(ExplorationError):
            shard_of("z" * 64, 2)  # not hexadecimal
        with pytest.raises(ExplorationError):
            shard_of("0" * 64, 0)

    def test_shard_store_naming(self, tmp_path):
        base = tmp_path / "run-abc.jsonl"
        assert shard_store_path(base, 0, 2).name == "run-abc.shard-0-of-2.jsonl"
        paths = shard_store_paths(base, 3)
        assert [path.name for path in paths] == [
            "run-abc.shard-0-of-3.jsonl",
            "run-abc.shard-1-of-3.jsonl",
            "run-abc.shard-2-of-3.jsonl",
        ]
        assert all(path.parent == tmp_path for path in paths)


# ---------------------------------------------------------------------------
# The Pareto-merge fold
# ---------------------------------------------------------------------------

class TestMergeFold:
    @given(record_lists, record_lists)
    @settings(max_examples=60)
    def test_union_of_fronts_is_front_of_union(self, a, b):
        # Deterministic evaluation: a fingerprint seen in both halves must
        # carry the same metrics, as it would in shard stores of one run.
        byfp = {record.fingerprint: record for record in a + b}
        a = [byfp[record.fingerprint] for record in a]
        b = [byfp[record.fingerprint] for record in b]
        whole = merge_records(a + b, TWO)
        folded = merge_fronts([merge_records(a, TWO), merge_records(b, TWO)])
        assert front_bytes(whole) == front_bytes(folded)

    @given(record_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_fold_is_order_invariant(self, records, rng):
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert front_bytes(merge_records(records, TWO)) == front_bytes(
            merge_records(shuffled, TWO)
        )

    @given(record_lists)
    @settings(max_examples=60)
    def test_fold_is_idempotent(self, records):
        once = merge_records(records, TWO)
        twice = merge_records(records, TWO, front=merge_records(records, TWO))
        assert front_bytes(once) == front_bytes(twice)

    def test_failed_records_are_skipped(self):
        failed = PointRecord(
            fingerprint="f" * 64,
            point=DesignPoint.create("w"),
            status="failed",
            error="boom",
        )
        front = merge_records([_record(1, 2.0, 3.0), failed], TWO)
        assert len(front) == 1

    def test_merge_fronts_rejects_mixed_objectives(self):
        a = ParetoFront(resolve_objectives(("latency",)))
        b = ParetoFront(resolve_objectives(("latency", "throughput")))
        with pytest.raises(ExplorationError):
            merge_fronts([a, b])
        with pytest.raises(ExplorationError):
            merge_fronts([])

    def test_merge_stores_rejects_mixed_contexts(self, tmp_path):
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        with RunStore(a_path, "fp", context={"eval_blocks": 16384}) as store:
            store.record(_record(1, 2.0, 3.0))
        with RunStore(b_path, "fp", context={"eval_blocks": 64}) as store:
            store.record(_record(2, 3.0, 2.0))
        with pytest.raises(ExplorationError, match="context"):
            merge_stores([a_path, b_path])
        with pytest.raises(ExplorationError):
            merge_stores([])
        with pytest.raises(ExplorationError):
            merge_stores([tmp_path / "missing.jsonl"])

    def test_merge_stores_counts_duplicates(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            with RunStore(path, "fp") as store:
                store.record(_record(1, 2.0, 3.0))
        result = merge_stores(paths)
        assert result.duplicates == 1
        assert len(result.front) == 1
        assert result.sources == {str(path): 1 for path in paths}


# ---------------------------------------------------------------------------
# Read-only store reading (what merge uses on possibly-live shard stores)
# ---------------------------------------------------------------------------

class TestReadStore:
    def test_torn_trailing_line_is_dropped_without_writing(self, tmp_path):
        """A shard killed mid-append leaves a half line; a merge reading the
        store must drop it, log it, and leave the file bytes untouched."""
        path = tmp_path / "run.jsonl"
        with RunStore(path, "fp") as store:
            store.record(_record(1, 2.0, 3.0))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "torn-mid-app')  # killed mid-append
        before = path.read_bytes()
        meta, records = read_store(path)
        assert [record.fingerprint for record in records] == [
            _record(1, 2.0, 3.0).fingerprint
        ]
        assert meta.get("version") == 1
        assert path.read_bytes() == before  # strictly read-only

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path, "fp") as store:
            store.record(_record(1, 2.0, 3.0))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "{not json at all")
        lines.insert(2, '{"fingerprint": 42}')  # malformed record shape
        lines.insert(3, "42")  # JSON, but not an object
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, records = read_store(path)
        assert len(records) == 1

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "meta", "version": 999}\n', encoding="utf-8")
        with pytest.raises(ExplorationError, match="schema version"):
            read_store(path)


# ---------------------------------------------------------------------------
# Shard-replaying explorers (in-process, memory stores: fast)
# ---------------------------------------------------------------------------

class TestShardedExplorer:
    def _solo_and_shards(self, config, count):
        solo = Explorer(CHEAP_SPACE, config=config).run()
        shard_results = [
            Explorer(
                CHEAP_SPACE, config=config, store=RunStore(),
                shard=ShardSpec(index, count),
            ).run()
            for index in range(count)
        ]
        return solo, shard_results

    @pytest.mark.parametrize("strategy", ["grid", "random"])
    @pytest.mark.parametrize("count", [2, 3])
    def test_merged_front_matches_unsharded(self, strategy, count):
        config = cheap_config(strategy=strategy, budget=8, seed=3)
        solo, shards = self._solo_and_shards(config, count)
        merged = merge_fronts([result.front for result in shards])
        assert front_bytes(merged) == front_bytes(solo.front)

    def test_shards_partition_the_trajectory_exactly(self):
        config = cheap_config()
        solo, shards = self._solo_and_shards(config, 3)
        solo_fps = {record.fingerprint for record in solo.records}
        evaluated = [
            {record.fingerprint for record in result.records if record.ok}
            for result in shards
        ]
        # Every shard replays the whole trajectory...
        assert all(result.visited == solo.visited for result in shards)
        # ...the evaluated sets are pairwise disjoint...
        for i in range(len(evaluated)):
            for j in range(i + 1, len(evaluated)):
                assert not (evaluated[i] & evaluated[j])
        # ...and their union is exactly the unsharded evaluation set.
        assert set().union(*evaluated) == solo_fps
        assert sum(result.off_shard for result in shards) == (
            solo.visited * (len(shards) - 1)
        )

    def test_off_shard_points_never_reach_the_store(self, tmp_path):
        config = cheap_config()
        shard = ShardSpec(0, 2)
        path = tmp_path / "run.shard-0-of-2.jsonl"
        with RunStore(path, CHEAP_SPACE.fingerprint()) as store:
            result = Explorer(
                CHEAP_SPACE, config=config, store=store, shard=shard
            ).run()
        _, records = read_store(path)
        assert len(records) == result.visited - result.off_shard
        assert all(shard.contains(record.fingerprint) for record in records)

    def test_skipped_rows_are_labelled(self):
        result = Explorer(
            CHEAP_SPACE, config=cheap_config(), store=RunStore(),
            shard=ShardSpec(0, 2),
        ).run()
        skipped = [row for row in result.rows() if row["status"] == "skipped"]
        assert len(skipped) == result.off_shard > 0
        assert all(row["source"] == "off-shard" for row in skipped)
        assert "off-shard skipped" in result.describe()

    def test_adaptive_strategies_are_refused(self):
        for strategy in ("greedy", "anneal"):
            with pytest.raises(ExplorationError, match="cannot be sharded"):
                Explorer(
                    CHEAP_SPACE,
                    config=cheap_config(strategy=strategy),
                    shard=ShardSpec(0, 2),
                )
        assert shardable_strategy_names() == ["grid", "random"]


# ---------------------------------------------------------------------------
# The parallel driver: determinism, resume, kill-and-resume fault tolerance
# ---------------------------------------------------------------------------

class TestRunSharded:
    def test_byte_deterministic_and_merge_order_invariant(self, tmp_path):
        config = cheap_config()
        solo = Explorer(CHEAP_SPACE, config=config).run()
        result = run_sharded(CHEAP_SPACE, config, 2, tmp_path / "run.jsonl")
        assert result.ok
        assert front_bytes(result.front) == front_bytes(solo.front)
        paths = shard_store_paths(tmp_path / "run.jsonl", 2)
        assert all(path.is_file() for path in paths)
        # Merge output is identical regardless of shard completion order.
        forward = merge_stores(paths, objectives=TWO)
        backward = merge_stores(list(reversed(paths)), objectives=TWO)
        assert front_bytes(forward.front) == front_bytes(backward.front)
        # Same seed + budget + shard count: identical store bytes per shard.
        rerun_dir = tmp_path / "rerun"
        rerun = run_sharded(CHEAP_SPACE, config, 2, rerun_dir / "run.jsonl")
        assert rerun.ok
        for first, second in zip(paths, shard_store_paths(rerun_dir / "run.jsonl", 2)):
            assert first.read_bytes() == second.read_bytes()

    def test_resume_evaluates_zero_flow_jobs(self, tmp_path):
        config = cheap_config()
        first = run_sharded(CHEAP_SPACE, config, 2, tmp_path / "run.jsonl")
        assert first.flow_evaluated == CHEAP_SPACE.size
        resumed = run_sharded(
            CHEAP_SPACE, config, 2, tmp_path / "run.jsonl", resume=True
        )
        assert resumed.flow_evaluated == 0
        assert all(shard.store_hits > 0 for shard in resumed.shards)
        assert front_bytes(resumed.front) == front_bytes(first.front)

    def test_killed_shard_resumes_losing_only_the_torn_record(self, tmp_path):
        """Fault tolerance: kill one shard mid-run (its store ends in a torn
        half-written line), resume the whole sharded run, and the merged
        frontier must come out byte-identical to the unsharded run's with
        only the lost records re-evaluated."""
        config = cheap_config()
        solo = Explorer(CHEAP_SPACE, config=config).run()
        base = tmp_path / "run.jsonl"
        first = run_sharded(CHEAP_SPACE, config, 2, base)
        victim = shard_store_path(base, 1, 2)
        survivor = shard_store_path(base, 0, 2)
        _, complete = read_store(victim)
        # Re-create the store a SIGKILLed worker leaves behind: the last
        # record only half-appended, the one before lost entirely.
        lines = victim.read_text(encoding="utf-8").splitlines()
        victim.write_text(
            "\n".join(lines[:-2]) + "\n" + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        survivor_before = survivor.read_bytes()
        resumed = run_sharded(CHEAP_SPACE, config, 2, base, resume=True)
        # Exactly the two damaged records were re-evaluated, nothing else.
        assert resumed.flow_evaluated == 2
        assert resumed.shards[0].flow_evaluated == 0
        assert resumed.shards[1].flow_evaluated == 2
        assert front_bytes(resumed.front) == front_bytes(solo.front)
        # The healed store holds every record again; the survivor untouched.
        _, healed = read_store(victim)
        assert {r.fingerprint for r in healed} == {r.fingerprint for r in complete}
        assert survivor.read_bytes() == survivor_before

    def test_resume_over_an_empty_shard_store_merges(self, tmp_path):
        """A shard store left empty (its worker died before the meta line)
        resumes into the same bytes a fresh run writes, so it merges."""
        config = cheap_config()
        base = tmp_path / "run.jsonl"
        first = run_sharded(CHEAP_SPACE, config, 2, base)
        victim = shard_store_path(base, 1, 2)
        fresh = victim.read_bytes()
        victim.write_bytes(b"")
        resumed = run_sharded(CHEAP_SPACE, config, 2, base, resume=True)
        assert victim.read_bytes() == fresh
        assert resumed.shards[1].flow_evaluated == resumed.shards[1].on_shard
        assert front_bytes(resumed.front) == front_bytes(first.front)

    def test_single_shard_runs_in_process(self, tmp_path):
        config = cheap_config(budget=4)
        result = run_sharded(CHEAP_SPACE, config, 1, tmp_path / "run.jsonl")
        assert result.shard_count == 1
        assert result.shards[0].off_shard == 0
        assert result.shards[0].on_shard == 4

    def test_driver_validates_inputs(self, tmp_path):
        with pytest.raises(ExplorationError):
            run_sharded(CHEAP_SPACE, cheap_config(), 0, tmp_path / "run.jsonl")
        with pytest.raises(ExplorationError, match="cannot be sharded"):
            run_sharded(
                CHEAP_SPACE, cheap_config(strategy="anneal"), 2,
                tmp_path / "run.jsonl",
            )
        with pytest.raises(ExplorationError):
            run_sharded(CHEAP_SPACE, {"strategy": "grid"}, 2, tmp_path / "r.jsonl")
