"""Tests for the work-stealing shard scheduler (repro.explore.scheduler).

The lease protocol's contracts, unit-tested and property-tested over
arbitrary interleavings of lease/renew/expire/steal/complete events:

* every range is completed **exactly once** in the final accounting, no
  matter how often leases expire, are stolen, or complete late;
* no two live leases ever overlap on one range;
* the whole scheduler state round-trips through its JSON snapshot at any
  point of any interleaving;
* the published :class:`ExplorationPlan` (and the :class:`SearchSpace`
  inside it) round-trips through JSON with an identical space fingerprint —
  the property that makes remote evaluation byte-deterministic.

The serve integration (plan/lease/renew/complete endpoints over a real
daemon) is smoke-tested here; the fault-injection battery lives in
``tests/test_scheduler_faults.py``.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ExplorationError
from repro.explore import (
    ExplorationPlan,
    ExploreConfig,
    SearchSpace,
    SchedulerError,
    ShardScheduler,
    read_store,
    run_scheduled_worker,
    run_sharded,
    shard_store_path,
)
from repro.explore.scheduler import (
    LEASE_COMPLETED,
    LEASE_LIVE,
    RANGE_DONE,
    RANGE_LEASED,
    RANGE_PENDING,
)
from repro.serve import FlowServer, ServeConfig, start_in_background
from repro.serve.client import FlowServiceClient, ServeClientError
from repro.units import ms

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


# ---------------------------------------------------------------------------
# The lease state machine, unit-tested
# ---------------------------------------------------------------------------

class TestLeaseProtocol:
    def test_leases_hand_out_ranges_in_order(self):
        scheduler = ShardScheduler(3, lease_timeout=10.0)
        indices = [scheduler.lease(f"w{i}", 0.0).range_index for i in range(3)]
        assert indices == [0, 1, 2]
        assert scheduler.lease("w9", 0.0) is None  # nothing pending

    def test_expired_lease_reissues_the_range(self):
        scheduler = ShardScheduler(1, lease_timeout=1.0)
        first = scheduler.lease("dead", 0.0)
        assert scheduler.lease("alive", 0.5) is None  # lease still live
        second = scheduler.lease("alive", 1.5)  # deadline 1.0 passed
        assert second is not None and second.range_index == 0
        assert scheduler.expired == 1 and scheduler.reissued == 1
        assert first.state == "expired" and second.state == LEASE_LIVE

    def test_renew_extends_a_live_lease(self):
        scheduler = ShardScheduler(1, lease_timeout=1.0)
        lease = scheduler.lease("w", 0.0)
        assert scheduler.renew(lease.lease_id, 0.9)
        # Without the renewal the lease would have expired at t=1.0.
        assert scheduler.lease("thief", 1.5) is None
        assert scheduler.renew(lease.lease_id, 2.5) is False  # now expired

    def test_steal_takes_the_longest_held_lease(self):
        scheduler = ShardScheduler(3, lease_timeout=100.0)
        scheduler.lease("w1", 0.0)
        scheduler.lease("w2", 1.0)
        scheduler.lease("w3", 2.0)
        stolen = scheduler.steal("w3", 3.0)
        assert stolen.range_index == 0 and stolen.stolen_from == "w1"
        assert scheduler.stolen == 1

    def test_steal_prefers_pending_and_never_robs_itself(self):
        scheduler = ShardScheduler(2, lease_timeout=100.0)
        scheduler.lease("w1", 0.0)
        # Range 1 is still pending: stealing degrades to an ordinary lease.
        grant = scheduler.steal("w2", 1.0)
        assert grant.range_index == 1 and grant.stolen_from == ""
        assert scheduler.stolen == 0
        # Once w2 finishes, w1 holds the only live lease left — and a
        # worker never robs itself.
        scheduler.complete(grant.lease_id, 2.0)
        assert scheduler.steal("w1", 3.0) is None

    def test_completion_dispositions(self):
        scheduler = ShardScheduler(1, lease_timeout=1.0)
        dead = scheduler.lease("dead", 0.0)
        retry = scheduler.lease("alive", 2.0)  # re-issued after expiry
        # The dead worker finishes anyway: the range is still open, so the
        # byte-identical result is accepted as a late completion...
        assert scheduler.complete(dead.lease_id, 2.5) == "late"
        # ...which revokes the re-issued live lease,
        assert scheduler.renew(retry.lease_id, 2.6) is False
        # and the re-issued worker's completion becomes a duplicate.
        assert scheduler.complete(retry.lease_id, 3.0) == "duplicate"
        assert scheduler.done
        assert scheduler.completed == 1 and scheduler.duplicates == 1
        assert len(scheduler.completions()) == 1

    def test_completing_a_live_lease_is_the_happy_path(self):
        scheduler = ShardScheduler(2, lease_timeout=10.0)
        lease = scheduler.lease("w", 0.0)
        assert scheduler.complete(lease.lease_id, 1.0) == "completed"
        assert lease.state == LEASE_COMPLETED
        assert not scheduler.done  # range 1 still pending
        assert scheduler.progress()["done"] == 1

    def test_invalid_operations_raise(self):
        with pytest.raises(SchedulerError):
            ShardScheduler(0)
        with pytest.raises(SchedulerError):
            ShardScheduler(4, lease_timeout=0.0)
        scheduler = ShardScheduler(1)
        with pytest.raises(SchedulerError):
            scheduler.lease("", 0.0)
        with pytest.raises(SchedulerError):
            scheduler.renew("lease-999999", 0.0)
        with pytest.raises(SchedulerError):
            scheduler.complete("nope", 0.0)
        assert isinstance(SchedulerError("x"), ExplorationError)

    def test_snapshot_round_trip_mid_flight(self):
        scheduler = ShardScheduler(4, lease_timeout=5.0)
        a = scheduler.lease("w1", 0.0)
        scheduler.lease("w2", 1.0)
        scheduler.complete(a.lease_id, 2.0)
        scheduler.steal("w3", 3.0)
        snapshot = scheduler.to_json_dict()
        restored = ShardScheduler.from_json_dict(
            json.loads(json.dumps(snapshot))
        )
        assert restored.to_json_dict() == snapshot
        # The restored machine keeps working where the original left off —
        # including the lease-id sequence (no aliasing of new grants).
        fresh = restored.lease("w4", 3.5)
        assert fresh.lease_id not in {
            lease["lease_id"] for lease in snapshot["leases"]
        }

    def test_malformed_snapshot_raises(self):
        with pytest.raises(SchedulerError):
            ShardScheduler.from_json_dict({"range_count": 2})
        good = ShardScheduler(2).to_json_dict()
        bad = dict(good, status=["pending"])  # wrong length
        with pytest.raises(SchedulerError):
            ShardScheduler.from_json_dict(bad)
        leased = ShardScheduler(2)
        leased.lease("w1", 0.0)
        snapshot = leased.to_json_dict()
        snapshot["leases"][0]["range_index"] = 9  # no such range
        with pytest.raises(SchedulerError):
            ShardScheduler.from_json_dict(snapshot)

    def test_snapshots_do_not_grow_memory(self):
        """``GET /v1/scheduler/snapshot`` serialises the scheduler once per
        request, so a snapshot must leave nothing behind."""
        scheduler = ShardScheduler(4)
        scheduler.lease("w1", 0.0)
        scheduler.to_json_dict()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20_000):
                scheduler.to_json_dict()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 64 * 1024
        assert scheduler.lease("w2", 1.0).lease_id == "lease-000002"

    def test_lease_ids_and_grant_counts_survive_a_round_trip(self):
        scheduler = ShardScheduler(1, lease_timeout=1.0)
        assert scheduler.lease("w1", 0.0).lease_id == "lease-000001"
        snapshot = scheduler.to_json_dict()
        assert snapshot["next_lease_seq"] == 2
        restored = ShardScheduler.from_json_dict(json.loads(json.dumps(snapshot)))
        assert restored.grants_of(0) == 1
        # The lease expired at t=1, so the range is re-issued as lease 2.
        again = restored.lease("w2", 5.0)
        assert again.lease_id == "lease-000002"
        assert (restored.grants_of(0), restored.reissued) == (2, 1)


# ---------------------------------------------------------------------------
# Property tests: arbitrary interleavings
# ---------------------------------------------------------------------------

#: One protocol event.  Lease/steal name a worker; renew/complete pick one
#: of the leases granted so far (by index); advance moves the logical clock.
events = st.lists(
    st.one_of(
        st.tuples(st.just("lease"), st.integers(0, 3)),
        st.tuples(st.just("steal"), st.integers(0, 3)),
        st.tuples(st.just("renew"), st.integers(0, 63)),
        st.tuples(st.just("complete"), st.integers(0, 63)),
        st.tuples(st.just("advance"), st.integers(1, 40)),
    ),
    max_size=60,
)


def _drive(range_count: int, interleaving) -> tuple:
    """Apply one interleaving, checking invariants after every event."""
    scheduler = ShardScheduler(range_count, lease_timeout=10.0)
    now = 0.0
    granted = []
    for kind, value in interleaving:
        if kind == "lease":
            lease = scheduler.lease(f"w{value}", now)
            if lease is not None:
                granted.append(lease.lease_id)
        elif kind == "steal":
            lease = scheduler.steal(f"w{value}", now)
            if lease is not None:
                granted.append(lease.lease_id)
        elif kind == "renew" and granted:
            scheduler.renew(granted[value % len(granted)], now)
        elif kind == "complete" and granted:
            scheduler.complete(granted[value % len(granted)], now)
        elif kind == "advance":
            now += value / 4.0
        _check_invariants(scheduler)
    return scheduler, now


def _check_invariants(scheduler: ShardScheduler) -> None:
    live = scheduler.live_leases()
    # No two live leases overlap on a range.
    assert len({lease.range_index for lease in live}) == len(live)
    # pending / leased / done partition the ranges consistently.
    progress = scheduler.progress()
    assert (
        progress["pending"] + progress["leased"] + progress["done"]
        == scheduler.range_count
    )
    assert progress["leased"] == len(live)
    assert progress["done"] == len(scheduler.completions())
    # Exactly-once accounting: one completion per done range.
    indices = [completion.range_index for completion in scheduler.completions()]
    assert len(indices) == len(set(indices))
    assert scheduler.completed == len(indices)


class TestLeaseProtocolProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), events)
    def test_every_range_completes_exactly_once(self, range_count, interleaving):
        scheduler, now = _drive(range_count, interleaving)
        # Drain: one surviving worker leases (or steals) and completes
        # until the whole schedule is done — as a real fleet would.
        for _ in range(8 * range_count):
            if scheduler.done:
                break
            lease = scheduler.lease("finisher", now)
            if lease is None:
                lease = scheduler.steal("finisher", now)
            if lease is None:
                now += 20.0  # let a foreign lease expire
                continue
            scheduler.complete(lease.lease_id, now)
            _check_invariants(scheduler)
        assert scheduler.done
        completions = scheduler.completions()
        assert sorted(c.range_index for c in completions) == list(
            range(range_count)
        )
        assert scheduler.completed == range_count
        assert scheduler.progress()["all_done"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), events)
    def test_state_round_trips_through_json_snapshot(
        self, range_count, interleaving
    ):
        scheduler, _ = _drive(range_count, interleaving)
        snapshot = scheduler.to_json_dict()
        wire = json.loads(json.dumps(snapshot))  # a real JSON round trip
        restored = ShardScheduler.from_json_dict(wire)
        assert restored.to_json_dict() == snapshot
        _check_invariants(restored)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6), events)
    def test_range_states_are_always_a_partition(self, range_count, interleaving):
        scheduler, _ = _drive(range_count, interleaving)
        states = scheduler.to_json_dict()["status"]
        assert set(states) <= {RANGE_PENDING, RANGE_LEASED, RANGE_DONE}


# ---------------------------------------------------------------------------
# The published plan
# ---------------------------------------------------------------------------

class TestExplorationPlan:
    def test_plan_round_trips_with_identical_space_fingerprint(self):
        plan = ExplorationPlan.from_config(
            CHEAP_SPACE, cheap_config(seed=7), range_count=6
        )
        wire = json.loads(json.dumps(plan.to_json_dict()))
        restored = ExplorationPlan.from_json_dict(wire)
        assert restored == plan
        assert restored.space.fingerprint() == CHEAP_SPACE.fingerprint()

    def test_plan_refuses_unshardable_strategies(self):
        with pytest.raises(ExplorationError):
            ExplorationPlan.from_config(
                CHEAP_SPACE, cheap_config(strategy="greedy"), range_count=4
            )
        with pytest.raises(SchedulerError):
            ExplorationPlan.from_config(CHEAP_SPACE, cheap_config(), 0)

    def test_plan_config_excludes_worker_local_fields(self):
        plan = ExplorationPlan.from_config(
            CHEAP_SPACE,
            cheap_config(workers=7, cache_dir="/tmp/somewhere"),
            range_count=2,
        )
        config = plan.explore_config(cache_dir="/elsewhere")
        assert config.workers == 0
        assert config.cache_dir == "/elsewhere"
        assert config.budget == CHEAP_SPACE.size

    def test_search_space_json_round_trip(self):
        wire = json.loads(json.dumps(CHEAP_SPACE.to_json_dict()))
        restored = SearchSpace.from_json_dict(wire)
        assert restored == CHEAP_SPACE
        assert restored.fingerprint() == CHEAP_SPACE.fingerprint()
        with pytest.raises(ExplorationError):
            SearchSpace.from_json_dict({"workloads": []})


# ---------------------------------------------------------------------------
# Serve integration
# ---------------------------------------------------------------------------

class TestSchedulerEndpoints:
    def test_plain_daemon_has_no_schedule(self):
        with start_in_background(ServeConfig(workers=1)) as handle:
            client = FlowServiceClient(handle.url)
            with pytest.raises(ServeClientError) as excinfo:
                client.scheduler_status()
            assert excinfo.value.status == 404
            assert excinfo.value.code == "no-schedule"

    def test_lease_complete_cycle_over_http(self, tmp_path):
        plan = ExplorationPlan.from_config(
            CHEAP_SPACE, cheap_config(), range_count=3
        )
        server = FlowServer(ServeConfig(workers=0))
        server.attach_schedule(plan, tmp_path / "run.jsonl", lease_timeout=30.0)
        with start_in_background(server=server) as handle:
            client = FlowServiceClient(handle.url)
            published = ExplorationPlan.from_json_dict(
                client.scheduler_plan()["plan"]
            )
            assert published == plan

            seen = set()
            for _ in range(3):
                ack = client.scheduler_lease("w0")
                assert ack["granted"] and not ack["all_done"]
                assert client.scheduler_renew(ack["lease_id"])["live"]
                seen.add(ack["range_index"])
                done = client.scheduler_complete(
                    ack["lease_id"],
                    store_data='{"kind":"meta","version":1,"space":"",'
                               '"context":{}}\n',
                )
                assert done["disposition"] == "completed"
            assert seen == {0, 1, 2}
            assert client.scheduler_lease("w0") == {
                "granted": False, "all_done": True,
                "retry_after_s": pytest.approx(1.0),
            }
            status = client.scheduler_status()
            assert status["all_done"] and status["done"] == 3
            assert status["workers_seen"] == ["w0"]

            # The streamed store bytes landed at the conventional paths
            # and are readable run stores.
            for index in range(3):
                path = tmp_path / f"run.shard-{index}-of-3.jsonl"
                assert path.exists()
                meta, records = read_store(path)
                assert records == []

            # The snapshot endpoint serves a round-trippable state.
            snapshot = client.scheduler_snapshot()
            assert ShardScheduler.from_json_dict(snapshot).done

    def test_completion_requires_exactly_one_payload(self, tmp_path):
        plan = ExplorationPlan.from_config(
            CHEAP_SPACE, cheap_config(), range_count=1
        )
        server = FlowServer(ServeConfig(workers=0))
        server.attach_schedule(plan, tmp_path / "run.jsonl")
        with start_in_background(server=server) as handle:
            client = FlowServiceClient(handle.url)
            ack = client.scheduler_lease("w")
            with pytest.raises(ServeClientError):
                client.scheduler_complete(ack["lease_id"])  # neither payload
            with pytest.raises(ServeClientError):
                client.scheduler_complete(
                    ack["lease_id"], store_data="x", store_path="y"
                )

    def test_malformed_completion_keeps_the_range_leased(self, tmp_path):
        """A completion refused for its body must not account the range:
        it stays held by the same lease, and a correct completion of that
        lease still goes through."""
        plan = ExplorationPlan.from_config(
            CHEAP_SPACE, cheap_config(), range_count=1
        )
        server = FlowServer(ServeConfig(workers=0))
        server.attach_schedule(plan, tmp_path / "run.jsonl")
        with start_in_background(server=server) as handle:
            client = FlowServiceClient(handle.url)
            ack = client.scheduler_lease("w")
            for payload in ({"store_data": 123}, {"store_path": ""},
                            {"store_path": 7}):
                with pytest.raises(ServeClientError) as excinfo:
                    client.scheduler_complete(ack["lease_id"], **payload)
                assert excinfo.value.status == 400
                status = client.scheduler_status()
                assert (status["done"], status["leased"]) == (0, 1)
                assert [
                    lease.lease_id
                    for lease in server.schedule.scheduler.live_leases()
                ] == [ack["lease_id"]]
            done = client.scheduler_complete(
                ack["lease_id"],
                store_data='{"kind":"meta","version":1,"space":"",'
                           '"context":{}}\n',
            )
            assert done["disposition"] == "completed"
            assert (tmp_path / "run.shard-0-of-1.jsonl").exists()

    def test_shared_store_completion_registers_the_path(self, tmp_path):
        plan = ExplorationPlan.from_config(
            CHEAP_SPACE, cheap_config(), range_count=1
        )
        server = FlowServer(ServeConfig(workers=0))
        server.attach_schedule(plan, tmp_path / "run.jsonl")
        shared = tmp_path / "shared" / "run.shard-0-of-1.jsonl"
        shared.parent.mkdir()
        shared.write_text(
            '{"kind":"meta","version":1,"space":"","context":{}}\n',
            encoding="utf-8",
        )
        with start_in_background(server=server) as handle:
            client = FlowServiceClient(handle.url)
            ack = client.scheduler_lease("w")
            done = client.scheduler_complete(
                ack["lease_id"], store_path=str(shared)
            )
            assert done["disposition"] == "completed"
            assert done["store_path"] == str(shared)
        assert server.schedule.scheduler.store_paths() == {0: str(shared)}


# ---------------------------------------------------------------------------
# One range runner behind every executor
# ---------------------------------------------------------------------------

class TestOneRangeRunner:
    def test_every_executor_writes_the_same_shard_stores(self, tmp_path):
        """``run_sharded``, a scheduled worker and ``repro explore
        --shard-index`` all run a range through ``run_range``, so each
        range's shard store is byte-identical whichever of them wrote it."""
        config = cheap_config()
        plan = ExplorationPlan.from_config(CHEAP_SPACE, config, range_count=2)

        run_sharded(CHEAP_SPACE, config, 2, tmp_path / "pool.jsonl")

        server = FlowServer(ServeConfig(workers=0))
        server.attach_schedule(plan, tmp_path / "scheduled.jsonl")
        with start_in_background(server=server) as handle:
            worker = run_scheduled_worker(
                handle.url, worker_id="w", work_dir=tmp_path / "worker"
            )
        assert worker.ranges_completed == 2

        for index in range(2):
            assert main([
                "explore", "--workload", "matmul_pipeline",
                "--ct-sweep", "1,5,20", "--partitioners", "list,level",
                "--budget", str(config.budget), "--batch-size", "4",
                "--shards", "2", "--shard-index", str(index),
                "--store", str(tmp_path / "cli.jsonl"),
            ]) == 0

        for index in range(2):
            pooled = shard_store_path(tmp_path / "pool.jsonl", index, 2)
            assert pooled.read_bytes()
            for other in ("scheduled.jsonl", "cli.jsonl"):
                path = shard_store_path(tmp_path / other, index, 2)
                assert path.read_bytes() == pooled.read_bytes(), path
