"""Work-stealing shard scheduler: dynamic fingerprint-range hand-out.

Static sharding (``repro explore --shards N`` or ``--shard-index``) splits
the key space into N fingerprint ranges, but assigning shard indices across
machines is manual and static: a slow or dead shard stalls the whole run.
This module makes the assignment dynamic.
The key space is cut into a *fine* M-way partition (M >> workers, each
range is one :class:`~repro.explore.shard.ShardSpec` of the M-way
partition) and a :class:`ShardScheduler` hands ranges out on demand:

* **lease** — a worker asks for work and receives the next pending range
  together with a lease that expires unless renewed;
* **renew** — a live worker extends its lease while it evaluates;
* **complete** — the worker returns the range's shard store and the range
  is accounted done;
* **expire** — a lease whose deadline passed (its worker died or stalled)
  is reclaimed and the range re-enters the pending queue for re-issue;
* **steal** — when nothing is pending, an idle worker may revoke the
  longest-held live lease (a straggler's) and run the range itself.

Re-issue and stealing are safe because range evaluation is **idempotent**:
the shard store of range *i* of *M* is a pure function of
``(space, config, i, M)`` — like the nonenumerative DAG decomposition of
arXiv 1301.0181, correctness is independent of evaluation order — so a
twice-evaluated range produces byte-identical records and the Pareto-merge
fold (:mod:`repro.explore.merge`) dedups them by content fingerprint.  The
merged frontier is therefore byte-identical to the unsharded run's no
matter which worker completed which range, how often ranges were re-issued,
or in what order completions arrived.

The scheduler itself is a pure state machine: every operation takes the
current time as an argument (the serve layer passes ``time.monotonic()``,
the property tests pass a logical clock) and the whole state round-trips
through :meth:`ShardScheduler.to_json_dict`.

:class:`ExplorationPlan` is the JSON-serialisable description of the run
(search space, strategy, budget, seed, objectives, range count) that the
scheduling daemon publishes so remote workers need nothing but its URL;
:func:`run_scheduled_worker` is the pull-worker loop behind
``repro explore --scheduler URL``.  It runs each leased range through
:func:`~repro.explore.shard.run_range`, the body static sharding runs too,
so a range's store is byte-identical whichever executor wrote it.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Mapping, Optional, Union

from ..errors import ExplorationError
from .engine import ExploreConfig
from .space import SearchSpace
from .strategies import assert_shardable

#: Environment variable injecting an artificial per-range delay (seconds)
#: into :func:`run_scheduled_worker` — the straggler/chaos hook the fault
#: tests and the CI chaos smoke use to slow one worker down.
DELAY_ENV = "REPRO_SCHED_DELAY_S"

#: Lease states.  ``live`` leases are the only ones that hold a range;
#: every other state is terminal for the lease (never for the range).
LEASE_LIVE = "live"
LEASE_EXPIRED = "expired"
LEASE_REVOKED = "revoked"
LEASE_COMPLETED = "completed"

#: Range states: pending -> leased -> done (leased can fall back to
#: pending on expiry/steal as often as it takes).
RANGE_PENDING = "pending"
RANGE_LEASED = "leased"
RANGE_DONE = "done"


class SchedulerError(ExplorationError):
    """An invalid scheduler operation (unknown lease, bad range count...)."""


@dataclass
class Lease:
    """One grant of one range to one worker."""

    lease_id: str
    range_index: int
    worker: str
    granted_at: float
    deadline: float
    state: str = LEASE_LIVE
    #: Worker whose live lease this grant revoked (set on steals).
    stolen_from: str = ""

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "lease_id": self.lease_id,
            "range_index": self.range_index,
            "worker": self.worker,
            "granted_at": self.granted_at,
            "deadline": self.deadline,
            "state": self.state,
            "stolen_from": self.stolen_from,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "Lease":
        try:
            return cls(
                lease_id=str(data["lease_id"]),
                range_index=int(data["range_index"]),  # type: ignore[arg-type]
                worker=str(data["worker"]),
                granted_at=float(data["granted_at"]),  # type: ignore[arg-type]
                deadline=float(data["deadline"]),  # type: ignore[arg-type]
                state=str(data["state"]),
                stolen_from=str(data.get("stolen_from", "")),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SchedulerError(f"malformed lease record: {error}") from error


@dataclass(frozen=True)
class Completion:
    """The first accepted completion of one range (the accounting record)."""

    range_index: int
    lease_id: str
    worker: str
    #: ``completed`` for a live lease, ``late`` for an expired/revoked one
    #: whose (identical) result was still accepted.
    disposition: str
    store_path: str = ""

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "range_index": self.range_index,
            "lease_id": self.lease_id,
            "worker": self.worker,
            "disposition": self.disposition,
            "store_path": self.store_path,
        }


class ShardScheduler:
    """Lease-based dynamic hand-out of an M-way fingerprint-range partition.

    Invariants (property-tested in ``tests/test_scheduler.py``):

    * every range is in exactly one of ``pending`` / ``leased`` / ``done``;
    * at most one **live** lease exists per range at any time (expiry,
      stealing and completion all revoke before re-granting);
    * every range is completed **exactly once** in the final accounting —
      later completions of a done range are counted as duplicates and
      change nothing;
    * the whole state round-trips through its JSON snapshot.
    """

    def __init__(self, range_count: int, lease_timeout: float = 30.0) -> None:
        if range_count < 1:
            raise SchedulerError(f"range count must be >= 1, got {range_count}")
        if lease_timeout <= 0:
            raise SchedulerError(
                f"lease timeout must be positive, got {lease_timeout}"
            )
        self.range_count = range_count
        self.lease_timeout = lease_timeout
        self._status: List[str] = [RANGE_PENDING] * range_count
        self._pending: Deque[int] = deque(range(range_count))
        self._live: Dict[int, Lease] = {}
        self._leases: Dict[str, Lease] = {}
        self._completions: Dict[int, Completion] = {}
        #: The number the next granted lease takes.
        self._next_seq = 1
        #: Leases ever granted per range.
        self._grant_counts: List[int] = [0] * range_count
        # Counters surfaced by /v1/scheduler/status.
        self.granted = 0
        self.reissued = 0
        self.stolen = 0
        self.expired = 0
        self.completed = 0
        self.late = 0
        self.duplicates = 0

    # ------------------------------------------------------------------
    # The lease protocol
    # ------------------------------------------------------------------

    def expire(self, now: float) -> List[int]:
        """Reclaim every live lease whose deadline passed; returns the ranges.

        A reclaimed range re-enters the back of the pending queue, so the
        next hungry worker re-runs it — idempotently.
        """
        reclaimed: List[int] = []
        for index, lease in sorted(self._live.items()):
            if lease.deadline < now:
                lease.state = LEASE_EXPIRED
                self.expired += 1
                reclaimed.append(index)
        for index in reclaimed:
            del self._live[index]
            self._status[index] = RANGE_PENDING
            self._pending.append(index)
        return reclaimed

    def _grant(
        self, index: int, worker: str, now: float, stolen_from: str = ""
    ) -> Lease:
        lease = Lease(
            lease_id=f"lease-{self._next_seq:06d}",
            range_index=index,
            worker=worker,
            granted_at=now,
            deadline=now + self.lease_timeout,
            stolen_from=stolen_from,
        )
        self._status[index] = RANGE_LEASED
        self._live[index] = lease
        self._leases[lease.lease_id] = lease
        self._next_seq += 1
        self._grant_counts[index] += 1
        self.granted += 1
        if self._grant_counts[index] > 1:
            self.reissued += 1
        return lease

    def grants_of(self, index: int) -> int:
        """How many leases have ever been granted on range *index*."""
        return self._grant_counts[index]

    def lease(self, worker: str, now: float) -> Optional[Lease]:
        """Grant the next pending range to *worker*, or ``None`` if none.

        Expired leases are reclaimed first, so a dead worker's range is
        re-issued the moment any live worker asks for work.
        """
        if not worker:
            raise SchedulerError("a lease needs a non-empty worker id")
        self.expire(now)
        if not self._pending:
            return None
        index = self._pending.popleft()
        return self._grant(index, worker, now)

    def steal(self, worker: str, now: float) -> Optional[Lease]:
        """Revoke the longest-held live lease and grant its range to *worker*.

        Work stealing for the end-game: only allowed once nothing is
        pending (otherwise it degrades to :meth:`lease`), never from
        *worker* itself, and safe because range evaluation is idempotent —
        the victim's eventual completion of the same range is accepted as a
        duplicate of byte-identical records.  Returns ``None`` when there
        is nothing to steal.
        """
        if not worker:
            raise SchedulerError("a steal needs a non-empty worker id")
        self.expire(now)
        if self._pending:
            index = self._pending.popleft()
            return self._grant(index, worker, now)
        victims = [
            lease for lease in self._live.values() if lease.worker != worker
        ]
        if not victims:
            return None
        victim = min(victims, key=lambda lease: (lease.granted_at, lease.lease_id))
        victim.state = LEASE_REVOKED
        del self._live[victim.range_index]
        self.stolen += 1
        return self._grant(
            victim.range_index, worker, now, stolen_from=victim.worker
        )

    def renew(self, lease_id: str, now: float) -> bool:
        """Extend a live lease's deadline; ``False`` once it is no longer live.

        A ``False`` renewal tells the worker its range was reclaimed (it
        expired, was stolen, or the range is already done) — the worker may
        abandon the evaluation or finish and complete late, both are safe.
        """
        lease = self._lease_for(lease_id)
        self.expire(now)
        if lease.state != LEASE_LIVE:
            return False
        lease.deadline = now + self.lease_timeout
        return True

    def complete(
        self,
        lease_id: str,
        now: float,
        store_path: str = "",
    ) -> str:
        """Account one range completion; returns the disposition.

        ``completed`` — the live lease finished its range; ``late`` — the
        lease had expired or been revoked but the range was still open, so
        the (byte-identical) result is accepted anyway; ``duplicate`` — the
        range was already done, nothing changes.  First accepted completion
        wins the accounting; every range is completed exactly once.
        """
        lease = self._lease_for(lease_id)
        self.expire(now)
        index = lease.range_index
        if self._status[index] == RANGE_DONE:
            self.duplicates += 1
            return "duplicate"
        disposition = "completed" if lease.state == LEASE_LIVE else "late"
        if lease.state == LEASE_LIVE:
            del self._live[index]
        else:
            self.late += 1
            # The range is pending (after expiry) or held by a thief whose
            # work just became redundant; either way it leaves that state.
            if index in self._live:
                self._live[index].state = LEASE_REVOKED
                del self._live[index]
            try:
                self._pending.remove(index)
            except ValueError:
                pass
        lease.state = LEASE_COMPLETED
        self._status[index] = RANGE_DONE
        self._completions[index] = Completion(
            range_index=index,
            lease_id=lease_id,
            worker=lease.worker,
            disposition=disposition,
            store_path=store_path,
        )
        self.completed += 1
        return disposition

    def _lease_for(self, lease_id: str) -> Lease:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise SchedulerError(f"unknown lease id {lease_id!r}")
        return lease

    def lease_info(self, lease_id: str) -> Lease:
        """The lease behind *lease_id* (raising on unknown ids)."""
        return self._lease_for(lease_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every range has been completed."""
        return len(self._completions) == self.range_count

    def live_leases(self) -> List[Lease]:
        """Every live lease, in range order."""
        return [self._live[index] for index in sorted(self._live)]

    def completions(self) -> List[Completion]:
        """The accounting: exactly one record per completed range."""
        return [self._completions[index] for index in sorted(self._completions)]

    def store_paths(self) -> Dict[int, str]:
        """Registered shard-store path per completed range."""
        return {
            index: completion.store_path
            for index, completion in sorted(self._completions.items())
            if completion.store_path
        }

    def progress(self) -> Dict[str, object]:
        """Counters + per-state range counts for ``/v1/scheduler/status``."""
        counts = {RANGE_PENDING: 0, RANGE_LEASED: 0, RANGE_DONE: 0}
        for status in self._status:
            counts[status] += 1
        return {
            "range_count": self.range_count,
            "lease_timeout_s": self.lease_timeout,
            "pending": counts[RANGE_PENDING],
            "leased": counts[RANGE_LEASED],
            "done": counts[RANGE_DONE],
            "granted": self.granted,
            "reissued": self.reissued,
            "stolen": self.stolen,
            "expired": self.expired,
            "completed": self.completed,
            "late": self.late,
            "duplicates": self.duplicates,
            "all_done": self.done,
        }

    def describe(self) -> str:
        """One-line human readable summary."""
        progress = self.progress()
        return (
            f"scheduler over {self.range_count} range(s): "
            f"{progress['done']} done, {progress['leased']} leased, "
            f"{progress['pending']} pending ({self.reissued} reissued, "
            f"{self.stolen} stolen, {self.expired} expired, "
            f"{self.duplicates} duplicate completion(s))"
        )

    # ------------------------------------------------------------------
    # Snapshot round-trip
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """The whole scheduler state, JSON-stable and round-trippable."""
        return {
            "range_count": self.range_count,
            "lease_timeout_s": self.lease_timeout,
            "status": list(self._status),
            "pending": list(self._pending),
            "leases": [
                self._leases[lease_id].to_json_dict()
                for lease_id in sorted(self._leases)
            ],
            "completions": [
                completion.to_json_dict()
                for completion in self.completions()
            ],
            "next_lease_seq": self._next_seq,
            "counters": {
                "granted": self.granted,
                "reissued": self.reissued,
                "stolen": self.stolen,
                "expired": self.expired,
                "completed": self.completed,
                "late": self.late,
                "duplicates": self.duplicates,
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "ShardScheduler":
        """Rebuild a scheduler from its snapshot."""
        try:
            scheduler = cls(
                range_count=int(data["range_count"]),  # type: ignore[arg-type]
                lease_timeout=float(data["lease_timeout_s"]),  # type: ignore[arg-type]
            )
            scheduler._status = [str(status) for status in data["status"]]  # type: ignore[union-attr]
            if len(scheduler._status) != scheduler.range_count:
                raise ValueError("status list length != range count")
            scheduler._pending = deque(
                int(index) for index in data["pending"]  # type: ignore[union-attr]
            )
            scheduler._live = {}
            scheduler._leases = {}
            for item in data["leases"]:  # type: ignore[union-attr]
                lease = Lease.from_json_dict(item)
                scheduler._leases[lease.lease_id] = lease
                scheduler._grant_counts[lease.range_index] += 1
                if lease.state == LEASE_LIVE:
                    if lease.range_index in scheduler._live:
                        raise ValueError(
                            f"two live leases on range {lease.range_index}"
                        )
                    scheduler._live[lease.range_index] = lease
            scheduler._completions = {}
            for item in data["completions"]:  # type: ignore[union-attr]
                completion = Completion(
                    range_index=int(item["range_index"]),
                    lease_id=str(item["lease_id"]),
                    worker=str(item["worker"]),
                    disposition=str(item["disposition"]),
                    store_path=str(item.get("store_path", "")),
                )
                scheduler._completions[completion.range_index] = completion
            scheduler._next_seq = int(data["next_lease_seq"])  # type: ignore[arg-type]
            counters = dict(data.get("counters", {}))  # type: ignore[arg-type]
            for name in (
                "granted", "reissued", "stolen", "expired",
                "completed", "late", "duplicates",
            ):
                setattr(scheduler, name, int(counters.get(name, 0)))
            return scheduler
        except (IndexError, KeyError, TypeError, ValueError) as error:
            raise SchedulerError(
                f"malformed scheduler snapshot: {error}"
            ) from error


# ---------------------------------------------------------------------------
# The published run description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExplorationPlan:
    """Everything a remote worker needs to evaluate any range of the run.

    A pure value: the plan (not the scheduler) is what makes the merged
    frontier deterministic — the shard store of range *i* is a function of
    the plan and *i* alone, so any worker can produce it.
    """

    space: SearchSpace
    range_count: int
    strategy: str = "grid"
    budget: int = 64
    batch_size: int = 8
    seed: int = 0
    objectives: tuple = ("latency", "throughput")
    eval_blocks: int = 16384

    def __post_init__(self) -> None:
        if self.range_count < 1:
            raise SchedulerError(
                f"range count must be >= 1, got {self.range_count}"
            )
        assert_shardable(self.strategy)

    @classmethod
    def from_config(
        cls, space: SearchSpace, config: ExploreConfig, range_count: int
    ) -> "ExplorationPlan":
        """Build a plan from an :class:`ExploreConfig` (worker-local fields
        like ``workers`` and ``cache_dir`` deliberately do not travel)."""
        return cls(
            space=space,
            range_count=range_count,
            strategy=config.strategy,
            budget=config.budget,
            batch_size=config.batch_size,
            seed=config.seed,
            objectives=tuple(config.objectives),
            eval_blocks=config.eval_blocks,
        )

    def explore_config(
        self, cache_dir: Optional[Union[str, Path]] = None
    ) -> ExploreConfig:
        """The worker-side :class:`ExploreConfig` this plan prescribes."""
        return ExploreConfig(
            strategy=self.strategy,
            budget=self.budget,
            batch_size=self.batch_size,
            seed=self.seed,
            objectives=tuple(self.objectives),
            eval_blocks=self.eval_blocks,
            cache_dir=cache_dir,
        )

    def to_json_dict(self) -> Dict[str, object]:
        """Wire form of the plan (round-trips via :meth:`from_json_dict`)."""
        return {
            "space": self.space.to_json_dict(),
            "range_count": self.range_count,
            "strategy": self.strategy,
            "budget": self.budget,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "objectives": list(self.objectives),
            "eval_blocks": self.eval_blocks,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "ExplorationPlan":
        try:
            return cls(
                space=SearchSpace.from_json_dict(data["space"]),  # type: ignore[arg-type]
                range_count=int(data["range_count"]),  # type: ignore[arg-type]
                strategy=str(data["strategy"]),
                budget=int(data["budget"]),  # type: ignore[arg-type]
                batch_size=int(data["batch_size"]),  # type: ignore[arg-type]
                seed=int(data["seed"]),  # type: ignore[arg-type]
                objectives=tuple(
                    str(name) for name in data["objectives"]  # type: ignore[union-attr]
                ),
                eval_blocks=int(data["eval_blocks"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SchedulerError(f"malformed exploration plan: {error}") from error

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.strategy} exploration of {self.space.size}-point space, "
            f"budget {self.budget}, seed {self.seed}, cut into "
            f"{self.range_count} range(s)"
        )


# ---------------------------------------------------------------------------
# The pull-worker loop (repro explore --scheduler URL)
# ---------------------------------------------------------------------------

@dataclass
class ScheduledWorkerResult:
    """What one pull worker did over its whole scheduler session."""

    worker: str
    ranges_completed: int = 0
    ranges_stolen: int = 0  # ranges this worker obtained via /steal
    ranges_duplicate: int = 0  # completions the scheduler already had
    ranges_late: int = 0  # completions accepted after lease loss
    points_evaluated: int = 0
    flow_evaluated: int = 0
    failures: int = 0
    wall_time: float = 0.0

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"worker {self.worker}: {self.ranges_completed} range(s) completed "
            f"({self.ranges_stolen} stolen, {self.ranges_late} late, "
            f"{self.ranges_duplicate} duplicate) — {self.points_evaluated} "
            f"point(s), {self.flow_evaluated} flow job(s), "
            f"{self.failures} failure(s) in {self.wall_time:.2f} s"
        )


def default_worker_id() -> str:
    """A worker id unique enough across machines and processes."""
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


class _LeaseRenewer:
    """Background renewal of one lease while its range evaluates."""

    def __init__(self, client, lease_id: str, interval: float) -> None:
        self._client = client
        self._lease_id = lease_id
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(
            target=self._run, name=f"renew-{lease_id}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._client.scheduler_renew(self._lease_id)["live"]:
                    self.lost = True
                    return
            except Exception:  # noqa: BLE001 - transport hiccups never kill work
                pass  # the next renewal (or the lease timeout) decides

    def __enter__(self) -> "_LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_scheduled_worker(
    url: str,
    worker_id: Optional[str] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    work_dir: Optional[Union[str, Path]] = None,
    poll_s: float = 0.2,
    shared_store: Optional[Union[str, Path]] = None,
    range_delay_s: Optional[float] = None,
    max_ranges: Optional[int] = None,
    timeout_s: float = 600.0,
) -> ScheduledWorkerResult:
    """Pull ranges from the scheduler at *url* until the run is done.

    Each leased range runs through :func:`~repro.explore.shard.run_range`
    (the plan's full strategy trajectory, evaluating only the range's
    points) into a worker-local shard store, then returns the store
    to the scheduler — streamed inline by default, or registered by path
    when *shared_store* names the scheduler's store base on a shared
    filesystem.  The lease is renewed from a background thread for as long
    as the evaluation runs; a lost lease never aborts the evaluation (the
    result is byte-identical wherever it is computed, so a late completion
    is still accepted, or counted as a duplicate).

    *range_delay_s* (or the :data:`DELAY_ENV` environment variable) sleeps
    before each range evaluation — the hook the straggler/chaos tests use
    to make one worker slow.  *max_ranges* bounds how many ranges this
    worker will run (``None`` = until the whole run is done).
    """
    from .shard import ShardSpec, run_range, shard_store_path
    from ..serve.client import FlowServiceClient, ServeClientError

    start = time.perf_counter()
    worker = worker_id or default_worker_id()
    if range_delay_s is None:
        delay_text = os.environ.get(DELAY_ENV, "")
        range_delay_s = float(delay_text) if delay_text else 0.0
    client = FlowServiceClient(url)
    plan = ExplorationPlan.from_json_dict(client.scheduler_plan()["plan"])
    lease_timeout = float(client.scheduler_status()["lease_timeout_s"])
    config = plan.explore_config(cache_dir=cache_dir)
    if work_dir is None:
        work_dir = Path(f".repro-explore/worker-{worker}")
    base = (
        Path(shared_store) if shared_store is not None
        else Path(work_dir) / "run.jsonl"
    )
    result = ScheduledWorkerResult(worker=worker)
    deadline = time.monotonic() + timeout_s

    while max_ranges is None or result.ranges_completed < max_ranges:
        if time.monotonic() > deadline:
            raise SchedulerError(
                f"worker {worker} exceeded its {timeout_s:.0f} s session limit"
            )
        # A transport failure mid-session means the daemon is gone — the
        # schedule either finished (it exits on completion) or died; either
        # way there is nothing left for this worker to do.
        try:
            ack = client.scheduler_lease(worker)
            if not ack.get("granted"):
                if ack.get("all_done"):
                    break
                ack = client.scheduler_steal(worker)
        except ServeClientError as error:
            if error.status == 0:
                break
            raise
        if not ack.get("granted"):
            if ack.get("all_done"):
                break
            time.sleep(max(0.01, float(ack.get("retry_after_s", poll_s))))
            continue
        if ack.get("stolen_from"):
            result.ranges_stolen += 1
        lease_id = str(ack["lease_id"])
        index = int(ack["range_index"])
        if range_delay_s > 0:
            time.sleep(range_delay_s)
        store_path = shard_store_path(base, index, plan.range_count)
        with _LeaseRenewer(client, lease_id, lease_timeout / 3.0):
            shard_result = run_range(
                plan.space,
                config,
                ShardSpec(index, plan.range_count),
                store_path,
                resume=store_path.exists(),
            )
        result.points_evaluated += shard_result.on_shard
        result.flow_evaluated += shard_result.flow_evaluated
        result.failures += shard_result.failures
        try:
            if shared_store is not None:
                done = client.scheduler_complete(
                    lease_id, store_path=str(store_path)
                )
            else:
                done = client.scheduler_complete(
                    lease_id,
                    store_data=store_path.read_text(encoding="utf-8"),
                )
        except ServeClientError as error:
            if error.status == 0:
                break  # daemon gone; the local shard store is still on disk
            raise
        disposition = str(done.get("disposition"))
        result.ranges_completed += 1
        if disposition == "duplicate":
            result.ranges_duplicate += 1
        elif disposition == "late":
            result.ranges_late += 1
        if done.get("all_done"):
            break

    result.wall_time = time.perf_counter() - start
    return result
