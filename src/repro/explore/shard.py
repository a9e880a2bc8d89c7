"""Sharded distributed exploration: fingerprint-range partitioning.

A :class:`ShardSpec` names one of *N* disjoint slices of the design space,
cut by point-fingerprint range: the first 64 bits of a point's sha256
content fingerprint (already the run-store key) are mapped onto shard
``floor(h * N / 2**64)``.  Shard membership is therefore a **pure function
of the point** — no coordination, no shared state, no assignment table —
and the N ranges are a disjoint cover of the fingerprint space for any N
(property-tested in ``tests/test_explore_sharded.py``).

Each shard worker replays the *same* strategy trajectory the unsharded run
would walk (same seed, same budget, same proposal order) but evaluates only
the points whose fingerprint falls in its range; everything else is skipped
without flow work.  The union of the shards' evaluated points is therefore
exactly the unsharded run's evaluated set, which is what makes the merged
frontier byte-identical to the unsharded frontier (see
:mod:`repro.explore.merge`).  Replay is only sound for strategies whose
proposals do not depend on observed *metrics* (``grid``, ``random`` — the
:attr:`~repro.explore.strategies.SearchStrategy.shardable` flag); adaptive
strategies (``greedy``, ``anneal``) would diverge without the off-shard
outcomes and are refused up front.

One function runs a range: :func:`run_range` opens the range's
``<store>.shard-<i>-of-<n>.jsonl`` store and runs the
:class:`~repro.explore.engine.Explorer` on it with an in-process
:class:`~repro.synth.flow_engine.FlowEngine` over the shared
content-addressed disk cache.  :func:`run_sharded` maps it over the N
ranges in a process pool and merges the stores; a scheduled worker
(:mod:`repro.explore.scheduler`) calls it once per leased range; ``repro
explore --shard-index`` runs the same explorer on the same store.  A killed
worker loses at most one partial JSONL line, which the store heals on
resume — restarting a sharded run re-evaluates zero already-done flow jobs.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, List, Tuple, Union

from ..errors import ExplorationError
from .merge import MergeResult, merge_stores
from .space import SearchSpace

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from .engine import ExplorationResult, ExploreConfig

#: Bits of the sha256 fingerprint the range partition is computed over.
SHARD_KEY_BITS = 64

#: Exclusive upper bound of the shard key space.
SHARD_KEY_SPACE = 1 << SHARD_KEY_BITS


def shard_key(fingerprint: str) -> int:
    """The 64-bit range key of a point fingerprint (its leading 16 hex digits)."""
    if len(fingerprint) < SHARD_KEY_BITS // 4:
        raise ExplorationError(
            f"fingerprint {fingerprint!r} is too short for a shard key"
        )
    try:
        return int(fingerprint[: SHARD_KEY_BITS // 4], 16)
    except ValueError:
        raise ExplorationError(f"fingerprint {fingerprint!r} is not hexadecimal")


def shard_of(fingerprint: str, shard_count: int) -> int:
    """Which of *shard_count* contiguous ranges *fingerprint* falls in.

    Pure, stateless and stable across processes: ``floor(h * N / 2**64)``
    for the 64-bit key *h*.  Every key lands in exactly one shard and the
    shard boundaries are monotone in the key, so the N ranges partition the
    fingerprint space for any N >= 1.
    """
    if shard_count < 1:
        raise ExplorationError(f"shard count must be >= 1, got {shard_count}")
    return (shard_key(fingerprint) * shard_count) >> SHARD_KEY_BITS


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an N-way fingerprint-range partition."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ExplorationError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ExplorationError(
                f"shard index {self.index} outside 0..{self.count - 1}"
            )

    def contains(self, fingerprint: str) -> bool:
        """Whether *fingerprint* belongs to this shard's range."""
        return shard_of(fingerprint, self.count) == self.index

    def key_range(self) -> Tuple[int, int]:
        """The half-open ``[low, high)`` 64-bit key range of this shard."""
        low = -(-self.index * SHARD_KEY_SPACE // self.count)  # ceil division
        high = -(-(self.index + 1) * SHARD_KEY_SPACE // self.count)
        return low, high

    def describe(self) -> str:
        """One-line human readable summary."""
        low, high = self.key_range()
        return (
            f"shard {self.index + 1}/{self.count} "
            f"(keys {low:#018x}..{high - 1:#018x})"
        )


def shard_store_path(
    base: Union[str, Path], index: int, count: int
) -> Path:
    """The conventional shard-store path ``<store>.shard-<i>-of-<n>.jsonl``.

    A ``.jsonl`` suffix on *base* is replaced, so ``run.jsonl`` shards to
    ``run.shard-0-of-2.jsonl`` and friends next to it.
    """
    base = Path(base)
    stem = base.name[: -len(".jsonl")] if base.name.endswith(".jsonl") else base.name
    return base.with_name(f"{stem}.shard-{index}-of-{count}.jsonl")


def shard_store_paths(base: Union[str, Path], count: int) -> List[Path]:
    """Every shard-store path of an N-way run, in shard order."""
    return [shard_store_path(base, index, count) for index in range(count)]


# ---------------------------------------------------------------------------
# The range runner and the parallel shard driver
# ---------------------------------------------------------------------------

def run_range(
    space: SearchSpace,
    config: "ExploreConfig",
    shard: ShardSpec,
    store_path: Union[str, Path],
    resume: bool = False,
) -> "ExplorationResult":
    """Run one range of *space* into its shard store and return the result.

    :func:`run_sharded` maps it over its ranges and a scheduled worker runs
    it once per lease.  The explorer replays *config*'s whole trajectory
    but evaluates only *shard*'s points, so the store it writes is a
    function of ``(space, config, shard)`` alone.
    """
    from .engine import Explorer, open_run_store

    # Ranges ARE the parallelism: each keeps its flow engine in-process so
    # N ranges never nest N process pools.
    config = replace(config, workers=0)
    with open_run_store(store_path, space, config, resume=resume) as store:
        return Explorer(space, config=config, store=store, shard=shard).run()


@dataclass
class ShardedExplorationResult:
    """A whole N-way sharded exploration: per-shard runs plus the merged front."""

    space: SearchSpace
    shard_count: int
    merge: MergeResult
    #: One exploration result per shard, in shard order.
    shards: List["ExplorationResult"] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def front(self):
        """The merged union Pareto front."""
        return self.merge.front

    @property
    def flow_evaluated(self) -> int:
        """Flow jobs run across every shard."""
        return sum(shard.flow_evaluated for shard in self.shards)

    @property
    def failures(self) -> int:
        """Failed evaluations across every shard."""
        return sum(shard.failures for shard in self.shards)

    @property
    def ok(self) -> bool:
        """Whether every evaluated point produced a finished design."""
        return self.failures == 0

    def describe(self) -> str:
        """One-line human readable summary."""
        evaluated = sum(shard.on_shard for shard in self.shards)
        return (
            f"sharded exploration over {self.shard_count} shard(s): "
            f"{evaluated} point(s) evaluated ({self.flow_evaluated} "
            f"flow-evaluated, {self.failures} failed) in {self.wall_time:.2f} s; "
            f"{self.front.describe()}"
        )


def run_sharded(
    space: SearchSpace,
    config: "ExploreConfig",
    shard_count: int,
    store_base: Union[str, Path],
    resume: bool = False,
) -> ShardedExplorationResult:
    """Explore *space* as *shard_count* parallel shard workers, then merge.

    Each worker process runs :func:`run_range` on one fingerprint range,
    writing ``<store_base>.shard-<i>-of-<n>.jsonl``, and the shard stores
    are folded into one union Pareto front over *config*'s objectives.
    Same seed + budget + shard count is byte-deterministic: the merged
    front is identical regardless of shard completion order, and identical
    to the unsharded run's front.
    """
    from .engine import ExploreConfig
    from .strategies import assert_shardable

    if shard_count < 1:
        raise ExplorationError(f"shard count must be >= 1, got {shard_count}")
    if not isinstance(config, ExploreConfig):
        raise ExplorationError("run_sharded needs an ExploreConfig")
    assert_shardable(config.strategy)

    start = time.perf_counter()
    paths = shard_store_paths(store_base, shard_count)
    specs = [ShardSpec(index, shard_count) for index in range(shard_count)]
    run = partial(run_range, space, config, resume=resume)
    if shard_count == 1:
        shards = [run(specs[0], paths[0])]
    else:
        with ProcessPoolExecutor(max_workers=shard_count) as pool:
            shards = list(pool.map(run, specs, paths))
    return ShardedExplorationResult(
        space=space,
        shard_count=shard_count,
        merge=merge_stores(paths, objectives=config.objectives),
        shards=shards,
        wall_time=time.perf_counter() - start,
    )
