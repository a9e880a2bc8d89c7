"""The Pareto-merge fold: union shard (or any) run stores into one front.

The dominance laws proven for :class:`~repro.explore.pareto.ParetoFront`
(irreflexive, antisymmetric, transitive strict dominance with incremental
eviction) make merging a *fold*: offering every stored record to one front
yields exactly the non-dominated subset of the union, independent of the
order the stores — or the records inside them — arrive in.  The laws this
module leans on, property-tested in ``tests/test_explore_sharded.py``:

* **union law** — ``front(A ∪ B) == fold(front(A), front(B))``: merging the
  per-shard fronts equals the front of all the records together;
* **order invariance** — any permutation of stores/records folds to the
  same front (so shard completion order never matters);
* **idempotence** — folding a store in twice changes nothing (records are
  keyed by content fingerprint, and evaluation is deterministic).

Stores are read through :func:`repro.explore.store.read_store` — strictly
read-only, so merging never mutates a store a live shard worker may still
be appending to; a torn trailing line (a worker killed mid-append) is
logged and dropped, exactly as resume would heal it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..errors import ExplorationError
from .objectives import resolve_objectives
from .pareto import ParetoFront
from .store import PointRecord, read_store


@dataclass
class MergeResult:
    """One Pareto-merge fold over a set of run stores."""

    front: ParetoFront
    #: Records folded per store path, in the given store order.
    sources: Dict[str, int] = field(default_factory=dict)
    records: int = 0  # ok records offered to the front
    failed: int = 0  # failed records skipped (they carry no metrics)
    duplicates: int = 0  # same-fingerprint records seen again across stores
    merge_time: float = 0.0

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"merged {len(self.sources)} store(s): {self.records} record(s) "
            f"folded ({self.duplicates} duplicate(s), {self.failed} failed) "
            f"in {self.merge_time:.3f} s; {self.front.describe()}"
        )


def describe_context_mismatch(
    stored: Dict[str, object], expected: Dict[str, object]
) -> str:
    """Name every context field the two evaluation contexts disagree on.

    Renders ``field: stored != expected`` per mismatching field (absent
    fields show as ``<absent>``), so the error pinpoints *which* knob —
    e.g. ``eval_blocks`` — differs instead of dumping two dicts.
    """
    def render(values: Dict[str, object], name: str) -> str:
        return repr(values[name]) if name in values else "<absent>"

    mismatched = sorted(
        name
        for name in set(stored) | set(expected)
        if stored.get(name) != expected.get(name)
    )
    return ", ".join(
        f"{name}: {render(stored, name)} != {render(expected, name)}"
        for name in mismatched
    ) or "none"


def merge_records(
    records: Sequence[PointRecord],
    objectives: Sequence[str] = ("latency", "throughput"),
    front: Optional[ParetoFront] = None,
) -> ParetoFront:
    """Fold *records* into a (possibly pre-seeded) Pareto front.

    Failed records carry no metrics and are skipped; everything else is
    offered to the front under the named objectives.  The result is the
    non-dominated subset of the union — independent of record order.
    """
    if front is None:
        front = ParetoFront(resolve_objectives(tuple(objectives)))
    for record in records:
        if record.ok:
            front.add(record.point, record.metrics, record.fingerprint)
    return front


def merge_fronts(fronts: Sequence[ParetoFront]) -> ParetoFront:
    """Fold several fronts (over the same objectives) into their union front."""
    if not fronts:
        raise ExplorationError("merge_fronts needs at least one front")
    objectives = fronts[0].objectives
    for front in fronts[1:]:
        if front.objectives != objectives:
            raise ExplorationError(
                "cannot merge fronts over different objective selections"
            )
    merged = ParetoFront(objectives)
    for front in fronts:
        for entry in front.entries():
            merged.add(entry.point, entry.metrics, entry.fingerprint)
    return merged


def merge_stores(
    paths: Sequence[Union[str, Path]],
    objectives: Sequence[str] = ("latency", "throughput"),
) -> MergeResult:
    """Read every store read-only and fold them into one union front.

    Stores written under different evaluation contexts (``eval_blocks``)
    carry incomparable metrics, so a context mismatch across the given
    stores is an error rather than a silently wrong frontier.  Missing
    stores are an error too — a sharded run that lost a whole shard store
    has lost data, not just a line.
    """
    if not paths:
        raise ExplorationError("merge_stores needs at least one store path")
    start = time.perf_counter()
    result = MergeResult(
        front=ParetoFront(resolve_objectives(tuple(objectives)))
    )
    context: Optional[Dict[str, object]] = None
    context_path: Optional[Path] = None
    seen: set = set()
    for path in paths:
        path = Path(path)
        meta, records = read_store(path)
        stored_context = dict(meta.get("context") or {})
        if context is None:
            context, context_path = stored_context, path
        elif stored_context != context:
            raise ExplorationError(
                f"run store {path} was recorded under a different "
                f"evaluation context than {context_path} — mismatching "
                f"field(s): {describe_context_mismatch(stored_context, context)}; "
                "their metrics are not comparable — merge stores from one "
                "context"
            )
        result.sources[str(path)] = len(records)
        for record in records:
            if record.fingerprint in seen:
                result.duplicates += 1
            seen.add(record.fingerprint)
            if not record.ok:
                result.failed += 1
                continue
            result.records += 1
            result.front.add(record.point, record.metrics, record.fingerprint)
    result.merge_time = time.perf_counter() - start
    return result
