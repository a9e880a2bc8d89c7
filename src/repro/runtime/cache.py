"""Result caching for the partitioning engine.

* :class:`LruCache` — in-process, bounded, O(1) recency updates (the memory
  layer of every :class:`~repro.runtime.artifacts.ArtifactStore` stage);
* :class:`ResultCache` — the :class:`JobOutcome` codec over the store's
  ``partition`` stage: memory first, then ``<root>/stages/partition/``
  (promoting disk hits into memory), with the hit/miss/store counters the
  engine reports.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .jobs import JobOutcome

if TYPE_CHECKING:
    from .artifacts import ArtifactStore

#: The artifact-store stage holding solved partition outcomes, keyed by
#: :meth:`~repro.runtime.jobs.PartitionJob.fingerprint`.
PARTITION_STAGE = "partition"

#: Version tag of the partition stage, shared with the stage keys of
#: :mod:`repro.synth.stages`.  A bump drops every stored outcome.
#: v2: stronger preprocessing lower bound (cardinality), symmetry breaking
#: and cardinality cuts for the built-in backend, and the anneal/portfolio
#: partitioners — cached v1 partition results may differ in assignment.
#: v3: the multilevel pre-partitioner family and the nonenumerative Eq. 7
#: path generation (path constraints now enter the ILP in delay order, so
#: solver traces — though not optima — can differ from v2).
#: v4: the always-on delay-bound row (``sum_p d_p >= delay_lower_bound``)
#: and the stronger portfolio certificate — the ILP may return a different
#: optimum with the same objective, and more portfolio runs certify.
PARTITION_VERSION = 4


class LruCache:
    """A bounded least-recently-used mapping from key to value."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[object]:
        """The cached value, refreshed to most-recently-used, or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: object) -> None:
        """Insert/refresh an entry, evicting the least recently used one."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()


@dataclass
class CacheStats:
    """Counters the engine exposes for cache accounting."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_write_errors: int = 0
    disk_pruned: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both layers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses


class ResultCache:
    """Solved :class:`JobOutcome` records in the store's partition stage.

    The counters are the stage's own (:attr:`stats` is the store's
    ``partition`` :class:`~repro.runtime.artifacts.StageStats`).
    """

    def __init__(self, store: "ArtifactStore") -> None:
        self.store = store
        self.stats = store.stats_for(PARTITION_STAGE)

    def get(self, fingerprint: str) -> Optional[JobOutcome]:
        """Look up one fingerprint (memory first, then disk)."""
        outcome, _source = self.store.get(
            PARTITION_STAGE,
            PARTITION_VERSION,
            fingerprint,
            decode=JobOutcome.from_json_dict,
        )
        return outcome

    def put(self, fingerprint: str, outcome: JobOutcome) -> None:
        """Store a successful outcome in every layer.

        Failures are never cached: a timeout under one limit or a crash is
        not a property of the problem.
        """
        if outcome.ok:
            self.store.put(
                PARTITION_STAGE,
                PARTITION_VERSION,
                fingerprint,
                outcome,
                encode=JobOutcome.to_json_dict,
            )
