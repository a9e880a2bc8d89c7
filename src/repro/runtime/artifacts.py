"""The content-addressed artifact store: the one disk cache of every stage.

Every stage of the design-flow pipeline — including the partition stage,
whose solved outcomes :class:`~repro.runtime.cache.ResultCache` stores here
keyed by job fingerprint — registers a name and a version tag, keys each
artifact by a content digest of its inputs, and gets

* an in-process LRU per stage (any Python object),
* an optional on-disk JSON layer per stage (only for stages that provide a
  JSON-able payload), laid out as ``<root>/stages/<stage>/<digest>.json``
  and optionally bounded to the newest ``max_entries`` files per stage,
* per-stage hit/miss/store accounting the engines surface in reports.

Disk writes are atomic (temp file + rename), and a truncated, corrupt or
undecodable entry is a logged miss that is removed so the next store
repairs it.  Version tags are baked into every entry: a disk file written
under an older stage version is treated as a miss and removed, so bumping
a stage's ``version`` invalidates its stale disk entries without touching
the rest of the cache.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .cache import CacheStats, LruCache

logger = logging.getLogger(__name__)

#: Environment variable overriding the default shared cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Conventional shared disk-cache root used when no directory is chosen.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory of a cache root holding the per-stage artifact directories.
STAGE_SUBDIR = "stages"


def default_cache_dir() -> Path:
    """The conventional shared cache root (``$REPRO_CACHE_DIR`` overrides)."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


@dataclass
class StageStats(CacheStats):
    """Cache accounting for one pipeline stage.

    Extends the result-cache counters with ``runs`` — the number of times
    the stage's transform actually executed (every miss that was followed
    by a computation, which is what "zero HLS estimations" assertions
    count).
    """

    runs: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Flat dict of every counter."""
        from dataclasses import asdict

        return asdict(self)


class ArtifactStore:
    """Per-stage memory + optional disk cache of content-addressed artifacts.

    Parameters
    ----------
    cache_dir:
        Optional shared cache root.  Stage artifacts land under
        ``<cache_dir>/stages/<stage>/``; ``None`` keeps every stage
        memory-only.
    lru_capacity:
        Entries kept per stage in the in-process LRU.
    max_entries:
        Optional bound on every stage directory: after each disk write the
        stage's oldest-mtime files beyond it are pruned (``None`` =
        unbounded).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        lru_capacity: int = 256,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: ``<cache_dir>/stages`` as a string: entry paths are joined as
        #: strings, since pathlib interns every part of every path it builds.
        self._stage_root = (
            os.path.join(cache_dir, STAGE_SUBDIR) if cache_dir is not None else None
        )
        self.lru_capacity = lru_capacity
        self.max_entries = max_entries
        self._memory: Dict[str, LruCache] = {}
        self._stats: Dict[str, StageStats] = {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def stats_for(self, stage: str) -> StageStats:
        """The (mutable) counters of one stage, created on first use."""
        if stage not in self._stats:
            self._stats[stage] = StageStats()
        return self._stats[stage]

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counter dicts, keyed by stage name."""
        return {
            stage: stats.snapshot() for stage, stats in sorted(self._stats.items())
        }

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def _memory_for(self, stage: str) -> LruCache:
        if stage not in self._memory:
            self._memory[stage] = LruCache(self.lru_capacity)
        return self._memory[stage]

    def _disk_path(self, stage: str, digest: str) -> Optional[str]:
        if self._stage_root is None:
            return None
        return os.path.join(self._stage_root, stage, digest + ".json")

    def get(
        self, stage: str, version: int, digest: str, decode=None
    ) -> Tuple[Optional[object], str]:
        """Look one artifact up; returns ``(value, source)``.

        *source* is ``"memory-cache"``, ``"disk-cache"`` or ``""`` (miss).
        *decode* turns the stored JSON payload back into the in-memory
        artifact for disk hits; a stage without a decoder is memory-only.
        A disk entry written under a different *version* is removed and
        treated as a miss — the version tag, not the file's age, decides
        staleness.
        """
        stats = self.stats_for(stage)
        memory = self._memory_for(stage)
        cached = memory.get(digest)
        if cached is not None:
            stats.memory_hits += 1
            return cached, "memory-cache"
        path = self._disk_path(stage, digest) if decode is not None else None
        if path is not None:
            payload = self._read_disk(path, stage, version)
            if payload is not None:
                try:
                    value = decode(payload)
                except Exception as error:  # noqa: BLE001 - corrupt payload = miss
                    logger.warning(
                        "treating undecodable %s artifact %s as a miss (%s: %s)",
                        stage, os.path.basename(path), type(error).__name__, error,
                    )
                    self._unlink_quietly(path)
                else:
                    stats.disk_hits += 1
                    memory.put(digest, value)
                    return value, "disk-cache"
        stats.misses += 1
        return None, ""

    def put(
        self, stage: str, version: int, digest: str, value: object, encode=None
    ) -> None:
        """Store one artifact in memory and (when *encode* is given) on disk."""
        stats = self.stats_for(stage)
        stats.stores += 1
        self._memory_for(stage).put(digest, value)
        path = self._disk_path(stage, digest) if encode is not None else None
        if path is None:
            return
        try:
            payload = encode(value)
            self._write_disk(path, stage, version, payload)
        except OSError:
            # The disk layer is an optimisation; a full or read-only volume
            # must never fail the stage that already computed its artifact.
            stats.disk_write_errors += 1
            return
        if self.max_entries is not None:
            directory, name = os.path.split(path)
            stats.disk_pruned += _prune_oldest(directory, self.max_entries, keep=name)

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------

    def _read_disk(self, path: str, stage: str, version: int):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            logger.warning(
                "treating corrupt %s artifact %s as a miss (%s: %s)",
                stage, os.path.basename(path), type(error).__name__, error,
            )
            self._unlink_quietly(path)
            return None
        if not isinstance(data, dict) or data.get("version") != version:
            logger.info(
                "dropping stale %s artifact %s (stored version %r, current %r)",
                stage, os.path.basename(path),
                data.get("version") if isinstance(data, dict) else None, version,
            )
            self._unlink_quietly(path)
            return None
        return data.get("payload")

    def _write_disk(self, path: str, stage: str, version: int, payload) -> None:
        # One-shot ``dumps`` runs CPython's C encoder; a streaming ``dump``
        # walks the payload in pure Python.  The text is the same.
        text = json.dumps({"stage": stage, "version": version, "payload": payload})
        directory, name = os.path.split(path)
        os.makedirs(directory, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w",
            encoding="utf-8",
            dir=directory,
            prefix=f".{os.path.splitext(name)[0][:12]}-",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(text)
            os.replace(handle.name, path)
        except OSError:
            self._unlink_quietly(handle.name)
            raise

    @staticmethod
    def _unlink_quietly(path: Union[str, Path]) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def clear(self) -> None:
        """Drop every stage's memory layer and remove every disk artifact."""
        for memory in self._memory.values():
            memory.clear()
        if self.cache_dir is None:
            return
        stage_root = self.cache_dir / STAGE_SUBDIR
        if not stage_root.is_dir():
            return
        for path in stage_root.glob("*/*.json"):
            self._unlink_quietly(path)


@dataclass
class CacheAreaReport:
    """One area of the shared disk-cache layout (for ``repro cache``)."""

    name: str
    directory: Path
    entries: int = 0
    bytes: int = 0
    files: list = field(default_factory=list)


def scan_cache_dir(root: Union[str, Path]) -> list:
    """Describe every area of a shared cache root.

    Each ``stages/<stage>/`` subdirectory is one stage's artifact cache
    (``stage:partition`` holds the solved partition outcomes).  Returns a
    :class:`CacheAreaReport` per area.
    """
    stage_root = Path(root) / STAGE_SUBDIR
    if not stage_root.is_dir():
        return []
    areas = []
    for stage_dir in sorted(p for p in stage_root.iterdir() if p.is_dir()):
        area = CacheAreaReport(name=f"stage:{stage_dir.name}", directory=stage_dir)
        for path in sorted(stage_dir.glob("*.json")):
            area.files.append(path)
            area.entries += 1
            try:
                area.bytes += path.stat().st_size
            except OSError:
                continue
        areas.append(area)
    return areas


def _prune_oldest(directory: Union[str, Path], max_entries: int, keep: str = "") -> int:
    """Remove the oldest-mtime ``*.json`` files of *directory* beyond *max_entries*.

    The file named *keep* (the entry a store just wrote) counts towards the
    bound but is never a candidate: on filesystems with coarse mtime
    granularity the name tie-break could otherwise evict the entry whose
    store triggered the prune.  Files removed concurrently by another
    process are skipped.  Returns the number of files removed.
    """
    stamped = []
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                if not entry.name.endswith(".json") or entry.name == keep:
                    continue
                try:
                    stamped.append((entry.stat().st_mtime, entry.name, entry.path))
                except OSError:
                    continue
    except OSError:  # the directory itself is gone or unreadable
        return 0
    excess = len(stamped) + (1 if keep else 0) - max_entries
    removed = 0
    for _mtime, _name, path in sorted(stamped)[: max(excess, 0)]:
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
    return removed


def prune_cache_dir(root: Union[str, Path], max_entries: int) -> int:
    """Prune every cache area of *root* down to *max_entries* files each.

    Oldest-mtime entries go first (the same policy as a bounded
    :class:`ArtifactStore`).  Returns the number of files removed across
    all areas.
    """
    if max_entries < 0:
        raise ValueError("max_entries must be non-negative")
    return sum(
        _prune_oldest(area.directory, max_entries) for area in scan_cache_dir(root)
    )


def clear_cache_dir(root: Union[str, Path]) -> int:
    """Remove every cached file under *root*; returns the number removed."""
    removed = 0
    for area in scan_cache_dir(root):
        for path in area.files:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed
