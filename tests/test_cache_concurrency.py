"""Multiprocess stress tests for the shared disk cache.

Two writer processes hammer the *same* key of the :class:`ArtifactStore`,
both through :class:`ResultCache` (partition outcomes) and as raw stage
artifacts, while the parent reads concurrently.  The writes are atomic
(temp file + ``os.replace``), so every read must observe either a miss or
one complete, valid payload — never a torn mixture — and no temporary files
may survive a clean finish.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.runtime.artifacts import ArtifactStore
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobOutcome, JobStatus

FINGERPRINT = "f" * 64
STAGE = "estimate"
STAGE_VERSION = 1
DIGEST = "d" * 64
WRITES_PER_PROCESS = 150
READS = 400


def _outcome(writer: int, iteration: int) -> JobOutcome:
    """A recognisable, internally consistent outcome for one write."""
    return JobOutcome(
        fingerprint=FINGERPRINT,
        status=JobStatus.SOLVED,
        assignment={"a": 1, "b": writer + 1},
        partition_count=writer + 1,
        total_latency=float(iteration),
        computation_latency=float(iteration),
        method=f"writer-{writer}",
        backend="stress",
    )


def _outcome_cache(root, max_entries=None) -> ResultCache:
    """A partition-outcome cache over a fresh store.

    A fresh store per read defeats the in-process LRU, so every lookup
    actually exercises the shared disk layer.
    """
    return ResultCache(ArtifactStore(cache_dir=root, max_entries=max_entries))


def _partition_dir(root):
    return root / "stages" / "partition"


def _hammer_disk_cache(directory: str, writer: int) -> None:
    cache = _outcome_cache(directory)
    for iteration in range(WRITES_PER_PROCESS):
        cache.put(FINGERPRINT, _outcome(writer, iteration))


def _hammer_artifact_store(root: str, writer: int) -> None:
    store = ArtifactStore(cache_dir=root)
    for iteration in range(WRITES_PER_PROCESS):
        payload = {"writer": writer, "iteration": iteration, "blob": "x" * 512}
        store.put(STAGE, STAGE_VERSION, DIGEST, payload, encode=lambda value: value)


PRUNE_MAX_ENTRIES = 8
PRUNE_WRITES_PER_PROCESS = 120


def _prune_key(writer: int, iteration: int) -> str:
    """A distinct, filename-safe fingerprint per (writer, iteration)."""
    return f"{writer:02d}{iteration:05d}".ljust(64, "e")


def _hammer_pruning_cache(directory: str, writer: int) -> None:
    cache = _outcome_cache(directory, max_entries=PRUNE_MAX_ENTRIES)
    for iteration in range(PRUNE_WRITES_PER_PROCESS):
        cache.put(_prune_key(writer, iteration), _outcome(writer, iteration))


def _run_writers(target, args_for):
    context = multiprocessing.get_context("spawn")
    writers = [
        context.Process(target=target, args=args_for(writer)) for writer in (0, 1)
    ]
    for process in writers:
        process.start()
    return writers


def _join_all(writers):
    for process in writers:
        process.join(timeout=120)
        assert process.exitcode == 0, f"writer crashed with {process.exitcode}"


class TestDiskCacheConcurrentWriters:
    """Partition outcomes on disk, written through :class:`ResultCache`."""

    def test_same_key_writers_never_produce_a_torn_read(self, tmp_path):
        writers = _run_writers(
            _hammer_disk_cache, lambda writer: (str(tmp_path), writer)
        )
        observed = 0
        try:
            # Wait out the spawn start-up so the read loop genuinely races
            # the writers instead of finishing before the first write lands.
            deadline = time.monotonic() + 60
            while _outcome_cache(tmp_path).get(FINGERPRINT) is None:
                assert time.monotonic() < deadline, "writers never wrote"
                time.sleep(0.01)
            for _ in range(READS):
                outcome = _outcome_cache(tmp_path).get(FINGERPRINT)
                if outcome is None:
                    continue  # transiently treated-as-corrupt: a miss, never an error
                observed += 1
                # Internal consistency proves the payload was not torn: the
                # partition count always matches the writer id baked into
                # the assignment by the same write.
                assert outcome.status is JobStatus.SOLVED
                assert outcome.partition_count in (1, 2)
                assert outcome.assignment["b"] == outcome.partition_count
                assert outcome.method == f"writer-{outcome.partition_count - 1}"
        finally:
            _join_all(writers)
        assert observed > 0, "the read loop never raced a completed write"
        final = _outcome_cache(tmp_path).get(FINGERPRINT)
        assert final is not None and final.partition_count in (1, 2)
        assert not list(_partition_dir(tmp_path).glob("*.tmp")), (
            "temporary write files leaked"
        )

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        _outcome_cache(tmp_path).put(FINGERPRINT, _outcome(0, 0))
        (_partition_dir(tmp_path) / f"{FINGERPRINT}.json").write_text(
            "{ torn", encoding="utf-8"
        )
        assert _outcome_cache(tmp_path).get(FINGERPRINT) is None
        # The next write repairs the entry.
        _outcome_cache(tmp_path).put(FINGERPRINT, _outcome(1, 1))
        assert _outcome_cache(tmp_path).get(FINGERPRINT).partition_count == 2


class TestDiskCachePruningUnderConcurrency:
    """A bounded cache pruning entries out from under concurrent readers.

    Two writer processes stream *distinct* keys through a small
    ``max_entries`` bound, so every store prunes — files vanish constantly
    while the parent lists and reads them.  A read racing a prune must be
    a miss, never an error and never a torn payload; the bound must hold
    once the writers finish; and no temp files may leak.
    """

    def test_pruning_while_reading_is_a_miss_never_an_error(self, tmp_path):
        directory = _partition_dir(tmp_path)
        writers = _run_writers(
            _hammer_pruning_cache, lambda writer: (str(tmp_path), writer)
        )
        hits = 0
        try:
            deadline = time.monotonic() + 60
            while not list(directory.glob("*.json")):
                assert time.monotonic() < deadline, "writers never wrote"
                time.sleep(0.01)
            for _ in range(READS):
                # Read whatever is present *right now*: by the time the
                # read happens the pruner may already have deleted it,
                # which is exactly the race under test.
                for path in list(directory.glob("*.json"))[:4]:
                    outcome = _outcome_cache(tmp_path).get(path.stem)
                    if outcome is None:
                        continue  # pruned (or repruned) between list and read
                    hits += 1
                    assert outcome.status is JobStatus.SOLVED
                    assert outcome.partition_count in (1, 2)
                    assert outcome.assignment["b"] == outcome.partition_count
                    assert outcome.method == f"writer-{outcome.partition_count - 1}"
        finally:
            _join_all(writers)
        assert hits > 0, "the read loop never overlapped a live entry"
        # One more bounded store re-establishes the invariant regardless of
        # how the two pruners' final removals interleaved.
        _outcome_cache(tmp_path, max_entries=PRUNE_MAX_ENTRIES).put(
            _prune_key(9, 0), _outcome(0, 0)
        )
        remaining = list(directory.glob("*.json"))
        assert len(remaining) <= PRUNE_MAX_ENTRIES
        assert not list(directory.glob("*.tmp")), "temporary write files leaked"

    def test_prune_never_evicts_the_entry_just_written(self, tmp_path):
        cache = _outcome_cache(tmp_path, max_entries=2)
        for iteration in range(10):
            key = _prune_key(0, iteration)
            cache.put(key, _outcome(0, iteration))
            assert _outcome_cache(tmp_path).get(key) is not None, (
                "prune evicted its own store"
            )
        assert len(list(_partition_dir(tmp_path).glob("*.json"))) <= 2
        assert cache.stats.disk_pruned >= 8


class TestArtifactStoreConcurrentWriters:
    def test_same_stage_key_writers_never_produce_a_torn_read(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        writers = _run_writers(
            _hammer_artifact_store, lambda writer: (str(tmp_path), writer)
        )
        try:
            for _ in range(READS):
                # A fresh store per read defeats the in-process LRU, so every
                # lookup actually exercises the shared disk layer.
                reader = ArtifactStore(cache_dir=tmp_path)
                value, source = reader.get(
                    STAGE, STAGE_VERSION, DIGEST, decode=lambda payload: payload
                )
                if value is None:
                    continue
                assert source == "disk-cache"
                assert value["writer"] in (0, 1)
                assert value["blob"] == "x" * 512
                assert 0 <= value["iteration"] < WRITES_PER_PROCESS
        finally:
            _join_all(writers)
        reader = ArtifactStore(cache_dir=tmp_path)
        value, source = reader.get(
            STAGE, STAGE_VERSION, DIGEST, decode=lambda payload: payload
        )
        assert value is not None and source == "disk-cache"
        stage_dir = tmp_path / "stages" / STAGE
        assert not list(stage_dir.glob("*.tmp")), "temporary write files leaked"

    def test_version_mismatch_is_dropped_not_served(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put(STAGE, STAGE_VERSION, DIGEST, {"writer": 9}, encode=lambda v: v)
        stale = ArtifactStore(cache_dir=tmp_path)
        value, source = stale.get(
            STAGE, STAGE_VERSION + 1, DIGEST, decode=lambda payload: payload
        )
        assert value is None and source == ""
        assert not (tmp_path / "stages" / STAGE / f"{DIGEST}.json").exists()


@pytest.mark.parametrize("writers", [2, 3])
def test_interleaved_disk_and_artifact_writers(tmp_path, writers):
    """Two stages under one root, several writers each, no cross-talk."""
    context = multiprocessing.get_context("spawn")
    processes = []
    for writer in range(writers):
        processes.append(
            context.Process(target=_hammer_disk_cache, args=(str(tmp_path), writer))
        )
        processes.append(
            context.Process(target=_hammer_artifact_store, args=(str(tmp_path), writer))
        )
    for process in processes:
        process.start()
    _join_all(processes)
    outcome = _outcome_cache(tmp_path).get(FINGERPRINT)
    assert outcome is not None
    assert outcome.assignment["b"] == outcome.partition_count
    value, source = ArtifactStore(cache_dir=tmp_path).get(
        STAGE, STAGE_VERSION, DIGEST, decode=lambda payload: payload
    )
    assert value is not None and value["blob"] == "x" * 512
