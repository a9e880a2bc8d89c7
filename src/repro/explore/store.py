"""The persistent, resumable exploration run store.

A :class:`RunStore` is a :mod:`repro.jsonl` log: one meta line (schema
version, search-space fingerprint and evaluation context) followed by one
line per evaluated design point, keyed by the point's content fingerprint.
Appends are flushed line-by-line, so an interrupted exploration loses at
most the record being written.  On top of the shared format this store is
tolerant: a resume truncates a torn trailing line away and re-evaluates the
lost record, :func:`read_store` drops such a line without writing, and both
skip corrupt complete lines with a warning.  A resumed store whose meta
line never reached the disk gets one before its first record.

``path=None`` gives the same interface backed by memory only — the
exploration engine always talks to a store, persistent or not.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .. import jsonl
from ..errors import ExplorationError
from .space import DesignPoint

logger = logging.getLogger(__name__)

#: Schema version of the JSONL records; a store written under a different
#: version never silently resumes.
STORE_VERSION = 1


@dataclass
class PointRecord:
    """The stored outcome of evaluating one design point."""

    fingerprint: str
    point: DesignPoint
    status: str = "ok"  # "ok" | "failed"
    metrics: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    error_kind: str = ""
    #: Per-flow-stage cache provenance of the evaluation (stage name ->
    #: ``computed`` / ``solve`` / ``memory-cache`` / ``disk-cache`` /
    #: ``batch-dedup``), persisted so warm and cold evaluations are
    #: distinguishable in stored rows.  Provenance is a deterministic
    #: function of the trajectory AND the starting cache state: two runs
    #: from the same seed, budget and cache state (e.g. both from fresh
    #: engines, as the byte-identity tests use) write identical bytes,
    #: while a run against a pre-warmed disk cache honestly records its
    #: hits and therefore differs — that difference is the telemetry this
    #: field exists to capture, never a metrics difference.
    stage_sources: Dict[str, str] = field(default_factory=dict)
    #: Evaluation wall time of THIS run; runtime-only, never persisted —
    #: same seed + budget + cache state must yield byte-identical store
    #: files, and wall time is never deterministic.
    wall_time: float = 0.0
    source: str = "flow"  # "flow" | "store" — where THIS run got the record

    @property
    def ok(self) -> bool:
        """Whether the point produced a finished, measured design."""
        return self.status == "ok"

    def cache_hits(self) -> int:
        """Number of flow stages this evaluation served from a cache."""
        return sum(
            1
            for source in self.stage_sources.values()
            if source in ("memory-cache", "disk-cache", "batch-dedup")
        )

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form (canonically ordered for byte-stable stores)."""
        return {
            "fingerprint": self.fingerprint,
            "point": self.point.to_json_dict(),
            "status": self.status,
            "metrics": {name: self.metrics[name] for name in sorted(self.metrics)},
            "error": self.error,
            "error_kind": self.error_kind,
            "stage_sources": {
                name: self.stage_sources[name] for name in sorted(self.stage_sources)
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "PointRecord":
        """Rebuild a record from its stored form."""
        try:
            return cls(
                fingerprint=str(data["fingerprint"]),
                point=DesignPoint.from_json_dict(data["point"]),  # type: ignore[arg-type]
                status=str(data.get("status", "ok")),
                metrics={
                    str(name): float(value)
                    for name, value in dict(data.get("metrics", {})).items()
                },
                error=str(data.get("error", "")),
                error_kind=str(data.get("error_kind", "")),
                stage_sources={
                    str(name): str(value)
                    for name, value in dict(data.get("stage_sources", {})).items()
                },
                source="store",
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ExplorationError(f"malformed run-store record: {error}") from error


def _read(path: Path) -> Tuple[Dict[str, object], List[PointRecord], bytes]:
    """A store's meta line, intact records and torn tail, read-only."""
    try:
        lines, tail = jsonl.split_lines(path)
    except OSError as error:
        raise ExplorationError(f"cannot read run store {path}: {error}") from error
    what = f"run store {path}"
    meta: Dict[str, object] = {}
    records: List[PointRecord] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = jsonl.parse_line(line, errors="replace")
        except ValueError:
            logger.warning("ignoring corrupt run-store line %d of %s", number, path)
            continue
        if jsonl.is_meta(data, STORE_VERSION, what, ExplorationError):
            meta = data
            continue
        try:
            records.append(PointRecord.from_json_dict(data))
        except ExplorationError as error:
            logger.warning(
                "ignoring malformed run-store line %d of %s (%s)",
                number, path, error,
            )
    return meta, records, tail


def read_store(path: Union[str, Path]) -> Tuple[Dict[str, object], List[PointRecord]]:
    """Read a run store **read-only**: its meta line plus every intact record.

    This is the crash-tolerant loader the Pareto-merge fold uses on shard
    stores, so it must never write: a live shard worker may still hold an
    append handle on *path*.  A truncated trailing line (a worker killed
    mid-append) is logged and dropped — the record is simply not there yet;
    corrupt *complete* lines are logged and skipped; a schema-version
    mismatch is an error (the records could not be interpreted).  Records
    come back in file order, duplicates included — the fold is idempotent
    by fingerprint, so callers need no dedup of their own.
    """
    path = Path(path)
    meta, records, tail = _read(path)
    if tail:
        logger.warning(
            "dropping partial trailing line of %s (interrupted write)", path
        )
    return meta, records


class RunStore:
    """Append-only JSONL store of evaluated design points."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        space_fingerprint: str = "",
        resume: bool = True,
        context: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.space_fingerprint = space_fingerprint
        #: Evaluation context (e.g. ``eval_blocks``) the stored metrics were
        #: computed under; a resume with a *different* context would silently
        #: serve stale numbers, so a mismatch is an error, like the version.
        self.context: Dict[str, object] = dict(context or {})
        #: Records by fingerprint, in first-insertion order.
        self._records: Dict[str, PointRecord] = {}
        self._writer: Optional[jsonl.LineWriter] = None
        if self.path is None:
            return
        resuming = resume and self.path.exists()
        meta = self._load() if resuming else {}
        self._writer = jsonl.LineWriter(self.path, append=resuming)
        if not meta:
            # A fresh store, or a resumed one whose meta line never made it
            # to disk: the meta line goes first, as in any fresh store.
            self._writer.write(
                jsonl.meta_line(
                    STORE_VERSION,
                    {"space": self.space_fingerprint, "context": self.context},
                )
            )

    def _load(self) -> Dict[str, object]:
        """Read every intact record and return the meta line; heal the tail.

        An interrupted write can only corrupt the end of the file.  The
        partial trailing line is truncated away (so the append handle
        starts on a clean line boundary and the next write cannot glue
        onto it); corrupt *complete* lines are ignored with a warning.
        """
        assert self.path is not None
        meta, records, tail = _read(self.path)
        if tail:
            logger.warning(
                "truncating partial trailing line of %s (interrupted write); "
                "the lost record is re-evaluated by this run", self.path,
            )
            with self.path.open("r+b") as handle:
                handle.seek(-len(tail), os.SEEK_END)
                handle.truncate()
        if meta:
            self._check_meta(meta)
        for record in records:
            self._records[record.fingerprint] = record
        return meta

    def _check_meta(self, data: Mapping[str, object]) -> None:
        """Validate a stored meta line against this opening's expectations."""
        stored_space = data.get("space", "")
        if (
            self.space_fingerprint
            and stored_space
            and stored_space != self.space_fingerprint
        ):
            logger.warning(
                "run store %s was recorded for a different search space; "
                "records are still keyed by point fingerprint and stay valid",
                self.path,
            )
        stored_context = dict(data.get("context") or {})
        if self.context and stored_context and stored_context != self.context:
            from .merge import describe_context_mismatch

            raise ExplorationError(
                f"run store {self.path} was recorded under a different "
                "evaluation context than this run — mismatching field(s): "
                f"{describe_context_mismatch(stored_context, self.context)}; "
                "resuming would silently serve stale metrics — match the "
                "context or start a fresh store"
            )

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._records

    def get(self, fingerprint: str) -> Optional[PointRecord]:
        """The stored record for *fingerprint*, or ``None``."""
        return self._records.get(fingerprint)

    def record(self, record: PointRecord) -> None:
        """Insert one record (idempotent) and append it to the file."""
        if record.fingerprint in self._records:
            return
        self._records[record.fingerprint] = record
        if self._writer is not None:
            self._writer.write(record.to_json_dict())

    def replay(self) -> List[PointRecord]:
        """Every record in first-insertion order."""
        return list(self._records.values())

    def close(self) -> None:
        """Close the underlying file (records stay readable in memory)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
