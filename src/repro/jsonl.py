"""The append-only JSONL log both result stores are written as.

An exploration run store (:mod:`repro.explore.store`) and a verification
verdict store (:mod:`repro.verify.store`) share one file format: a meta
line ``{"kind": "meta", "version": N, ...}`` followed by one object per
line, each written as compact key-sorted JSON and flushed as soon as it is
written, so an interrupted writer loses at most the line it was writing.
This module owns that format.  The stores keep their own policies on top of
it: a run store heals a torn tail and skips corrupt lines, a verdict store
refuses both.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Type, Union

from .errors import ReproError


def meta_line(version: int, fields: Mapping[str, object]) -> Dict[str, object]:
    """The meta line that opens a log written under schema *version*."""
    return {"kind": "meta", "version": version, **fields}


def is_meta(
    data: Mapping[str, object],
    expected: int,
    what: str,
    error: Type[ReproError] = ReproError,
) -> bool:
    """Whether *data* is a meta line; raises *error* when the line names
    another schema version than *expected* (*what* names the log)."""
    if data.get("kind") != "meta":
        return False
    version = data.get("version")
    if version != expected:
        raise error(
            f"{what} was written under schema version {version}, "
            f"this library expects {expected}"
        )
    return True


class LineWriter:
    """Writes one object per line to a log file, flushing every line."""

    def __init__(self, path: Path, append: bool = False) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = path.open("a" if append else "w", encoding="utf-8")

    def write(self, data: Mapping[str, object]) -> None:
        """Write *data* as one line of compact, key-sorted JSON, flushed."""
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        self._handle.write(text + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def split_lines(path: Union[str, Path]) -> Tuple[List[bytes], bytes]:
    """Read *path*, never writing it, into its complete lines and torn tail.

    The tail is whatever follows the last newline: empty for a cleanly
    written log, a partial line when a writer died mid-append.  Raises
    :class:`OSError` when the file cannot be read.
    """
    raw = Path(path).read_bytes()
    end = raw.rfind(b"\n") + 1
    return raw[:end].split(b"\n")[:-1], raw[end:]


def parse_line(line: bytes, errors: str = "strict") -> Dict[str, object]:
    """Decode one line into its JSON object.

    Raises :class:`ValueError` (:class:`UnicodeDecodeError` included) when
    the line is not UTF-8 under *errors*, not JSON, or not a JSON object.
    """
    data = json.loads(line.decode("utf-8", errors))
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data
