"""The JSONL verdict store the verification harness writes.

A :class:`VerdictStore` is a :mod:`repro.jsonl` log, the format the
exploration :class:`~repro.explore.store.RunStore` uses too: one meta line
(schema version plus the run's configuration) followed by one line per
verified scenario.  Records carry only deterministic fields (scenario
recipe, oracle verdicts, shrink outcome — never wall times or cache
provenance), so the same seed and scenario count always reproduce a
byte-identical file; that byte-identity is itself asserted by the test
suite.  A verdict store is evidence, so :func:`read_verdicts` refuses a
corrupt line instead of healing it.

``path=None`` gives a store that writes nothing.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Union

from .. import jsonl
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness uses us)
    from .harness import ScenarioVerdict

#: Schema version of the JSONL records; a store written under a different
#: version is refused rather than silently reinterpreted.
STORE_VERSION = 1


class VerdictStore:
    """Append-only JSONL store of per-scenario verification verdicts."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        self._writer: Optional[jsonl.LineWriter] = None
        if path is not None:
            self._writer = jsonl.LineWriter(Path(path))
            self._writer.write(jsonl.meta_line(STORE_VERSION, meta or {}))

    def record(self, verdict: "ScenarioVerdict") -> None:
        """Append one scenario's verdict."""
        if self._writer is not None:
            self._writer.write(verdict.to_json_dict())

    def close(self) -> None:
        """Close the underlying file."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_verdicts(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Iterate the JSON records of a stored verdict file (meta first).

    Raises :class:`~repro.errors.ReproError` on an unreadable file or a
    schema-version mismatch; corrupt individual lines (a torn last line
    included) raise too — a verdict store is evidence, so silent healing
    would be the wrong default.
    """
    path = Path(path)
    what = f"verdict store {path}"
    try:
        lines, tail = jsonl.split_lines(path)
    except OSError as error:
        raise ReproError(f"cannot read {what}: {error}") from error
    if tail:
        lines.append(tail)
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = jsonl.parse_line(line)
        except ValueError as error:
            raise ReproError(f"corrupt {what} at line {number}: {error}") from error
        jsonl.is_meta(data, STORE_VERSION, what)  # refuses another schema
        yield data
