"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, monotonic start and end, the
span that caused it (its parent on the same thread) and the id of the
operation (design, point, request) it belongs to.  Spans are appended to
a list and written once, at the end, as Chrome trace-event JSON that
Perfetto and ``chrome://tracing`` open.

Self time -- a span's duration minus the part its child spans cover -- is
computed when the span closes, so a layer's cost is never counted twice
when layers nest (an ILP solve inside a multilevel partition, a canonical
hash inside a graph digest).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Tuple

#: One finished span: (id, name, start_s, end_s, self_s, parent_id, op, thread).
Span = Tuple[int, str, float, float, float, int, str, int]


class Tracer:
    """Records nested spans per thread; aggregates self time and call counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str) -> None:
        """Attach every span this thread opens from now on to operation *op*."""
        self._local.op = op

    def begin(self, name: str) -> list:
        """Open a span; returns the frame to pass to :meth:`end`."""
        stack = self._stack()
        parent = stack[-1][3] if stack else 0
        frame = [name, time.monotonic(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        """Close the span opened by :meth:`begin` (innermost first)."""
        end = time.monotonic()
        stack = self._stack()
        stack.pop()
        name, start, child_time, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.spans.append((
            span_id, name, start, end, duration - child_time, parent,
            getattr(self._local, "op", ""), threading.get_ident(),
        ))

    def record(self, name: str, start: float, end: float, op: str = "") -> None:
        """Add a leaf span measured elsewhere (e.g. a queue wait)."""
        self.spans.append((
            next(self._ids), name, start, end, end - start, 0, op,
            threading.get_ident(),
        ))

    def count(self, name: str, amount: float = 1) -> None:
        """Bump a named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        """*fn* with every call recorded as a span called *name*."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)

        return traced

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------

    def in_windows(self, windows: List[Tuple[float, float]]) -> List[Span]:
        """The spans that start inside one of the ``(start, end)`` *windows*."""
        return [
            span for span in self.spans
            if any(start <= span[2] <= end for start, end in windows)
        ]

    def totals(self, windows: List[Tuple[float, float]]) -> Dict[str, Tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over the spans inside *windows*."""
        totals: Dict[str, List[float]] = {}
        for _, name, _, _, self_s, _, _, _ in self.in_windows(windows):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += 1
        return {name: (entry[0], int(entry[1])) for name, entry in totals.items()}

    def trace_events(self) -> List[dict]:
        """The spans as Chrome trace-event ``X`` (complete) events, in µs."""
        return [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": self.pid,
                "tid": thread,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for span_id, name, start, end, _, parent, op, thread in self.spans
        ]

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (read back by :func:`load_dump`)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": self.pid, "spans": self.spans, "counters": self.counters},
                handle,
            )


def load_dump(path: str) -> Tracer:
    """A tracer holding the spans another process wrote with :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    tracer = Tracer()
    tracer.spans = [tuple(span) for span in data["spans"]]
    tracer.counters = dict(data["counters"])
    tracer.pid = data["pid"]
    return tracer


def write_chrome_trace(path: str, events: List[dict], metadata: dict) -> None:
    """Write trace events as one Chrome trace-event JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
            handle,
        )
