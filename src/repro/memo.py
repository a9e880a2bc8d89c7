"""A per-engine memo of the two deterministic solver kernels.

The HiGHS call (:func:`~repro.ilp.scipy_backend.solve_milp_scipy`) and the
annealing loop
(:meth:`~repro.partition.anneal_partitioner.AnnealTemporalPartitioner.partition`)
are pure functions of their inputs.  A reconfiguration-time sweep hands
them the same inputs again and again: the portfolio's exact arm builds the
same matrices at every CT (CT only enters the objective constant), and its
annealing arm repeats the plain ``anneal`` job.  Each kernel runs through
:func:`run_kernel` with a digest of its exact inputs, so a hit returns what
a fresh run would return, bit for bit.

The memo in scope is a :mod:`contextvars` variable.  Only
:meth:`~repro.runtime.engine.PartitionEngine._run_inline` installs one (its
engine's own, around ``execute_job``), so a memo lives exactly as long as
its engine.  ``DesignFlow.build`` runs one job through a fresh engine, so
its memo serves that call alone.  Pool workers and bare partitioners run
with none and always compute.
"""

from __future__ import annotations

import contextvars
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, Optional, TypeVar

if TYPE_CHECKING:
    from .runtime.cache import LruCache

_T = TypeVar("_T")

#: The memoised kernels, in the order their counters are reported.
KERNELS = ("milp", "anneal")


def _per_kernel() -> Dict[str, int]:
    return dict.fromkeys(KERNELS, 0)


@dataclass
class MemoStats:
    """Lookups per kernel: a hit skipped the kernel, a miss ran it."""

    hits: Dict[str, int] = field(default_factory=_per_kernel)
    misses: Dict[str, int] = field(default_factory=_per_kernel)

    def snapshot(self) -> Dict[str, int]:
        """``memo_<kernel>_hits`` / ``memo_<kernel>_misses`` for every kernel."""
        counters: Dict[str, int] = {}
        for kernel in KERNELS:
            counters[f"memo_{kernel}_hits"] = self.hits[kernel]
            counters[f"memo_{kernel}_misses"] = self.misses[kernel]
        return counters


class SolveMemo:
    """Kernel results keyed by input digest, in one bounded cache per kernel.

    *make_cache* builds each kernel's cache (the engine passes a
    :class:`~repro.runtime.cache.LruCache` of its ``lru_capacity``; this
    module imports nothing from the package, so every layer can import it).
    Values must be immutable and never ``None``.
    """

    def __init__(self, make_cache: Callable[[], "LruCache"]) -> None:
        self._caches = {kernel: make_cache() for kernel in KERNELS}
        self.stats = MemoStats()

    def get(self, kernel: str, key: str) -> Optional[object]:
        """The stored result of *kernel* for input digest *key*, or ``None``."""
        value = self._caches[kernel].get(key)
        if value is None:
            self.stats.misses[kernel] += 1
        else:
            self.stats.hits[kernel] += 1
        return value

    def put(self, kernel: str, key: str, value: object) -> None:
        """Store *kernel*'s result for input digest *key*."""
        self._caches[kernel].put(key, value)


_ACTIVE: "contextvars.ContextVar[Optional[SolveMemo]]" = contextvars.ContextVar(
    "repro_solve_memo", default=None
)


def active() -> Optional[SolveMemo]:
    """The memo in scope, or ``None`` outside every :func:`scope`."""
    return _ACTIVE.get()


@contextmanager
def scope(memo: SolveMemo) -> Iterator[SolveMemo]:
    """Make *memo* the one :func:`active` returns inside the block."""
    token = _ACTIVE.set(memo)
    try:
        yield memo
    finally:
        _ACTIVE.reset(token)


def run_kernel(
    kernel: str,
    key: Callable[[], str],
    compute: Callable[[], _T],
    keep: Callable[[_T], bool] = lambda result: True,
) -> _T:
    """*compute*'s result, served from the memo in scope when it holds one
    for the input digest ``key()``.

    Outside every :func:`scope` *compute* runs and ``key`` is never called.
    A computed result is stored only when ``keep(result)`` holds.
    """
    memo = active()
    if memo is None:
        return compute()
    input_digest = key()
    result = memo.get(kernel, input_digest)
    if result is None:
        result = compute()
        if keep(result):
            memo.put(kernel, input_digest, result)
    return result


def digest(parts: Iterable[bytes]) -> str:
    """sha256 over *parts*, each length-prefixed so no two sequences collide."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)
    return hasher.hexdigest()
