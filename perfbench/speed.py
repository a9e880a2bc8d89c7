"""CPU-speed sampling: take the host's momentary slowdown out of the timings.

The benchmark shares its host with other tenants, and the speed one vCPU
delivers drifts by up to 2x within a minute (a fixed pure-Python loop
took 0.125-0.185 s in successive 15-second windows).  A small probe
process pinned to the *same* vCPU as the measured work tracks that drift
closely: timing the loop against the probe's speed over the same window
spread 3.8% (interquartile range over median) where the raw timing
spread 26%.  A probe on the other vCPU does not track it.  The kernel is
pure interpreter arithmetic on purpose: a variant that also walked a
10 MB dict was slowed by the measured work's own cache use, and the
exact-solve workload's run-to-run spread rose from 10% to 24% with it.

So the benchmark pins its measuring process (and the daemon, for
``serve_mixed``) to one vCPU each and runs a :class:`SpeedSampler` on each
of those vCPUs.  Every reported time is *normalised*: its raw seconds
times ``REFERENCE_PROBE_S`` over the median probe CPU time sampled during
the interval -- i.e. seconds on a vCPU running at the reference speed.
The raw figures are printed next to the normalised ones, and the traced
run reports them as ``raw.*``.

Normalising is sound only while the measured work leaves the probe's
speed alone; otherwise a change to the program's own cache or memory
behaviour would move the factor too and partly cancel itself out.  Even
the arithmetic kernel is slowed when it starts on caches the measured
work has just filled: :func:`cold_penalty` reports by how much.  So each
probe first runs a short warm-up, then times the kernel in two halves.
The measured work does not run on the probe's vCPU while it probes, so
what the work left behind can only slow the first half.
:func:`workload_drag` is the first half over the second, minus one, and
a run whose drag exceeds ``DRAG_TOLERANCE`` fails.  Both halves are
taken within a millisecond, so the host's drift cancels out of this
check; comparing with idle or spinning windows before and after a pass
did not work, because the probe's speed moves by 15-20% from one second
to the next.  The check cannot see work on the *other* vCPU, which could
slow both halves alike through shared caches; only ``serve_mixed`` runs
any there (its clients and its daemon sit on different vCPUs).

Run as a script, this module is the sampler: ``speed.py CPU OUTFILE``
samples until its standard input closes, then writes the samples.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: Iterations of the warm-up run that starts every probe.
WARMUP_ITERATIONS = 3_500
#: Iterations of the timed kernel, run as two halves (about 0.5 ms).
PROBE_ITERATIONS = 7_000
#: Timed probe CPU time on an unloaded reference vCPU (seconds).
REFERENCE_PROBE_S = 0.0005
#: Pause between probes; the probe takes ~3% of the pinned vCPU.
PROBE_INTERVAL_S = 0.025
#: Fewest probes a factor is computed from (the window widens to reach it).
MIN_PROBES = 5
#: Largest accepted :func:`workload_drag`.  The drag of one run scatters
#: by about +-1% around a residue of a few tenths of a percent, and a probe
#: without its warm-up would show about twice the cold penalty (5-9%).
DRAG_TOLERANCE = 0.03


def _kernel(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def measuring_cpus() -> Tuple[int, int]:
    """``(measuring-process vCPU, daemon vCPU)``; equal on a one-vCPU machine."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def pin(cpu: int) -> None:
    """Pin the calling process (and the children it spawns) to one vCPU."""
    os.sched_setaffinity(0, {cpu})


class SpeedSampler:
    """A probe process pinned to one vCPU; :meth:`stop` loads its samples."""

    def __init__(self, cpu: int, path: str) -> None:
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu), path],
            stdin=subprocess.PIPE,
        )
        self.times: List[float] = []
        #: Timed CPU time of each probe (both halves).
        self.probes: List[float] = []
        #: ``(warm-up, first half, second half)`` CPU time of each probe.
        self.parts: List[Tuple[float, float, float]] = []

    def stop(self) -> "SpeedSampler":
        """Stop sampling and load the samples (time-ordered)."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        with open(self.path, encoding="utf-8") as handle:
            samples = json.load(handle)
        self.times = [at for at, *_ in samples]
        self.parts = [tuple(parts) for _, *parts in samples]
        self.probes = [first + second for _, first, second in self.parts]
        return self

    def factor(self, start: float, end: float) -> float:
        """Normalising factor for the interval ``[start, end]``."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        while high - low < MIN_PROBES and (low > 0 or high < len(self.times)):
            low, high = max(low - 1, 0), min(high + 1, len(self.times))
        if high <= low:
            raise RuntimeError("the speed sampler recorded no probes")
        return REFERENCE_PROBE_S / statistics.median(self.probes[low:high])

    def parts_in(self, windows: Sequence[Tuple[float, float]]):
        """The probe parts taken inside *windows*."""
        parts = [
            part for at, part in zip(self.times, self.parts)
            if any(start <= at <= end for start, end in windows)
        ]
        if not parts:
            raise RuntimeError("the speed sampler recorded no probes in the windows")
        return parts


def normalise(samplers: Sequence[SpeedSampler], start: float, end: float) -> float:
    """``end - start`` in reference seconds (mean factor over *samplers*)."""
    scale = statistics.mean(sampler.factor(start, end) for sampler in samplers)
    return (end - start) * scale


def workload_drag(samplers: Sequence[SpeedSampler], windows) -> float:
    """What the measured work left behind still costs the timed probe.

    The median of first half over second half, minus one, over the probes
    taken inside *windows*; the largest over *samplers* counts.
    """
    return max([
        statistics.median(first / second for _, first, second in sampler.parts_in(windows))
        - 1.0
        for sampler in samplers
    ])


def cold_penalty(samplers: Sequence[SpeedSampler], windows) -> float:
    """What the measured work would cost a probe without its warm-up.

    The warm-up's CPU time beyond what it takes warm (second-half speed),
    as a share of the timed probe; median over the probes in *windows*.
    """
    warm_share = WARMUP_ITERATIONS / (PROBE_ITERATIONS / 2)
    return max([
        statistics.median(
            (warmup - second * warm_share) / (first + second)
            for warmup, first, second in sampler.parts_in(windows)
        )
        for sampler in samplers
    ])


def _sample(cpu: int, path: str) -> None:
    pin(cpu)
    half = PROBE_ITERATIONS // 2
    samples = []
    while True:
        at = time.monotonic()
        began = time.thread_time()
        _kernel(WARMUP_ITERATIONS)
        warm = time.thread_time()
        _kernel(half)
        middle = time.thread_time()
        _kernel(half)
        samples.append((at, warm - began, middle - warm, time.thread_time() - middle))
        ready, _, _ = select.select([sys.stdin], [], [], PROBE_INTERVAL_S)
        if ready and not sys.stdin.buffer.read1(1):
            break
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)


if __name__ == "__main__":
    _sample(int(sys.argv[1]), sys.argv[2])
