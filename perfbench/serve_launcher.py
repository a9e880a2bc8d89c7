"""Start ``repro serve`` for the benchmark, optionally with layer tracing.

Usage: ``serve_launcher.py --cpu N [--trace-out FILE] <repro serve arguments>``

The launcher pins the daemon to vCPU N (where the benchmark samples CPU
speed, see ``speed.py``) and finishes ``import repro`` and
``import scipy.optimize`` before the daemon starts listening, so the
benchmark's set-up time covers
both imports and no request pays the lazy solver import.  With
``--trace-out`` it also installs the layer wrappers from ``layers.py``
(plus the daemon's worker and queue hand-off) and, once the daemon has
drained and returned, writes the recorded spans to FILE.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    os.sched_setaffinity(0, {int(argv[1])})
    argv = argv[2:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    import scipy.optimize  # noqa: F401 - finish the solver import during set-up

    from repro import cli

    if trace_out is None:
        return cli.main(["serve", *argv])

    import layers
    import spans

    tracer = spans.Tracer()
    layers.install(tracer, serve=True)
    try:
        return cli.main(["serve", *argv])
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
