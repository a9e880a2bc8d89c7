"""The benchmark's traced layer ledger still resolves against the library.

``perfbench/layers.py`` wraps library entry points by dotted name from
outside the package; a rename under ``src/`` would only show up when the
traced benchmark runs.  This loads the ledger module unmodified and
resolves every target it names.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


@pytest.mark.parametrize(
    "span, module_name, path",
    LAYERS.TARGETS,
    ids=[f"{span}:{path}" for span, _, path in LAYERS.TARGETS],
)
def test_every_traced_target_resolves(span, module_name, path):
    owner, attr = LAYERS._resolve(module_name, path)
    assert callable(getattr(owner, attr))


def test_serve_hooks_resolve():
    from repro.serve.queue import JobQueue
    from repro.serve.workers import WorkerPool

    assert list(inspect.signature(WorkerPool._execute).parameters) == [
        "self", "engine", "spec",
    ]
    assert inspect.iscoroutinefunction(JobQueue.get)
