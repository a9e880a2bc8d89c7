"""Importing the package loads neither networkx nor scipy.optimize.

networkx is only the reference the graph tests compare against: the task
and operation graphs keep their own adjacency maps.  scipy.optimize is
imported by the first solve, so a process that never solves never pays for
it.  Both are checked in a fresh interpreter, after every submodule of
:mod:`repro` has been imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap


def test_importing_every_submodule_skips_networkx_and_scipy_optimize():
    script = textwrap.dedent(
        """
        import importlib
        import json
        import pkgutil
        import sys

        import repro

        names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
        for name in names:
            importlib.import_module(name)
        loaded = [name for name in ("networkx", "scipy.optimize") if name in sys.modules]
        print(json.dumps({"modules": len(names), "loaded": loaded}))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(p) for p in sys.path if p] or [""])
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(child.stdout)
    assert report["modules"] > 50, report
    assert report["loaded"] == []
