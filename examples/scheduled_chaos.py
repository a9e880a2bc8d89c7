"""Chaos demo: a scheduled exploration survives a SIGKILLed worker.

Run with::

    python examples/scheduled_chaos.py

The script drives the full two-machine CLI workflow on one machine:

1. start a scheduler daemon (``repro schedule``) that partitions a small
   grid exploration into 8 fingerprint ranges with 2 s lease timeouts;
2. start a worker stuck in the ``REPRO_SCHED_DELAY_S`` delay hook, wait
   until it holds a lease, and SIGKILL it — the canonical lost machine;
3. start two healthy workers (``repro explore --scheduler``) that drain
   the schedule, re-running the dead worker's range after its lease is
   reclaimed.  Each may run at most 7 of the 8 ranges (``--max-ranges``),
   so neither can finish the schedule alone: both reach the daemon before
   it exits, and both complete at least one range;
4. compare the daemon's merged frontier byte-for-byte against a plain
   unsharded ``repro explore`` of the same space.

Byte equality is the whole point: a shard range's store is a pure function
of (space, config, range index, range count), so worker death can only
ever cost re-evaluation, never correctness.  CI runs this script as its
scheduler chaos smoke.
"""

from __future__ import annotations

import filecmp
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.serve import FlowServiceClient, ServeClientError

PORT = int(os.environ.get("REPRO_CHAOS_PORT", "8790"))

RANGES = 8

SPACE_ARGV = [
    "--workload", "matmul_pipeline", "--strategy", "grid", "--budget", "12",
    "--partitioners", "list,level", "--ct-sweep", "1,5,20",
]


def _repro(*argv: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], **kwargs
    )


def main() -> int:
    url = f"http://127.0.0.1:{PORT}"
    client = FlowServiceClient(url)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        base = Path(tmp)
        sched_out = base / "sched.json"
        solo_out = base / "solo.json"

        print(f"starting scheduler daemon on {url} ({RANGES} ranges, 2 s leases)")
        daemon = _repro(
            "schedule", *SPACE_ARGV, "--ranges", str(RANGES), "--lease-timeout", "2",
            "--port", str(PORT), "--store", str(base / "run.jsonl"),
            "--timeout", "300", "--format", "json", "--output",
            str(sched_out),
        )
        try:
            client.wait_until_healthy()

            # A worker wedged in the delay hook: it leases one range, then
            # sleeps far past its lease.  SIGKILL it mid-lease.
            victim_env = dict(os.environ, REPRO_SCHED_DELAY_S="600")
            victim = _repro(
                "explore", "--scheduler", url, "--worker-id", "victim",
                env=victim_env, cwd=tmp,
            )
            deadline = time.monotonic() + 60.0
            while True:
                status = client.scheduler_status()
                if status["leased"] >= 1 and "victim" in status["workers_seen"]:
                    break
                if time.monotonic() > deadline:
                    raise SystemExit("victim never acquired a lease")
                time.sleep(0.1)
            victim.kill()  # SIGKILL: no goodbye, no lease release
            victim.wait(timeout=30)
            print("victim worker SIGKILLed while holding a lease")

            workers = [
                _repro(
                    "explore", "--scheduler", url, "--worker-id", f"healthy{i}",
                    "--max-ranges", str(RANGES - 1),
                    cwd=tmp, stderr=subprocess.PIPE, text=True,
                )
                for i in range(2)
            ]
            for worker in workers:
                _, summary = worker.communicate(timeout=300)
                sys.stderr.write(summary)
                if worker.returncode != 0:
                    raise SystemExit("a healthy worker failed")
                completed = re.search(r"(\d+) range\(s\) completed", summary)
                if completed is None or int(completed.group(1)) < 1:
                    raise SystemExit("a healthy worker completed no range")
            daemon_code = daemon.wait(timeout=300)
            if daemon_code != 0:
                raise SystemExit(f"scheduler daemon exited {daemon_code}")
            print("healthy workers drained the schedule "
                  "(dead worker's range re-issued)")
        finally:
            for proc in (daemon,):
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
                    proc.wait(timeout=30)

        solo = _repro(
            "explore", *SPACE_ARGV, "--store", str(base / "solo.jsonl"),
            "--format", "json", "--output", str(solo_out), cwd=tmp,
        )
        if solo.wait(timeout=300) != 0:
            raise SystemExit("the unsharded reference run failed")

        if not filecmp.cmp(sched_out, solo_out, shallow=False):
            raise SystemExit(
                "merged scheduled frontier differs from the unsharded run"
            )
        print(f"chaos run survived: {sched_out.name} is byte-identical "
              "to the unsharded frontier")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ServeClientError as error:
        raise SystemExit(f"scheduler daemon unreachable: {error}")
