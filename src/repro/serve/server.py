"""The asyncio design-flow service daemon.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no web
framework, no new dependencies.  Each connection carries one request
(``Connection: close``): the handler parses the request line, headers and
``Content-Length`` body, dispatches on the :mod:`~repro.serve.protocol`
route table, and writes one JSON response.  Two endpoints answer slowly on
purpose: ``/v1/jobs/<id>/wait`` long-polls the job's completion event, and
``/v1/jobs/<id>/stream`` emits every status transition as a chunked JSON
line until the job is terminal.

Life cycle: :meth:`FlowServer.start` binds the socket and spawns the
worker pool; SIGTERM/SIGINT (or ``POST /v1/admin/shutdown``) trigger a
graceful drain — the listener closes, queued and in-flight jobs finish,
then the daemon exits.  Submissions during the drain get a 503.

:func:`start_in_background` runs a daemon on a background thread with its
own event loop — the harness tests, the CI smoke and the load-generator
bench all use it to run client and server in one process.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..errors import ReproError, WorkloadError
from .protocol import (
    API_PREFIX,
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    SCHEDULER_MAX_BODY_BYTES,
    JobSpec,
    JobState,
    ProtocolError,
    deterministic_result,
    error_body,
    parse_json_body,
    submissions_from_body,
)
from .queue import JobQueue, ProtocolUnknownJob, QueueClosedError, QueueFullError
from .workers import WorkerPool

#: Longest a single long-poll / stream request may hold its connection.
MAX_POLL_SECONDS = 120.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Static configuration of one :class:`FlowServer`."""

    host: str = "127.0.0.1"
    #: Port to bind; ``0`` picks a free port (read it back from ``address``).
    port: int = 0
    workers: int = 2
    queue_depth: int = 64
    #: Shared cache root for every worker engine (partition outcomes +
    #: stage artifacts).  ``None`` uses a private temporary directory that
    #: lives and dies with the daemon.
    cache_dir: Optional[str] = None
    #: Per-job wall-clock limit; ``None`` disables it.
    job_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        # 0 workers is a scheduler-only daemon (``repro schedule``): it
        # hands out exploration ranges but never runs flow jobs itself.
        if self.workers < 0:
            raise ReproError("serve workers must not be negative")
        if self.queue_depth < 1:
            raise ReproError("queue depth must be at least 1")


@dataclass
class ScheduleState:
    """One attached exploration schedule: the plan, its scheduler, its stores.

    ``done`` fires (in the server's event loop) when the last range
    completes — ``repro schedule`` awaits it before running the final
    Pareto-merge fold.
    """

    plan: object  # ExplorationPlan (typed loosely to keep the import lazy)
    scheduler: object  # ShardScheduler
    store_base: Path
    done: asyncio.Event = field(default_factory=asyncio.Event)
    workers_seen: Set[str] = field(default_factory=set)


class FlowServer:
    """The long-lived design-flow daemon."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.queue = JobQueue(capacity=self.config.queue_depth)
        self._tmp_cache: Optional[tempfile.TemporaryDirectory] = None
        cache_dir = self.config.cache_dir
        if cache_dir is None:
            self._tmp_cache = tempfile.TemporaryDirectory(prefix="repro-serve-")
            cache_dir = self._tmp_cache.name
        self.cache_dir = cache_dir
        self.pool = WorkerPool(
            self.queue,
            workers=self.config.workers,
            cache_dir=cache_dir,
            job_timeout=self.config.job_timeout,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        self._draining = False
        self._started_at = 0.0
        #: Attached work-stealing exploration schedule (``repro schedule``);
        #: ``None`` on an ordinary flow daemon.
        self.schedule: Optional["ScheduleState"] = None

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — authoritative once started."""
        if self._server is None or not self._server.sockets:
            raise ReproError("the server is not running")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        host, port = self.address
        return f"http://{host}:{port}"

    async def start(self) -> None:
        """Bind the socket and spawn the worker pool."""
        self._started_at = time.monotonic()
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        """Run until a signal or an admin shutdown drains the daemon."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown())
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish every accepted job, exit."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pool.drain()
        if self._tmp_cache is not None:
            self._tmp_cache.cleanup()
            self._tmp_cache = None
        self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except ProtocolError as error:
                await self._respond_error(writer, error)
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # client went away or sent garbage framing
            try:
                await self._dispatch(writer, method, path, query, body)
            except ProtocolError as error:
                await self._respond_error(writer, error)
            except ProtocolUnknownJob as error:
                await self._respond(
                    writer, 404, error_body("unknown-job", str(error))
                )
            except WorkloadError as error:
                await self._respond(
                    writer, 404, error_body("unknown-workload", str(error))
                )
            except QueueFullError as error:
                await self._respond(
                    writer, 429,
                    error_body(
                        "queue-full", str(error),
                        retry_after_s=round(error.retry_after_s, 3),
                    ),
                    headers={
                        "Retry-After": str(max(1, int(error.retry_after_s + 0.999)))
                    },
                )
            except QueueClosedError as error:
                await self._respond(
                    writer, 503, error_body("draining", str(error))
                )
            except ReproError as error:
                await self._respond(
                    writer, 400, error_body("invalid-request", str(error))
                )
            except Exception as error:  # noqa: BLE001 - never kill the daemon
                await self._respond(
                    writer, 500,
                    error_body("internal", f"{type(error).__name__}: {error}"),
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(f"bad Content-Length {length_text!r}")
        if length < 0:
            raise ProtocolError(f"bad Content-Length {length_text!r}")
        split = urlsplit(target)
        # A range completion streams a whole shard store back, so the
        # scheduler endpoints get a (much) higher body bound.
        limit = (
            SCHEDULER_MAX_BODY_BYTES
            if split.path.startswith(API_PREFIX + "/scheduler/")
            else MAX_BODY_BYTES
        )
        if length > limit:
            raise ProtocolError(
                f"request body exceeds {limit} bytes",
                status=413, code="body-too-large",
            )
        body = await reader.readexactly(length) if length else b""
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        return method, split.path, query, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
    ) -> None:
        if not path.startswith(API_PREFIX + "/"):
            raise ProtocolError(
                f"unknown path {path!r} (endpoints live under {API_PREFIX}/)",
                status=404, code="not-found",
            )
        segments = [s for s in path[len(API_PREFIX):].split("/") if s]
        route = tuple(segments[:1] + segments[2:]) if (
            len(segments) >= 2 and segments[0] == "jobs"
        ) else tuple(segments)
        job_id = segments[1] if len(segments) >= 2 and segments[0] == "jobs" else ""

        handlers = {
            ("GET", ("health",)): self._handle_health,
            ("GET", ("stats",)): self._handle_stats,
            ("POST", ("jobs",)): self._handle_submit,
            ("POST", ("batch",)): self._handle_batch,
            ("GET", ("jobs",)): self._handle_job_view,
            ("GET", ("jobs", "result")): self._handle_job_result,
            ("GET", ("jobs", "wait")): self._handle_job_wait,
            ("GET", ("jobs", "stream")): self._handle_job_stream,
            ("POST", ("jobs", "cancel")): self._handle_job_cancel,
            ("POST", ("admin", "shutdown")): self._handle_shutdown,
            ("GET", ("scheduler", "plan")): self._handle_scheduler_plan,
            ("GET", ("scheduler", "status")): self._handle_scheduler_status,
            ("GET", ("scheduler", "snapshot")): self._handle_scheduler_snapshot,
            ("POST", ("scheduler", "lease")): self._handle_scheduler_lease,
            ("POST", ("scheduler", "steal")): self._handle_scheduler_steal,
            ("POST", ("scheduler", "renew")): self._handle_scheduler_renew,
            ("POST", ("scheduler", "complete")): self._handle_scheduler_complete,
        }
        handler = handlers.get((method, route))
        if handler is None:
            if any(key[1] == route for key in handlers):
                raise ProtocolError(
                    f"{method} is not allowed on {path}",
                    status=405, code="method-not-allowed",
                )
            raise ProtocolError(
                f"unknown path {path!r}", status=404, code="not-found"
            )
        # Submission-shaped handlers take (writer, body); job-shaped ones
        # take (writer, job_id, query).
        if route[0] == "scheduler":
            if method == "POST":
                await handler(writer, body)
            else:
                await handler(writer)
        elif route in (("jobs",), ("batch",)) and method == "POST":
            await handler(writer, body)
        elif route in (("health",), ("stats",)):
            await handler(writer)
        elif route == ("admin", "shutdown"):
            await handler(writer)
        else:
            await handler(writer, job_id, query)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _handle_health(self, writer) -> None:
        await self._respond(writer, 200, {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "version": __version__,
        })

    async def _handle_stats(self, writer) -> None:
        await self._respond(writer, 200, {
            "server": {
                "protocol": PROTOCOL_VERSION,
                "version": __version__,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "draining": self._draining,
                "cache_dir": str(self.cache_dir),
            },
            "queue": self.queue.stats(),
            "pool": self.pool.stats(),
        })

    def _submit_one(self, spec: JobSpec) -> Dict[str, object]:
        """Validate one spec against the catalogs, then enqueue it."""
        from ..arch import SYSTEM_PRESETS
        from ..workloads import get_workload

        get_workload(spec.workload)  # unknown workload -> 404
        if spec.system is not None and spec.system not in SYSTEM_PRESETS:
            raise ProtocolError(
                f"unknown system preset {spec.system!r}; "
                f"known: {', '.join(sorted(SYSTEM_PRESETS))}",
                code="unknown-system",
            )
        job_id, entry, disposition = self.queue.submit(spec)
        return {
            "job_id": job_id,
            "key": entry.key,
            "state": entry.state.value,
            "disposition": disposition,
        }

    async def _handle_submit(self, writer, body: bytes) -> None:
        spec = JobSpec.from_json_dict(parse_json_body(body))
        await self._respond(writer, 202, self._submit_one(spec))

    async def _handle_batch(self, writer, body: bytes) -> None:
        specs = submissions_from_body(parse_json_body(body))
        acks = []
        for spec in specs:
            try:
                acks.append(self._submit_one(spec))
            except QueueFullError as error:
                acks.append(error_body(
                    "queue-full", str(error),
                    retry_after_s=round(error.retry_after_s, 3),
                ))
            except (WorkloadError, ProtocolError) as error:
                code = getattr(error, "code", "unknown-workload")
                acks.append(error_body(code, str(error)))
        await self._respond(writer, 202, {"jobs": acks})

    async def _handle_job_view(self, writer, job_id: str, query) -> None:
        await self._respond(writer, 200, self.queue.view(job_id))

    async def _handle_job_result(self, writer, job_id: str, query) -> None:
        entry = self.queue.entry_for(job_id)
        view = self.queue.view(job_id)
        if not JobState(view["state"]).terminal:
            raise ProtocolError(
                f"job {job_id} is still {view['state']}",
                status=409, code="not-finished",
            )
        payload: Dict[str, object] = dict(view)
        payload["result"] = (
            deterministic_result(entry.result_row)
            if entry.result_row is not None and entry.ok
            else None
        )
        await self._respond(writer, 200, payload)

    @staticmethod
    def _query_seconds(query: Dict[str, str], default: float) -> float:
        text = query.get("timeout")
        if text is None:
            return min(default, MAX_POLL_SECONDS)
        try:
            return min(float(text), MAX_POLL_SECONDS)
        except ValueError:
            raise ProtocolError(f"bad timeout {text!r}", code="bad-timeout")

    async def _handle_job_wait(self, writer, job_id: str, query) -> None:
        entry = self.queue.entry_for(job_id)
        timeout = self._query_seconds(query, 30.0)
        try:
            await asyncio.wait_for(entry.done.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        await self._respond(writer, 200, self.queue.view(job_id))

    async def _handle_job_stream(self, writer, job_id: str, query) -> None:
        entry = self.queue.entry_for(job_id)
        deadline = time.monotonic() + self._query_seconds(query, MAX_POLL_SECONDS)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        last_state = None
        while True:
            view = self.queue.view(job_id)
            if view["state"] != last_state:
                last_state = view["state"]
                chunk = (json.dumps(view, sort_keys=True) + "\n").encode("utf-8")
                writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
                writer.write(chunk + b"\r\n")
                await writer.drain()
            if JobState(view["state"]).terminal:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            async with entry.changed:
                try:
                    await asyncio.wait_for(entry.changed.wait(), remaining)
                except asyncio.TimeoutError:
                    pass
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _handle_job_cancel(self, writer, job_id: str, query) -> None:
        cancelled = self.queue.cancel(job_id)
        payload = self.queue.view(job_id)
        payload["cancelled"] = cancelled
        await self._respond(writer, 200, payload)

    async def _handle_shutdown(self, writer) -> None:
        await self._respond(writer, 202, {"status": "draining"})
        asyncio.ensure_future(self.shutdown())

    # ------------------------------------------------------------------
    # Work-stealing exploration schedule
    # ------------------------------------------------------------------

    def attach_schedule(
        self, plan, store_base, lease_timeout: float = 30.0
    ) -> "ScheduleState":
        """Attach a work-stealing exploration schedule to this daemon.

        *plan* is an :class:`~repro.explore.scheduler.ExplorationPlan`;
        completed ranges land as shard stores next to *store_base* (the
        ``<store>.shard-<i>-of-<n>.jsonl`` convention).  Call before
        :meth:`start` so workers never observe a daemon without a plan.
        """
        from ..explore.scheduler import ShardScheduler

        self.schedule = ScheduleState(
            plan=plan,
            scheduler=ShardScheduler(plan.range_count, lease_timeout),
            store_base=Path(store_base),
        )
        return self.schedule

    def _schedule_state(self) -> "ScheduleState":
        if self.schedule is None:
            raise ProtocolError(
                "this daemon has no exploration schedule attached "
                "(start one with 'repro schedule')",
                status=404, code="no-schedule",
            )
        return self.schedule

    @staticmethod
    def _body_string(payload: object, name: str) -> str:
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get(name), str)
            or not payload[name]
        ):
            raise ProtocolError(f"'{name}' must be a non-empty string")
        return payload[name]

    def _grant_payload(self, state: "ScheduleState", lease, now: float):
        if lease is None:
            return {
                "granted": False,
                "all_done": state.scheduler.done,
                "retry_after_s": min(1.0, state.scheduler.lease_timeout / 4.0),
            }
        return {
            "granted": True,
            "lease_id": lease.lease_id,
            "range_index": lease.range_index,
            "range_count": state.plan.range_count,
            "lease_timeout_s": state.scheduler.lease_timeout,
            "deadline_in_s": round(lease.deadline - now, 3),
            "stolen_from": lease.stolen_from,
            "all_done": False,
        }

    async def _handle_scheduler_plan(self, writer) -> None:
        state = self._schedule_state()
        await self._respond(writer, 200, {
            "plan": state.plan.to_json_dict(),
            "lease_timeout_s": state.scheduler.lease_timeout,
            "store_base": str(state.store_base),
        })

    async def _handle_scheduler_status(self, writer) -> None:
        state = self._schedule_state()
        state.scheduler.expire(time.monotonic())
        payload = state.scheduler.progress()
        payload["workers_seen"] = sorted(state.workers_seen)
        await self._respond(writer, 200, payload)

    async def _handle_scheduler_snapshot(self, writer) -> None:
        state = self._schedule_state()
        state.scheduler.expire(time.monotonic())
        await self._respond(writer, 200, state.scheduler.to_json_dict())

    async def _handle_scheduler_lease(self, writer, body: bytes) -> None:
        state = self._schedule_state()
        worker = self._body_string(
            parse_json_body(body, limit=SCHEDULER_MAX_BODY_BYTES), "worker"
        )
        state.workers_seen.add(worker)
        now = time.monotonic()
        lease = state.scheduler.lease(worker, now)
        await self._respond(writer, 200, self._grant_payload(state, lease, now))

    async def _handle_scheduler_steal(self, writer, body: bytes) -> None:
        state = self._schedule_state()
        worker = self._body_string(
            parse_json_body(body, limit=SCHEDULER_MAX_BODY_BYTES), "worker"
        )
        state.workers_seen.add(worker)
        now = time.monotonic()
        lease = state.scheduler.steal(worker, now)
        await self._respond(writer, 200, self._grant_payload(state, lease, now))

    async def _handle_scheduler_renew(self, writer, body: bytes) -> None:
        state = self._schedule_state()
        lease_id = self._body_string(
            parse_json_body(body, limit=SCHEDULER_MAX_BODY_BYTES), "lease_id"
        )
        live = state.scheduler.renew(lease_id, time.monotonic())
        await self._respond(writer, 200, {"lease_id": lease_id, "live": live})

    async def _handle_scheduler_complete(self, writer, body: bytes) -> None:
        from ..explore.shard import shard_store_path

        state = self._schedule_state()
        payload = parse_json_body(body, limit=SCHEDULER_MAX_BODY_BYTES)
        lease_id = self._body_string(payload, "lease_id")
        # The whole body is checked before the scheduler accounts anything:
        # a range marked done without its store would never be re-leased.
        store_data = payload.get("store_data")
        if (store_data is None) == (payload.get("store_path") is None):
            raise ProtocolError(
                "a completion must carry exactly one of 'store_data' "
                "(inline shard store) or 'store_path' (shared filesystem)"
            )
        if store_data is None:
            path = self._body_string(payload, "store_path")
        elif not isinstance(store_data, str):
            raise ProtocolError("'store_data' must be a string")
        lease = state.scheduler.lease_info(lease_id)
        if store_data is not None:
            path = str(shard_store_path(
                state.store_base, lease.range_index, state.plan.range_count
            ))
        disposition = state.scheduler.complete(
            lease_id, time.monotonic(), store_path=path
        )
        if store_data is not None and disposition != "duplicate":
            # Atomic publish: a crashed write never leaves a torn store
            # (and a duplicate completion is byte-identical anyway).
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f"{target.name}.{lease_id}.tmp")
            tmp.write_text(store_data, encoding="utf-8")
            os.replace(tmp, target)
        if state.scheduler.done:
            state.done.set()
        await self._respond(writer, 200, {
            "lease_id": lease_id,
            "range_index": lease.range_index,
            "disposition": disposition,
            "store_path": path,
            "all_done": state.scheduler.done,
        })

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _respond_error(self, writer, error: ProtocolError) -> None:
        await self._respond(
            writer, error.status, error_body(error.code, str(error))
        )


# ---------------------------------------------------------------------------
# Background-thread harness (tests, bench, CI smoke)
# ---------------------------------------------------------------------------

class ServerHandle:
    """A daemon running on a background thread with its own event loop."""

    def __init__(self, server: FlowServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def url(self) -> str:
        """Base URL of the running daemon."""
        return self.server.url

    def shutdown(self, timeout: float = 60.0) -> None:
        """Gracefully drain the daemon and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.server.shutdown())
            )
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ReproError("the server thread did not drain in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def start_in_background(
    config: Optional[ServeConfig] = None,
    ready_timeout: float = 30.0,
    server: Optional[FlowServer] = None,
) -> ServerHandle:
    """Start a :class:`FlowServer` on a background thread and wait for it.

    Pass a prepared *server* (e.g. one with an exploration schedule already
    attached) to start that instance instead of building one from *config*.
    """
    if server is None:
        server = FlowServer(config)
    elif config is not None:
        raise ReproError("pass either a config or a prepared server, not both")
    ready = threading.Event()
    loop_box: Dict[str, asyncio.AbstractEventLoop] = {}
    failure: Dict[str, BaseException] = {}

    def run() -> None:
        async def main() -> None:
            try:
                await server.start()
            except BaseException as error:  # noqa: BLE001 - surfaced to caller
                failure["error"] = error
                ready.set()
                return
            loop_box["loop"] = asyncio.get_running_loop()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        raise ReproError("the server did not start in time")
    if "error" in failure:
        raise ReproError(f"the server failed to start: {failure['error']}")
    return ServerHandle(server, loop_box["loop"], thread)
