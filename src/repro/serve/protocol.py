"""Versioned request/response schemas for the design-flow service.

The wire format is plain JSON over HTTP/1.1.  Every payload the daemon
accepts or emits is described here, so the server, the blocking client, the
CLI and the load generator share one schema:

* :class:`JobSpec` — one flow-job submission (workload, target system,
  reconfiguration time, partitioner, seed) plus scheduling hints (priority,
  tag).  Its :meth:`~JobSpec.request_key` is the canonical fingerprint the
  queue dedups on: two submissions with the same key describe the same
  design problem and must cost one solve, however many clients send them.
  Scheduling hints are deliberately excluded from the key.
* :class:`JobState` — the job lifecycle (``queued`` → ``running`` →
  ``done``/``failed``/``cancelled``).
* :func:`deterministic_result` / :func:`encode_result` — the byte-stable
  subset of a finished :class:`~repro.synth.flow_engine.FlowReport` row
  (design metrics only, no wall-times or cache provenance), canonically
  serialised so identical seeded loads produce identical result bytes.

Endpoints (all under :data:`API_PREFIX`):

========  ==========================  =======================================
method    path                        meaning
========  ==========================  =======================================
GET       ``/v1/health``              liveness + protocol/server version
GET       ``/v1/stats``               queue/engine/stage counters
POST      ``/v1/jobs``                submit one :class:`JobSpec` (202)
POST      ``/v1/batch``               submit many specs, per-item acks
GET       ``/v1/jobs/<id>``           job status view
GET       ``/v1/jobs/<id>/result``    deterministic result payload
GET       ``/v1/jobs/<id>/wait``      long-poll until terminal (or timeout)
GET       ``/v1/jobs/<id>/stream``    chunked stream of status transitions
POST      ``/v1/jobs/<id>/cancel``    cancel a still-queued job
POST      ``/v1/admin/shutdown``      graceful drain + exit (202)
========  ==========================  =======================================

When a daemon is started with an exploration schedule (``repro schedule``),
the work-stealing shard scheduler of
:mod:`~repro.explore.scheduler` adds (404 ``no-schedule`` otherwise):

========  ============================  =====================================
method    path                          meaning
========  ============================  =====================================
GET       ``/v1/scheduler/plan``        the published :class:`ExplorationPlan`
GET       ``/v1/scheduler/status``      lease/range counters
GET       ``/v1/scheduler/snapshot``    full scheduler state (JSON snapshot)
POST      ``/v1/scheduler/lease``       lease the next pending range
POST      ``/v1/scheduler/steal``       steal a straggler's range
POST      ``/v1/scheduler/renew``       extend a live lease
POST      ``/v1/scheduler/complete``    return one range's shard store
========  ============================  =====================================

Error responses are ``{"error": {"code": ..., "message": ..., ...}}`` with
the HTTP status carrying the class: 400 malformed request, 404 unknown
workload/job/route, 405 wrong method, 409 result not ready, 413 oversized
body, 429 queue full (with a ``Retry-After`` header), 503 draining.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ReproError
from ..partition.registry import check_partitioner
from ..runtime.canonical import canonical_fingerprint

#: Version of the request/response schema; part of every request key, so a
#: schema change never aliases onto results produced under the old one.
PROTOCOL_VERSION = 1

#: URL prefix every endpoint lives under.
API_PREFIX = "/v1"

#: Upper bound on accepted request bodies (a submission is a few hundred
#: bytes; anything near this is a client bug, not a bigger job).
MAX_BODY_BYTES = 1 << 20

#: Upper bound for ``/v1/scheduler/`` bodies: a ``complete`` streams a whole
#: shard store (one JSON line per evaluated point) back to the daemon.
SCHEDULER_MAX_BODY_BYTES = 32 << 20


class ProtocolError(ReproError):
    """A request the server understands well enough to reject precisely."""

    def __init__(self, message: str, status: int = 400, code: str = "bad-request"):
        super().__init__(message)
        self.status = status
        self.code = code


class JobState(str, enum.Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the state can no longer change."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: JobSpec fields a submission may carry; anything else is a 400.
_SPEC_FIELDS = (
    "workload", "params", "system", "ct_ms", "partitioner", "seed",
    "priority", "tag",
)

#: The fields of a :meth:`FlowReport.row` that are pure functions of the
#: request key — no wall-times, no cache provenance — and therefore must be
#: byte-identical across runs, machines and cache temperatures.
DETERMINISTIC_RESULT_FIELDS = (
    "workload", "status", "partitions", "k", "block_delay_ns",
    "total_latency_s", "error",
)


@dataclass(frozen=True)
class JobSpec:
    """One flow-job submission.

    ``priority`` (higher runs earlier) and ``tag`` are scheduling/display
    hints: they do not change the produced design, so they are excluded
    from :meth:`request_key` and two submissions differing only in them
    still coalesce onto one solve.
    """

    workload: str
    params: Dict[str, object] = field(default_factory=dict)
    system: Optional[str] = None
    ct_ms: Optional[float] = None
    partitioner: Optional[str] = None
    seed: int = 0
    priority: int = 0
    tag: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ProtocolError("'workload' must be a non-empty string")
        if not isinstance(self.params, dict) or not all(
            isinstance(key, str) for key in self.params
        ):
            raise ProtocolError("'params' must be an object with string keys")
        if self.system is not None and (
            not isinstance(self.system, str) or not self.system
        ):
            raise ProtocolError("'system' must be a non-empty string or null")
        if self.ct_ms is not None:
            if not isinstance(self.ct_ms, (int, float)) or isinstance(self.ct_ms, bool):
                raise ProtocolError("'ct_ms' must be a number or null")
            if self.ct_ms <= 0:
                raise ProtocolError("'ct_ms' must be positive")
        if self.partitioner is not None:
            check_partitioner(self.partitioner, ProtocolError)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ProtocolError("'seed' must be an integer")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ProtocolError("'priority' must be an integer")
        if not isinstance(self.tag, str):
            raise ProtocolError("'tag' must be a string")

    @classmethod
    def from_json_dict(cls, data: object) -> "JobSpec":
        """Validate one submission object (strict: unknown fields are a 400)."""
        if not isinstance(data, dict):
            raise ProtocolError("job submission must be a JSON object")
        unknown = sorted(set(data) - set(_SPEC_FIELDS))
        if unknown:
            raise ProtocolError(f"unknown job field(s): {', '.join(unknown)}")
        if "workload" not in data:
            raise ProtocolError("job submission is missing 'workload'")
        return cls(**{key: data[key] for key in _SPEC_FIELDS if key in data})

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form, round-trippable through :meth:`from_json_dict`."""
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "system": self.system,
            "ct_ms": self.ct_ms,
            "partitioner": self.partitioner,
            "seed": self.seed,
            "priority": self.priority,
            "tag": self.tag,
        }

    def request_key(self) -> str:
        """Canonical fingerprint of the *design problem* this spec names.

        Everything that changes the produced design participates; the
        scheduling hints (``priority``, ``tag``) do not.
        """
        return canonical_fingerprint({
            "protocol": PROTOCOL_VERSION,
            "workload": self.workload,
            "params": self.params,
            "system": self.system,
            "ct_ms": self.ct_ms,
            "partitioner": self.partitioner,
            "seed": self.seed,
        })

    @property
    def name(self) -> str:
        """Display name (tag, falling back to the workload)."""
        return self.tag or self.workload


def deterministic_result(row: Dict[str, object]) -> Dict[str, object]:
    """The byte-stable subset of one flow-report row.

    Wall-times, cache provenance (``stage_sources``/``partition_source``)
    and the submission tag vary run to run; the design metrics do not.
    """
    return {key: row.get(key) for key in DETERMINISTIC_RESULT_FIELDS}


def encode_result(row: Dict[str, object]) -> str:
    """Canonical JSON encoding of :func:`deterministic_result`.

    Sorted keys and tight separators: two runs that produced the same
    design produce the same bytes, which is what the load generator's
    byte-identity check compares.
    """
    return json.dumps(
        deterministic_result(row), sort_keys=True, separators=(",", ":")
    )


def error_body(code: str, message: str, **extra: object) -> Dict[str, object]:
    """The standard error envelope."""
    payload: Dict[str, object] = {"code": code, "message": message}
    payload.update(extra)
    return {"error": payload}


def parse_json_body(body: bytes, limit: int = MAX_BODY_BYTES) -> object:
    """Decode a request body, mapping bad bytes/JSON onto a 400.

    *limit* defaults to the ordinary submission bound; scheduler endpoints
    pass :data:`SCHEDULER_MAX_BODY_BYTES` because a range completion
    carries a whole shard store.
    """
    if len(body) > limit:
        raise ProtocolError(
            f"request body exceeds {limit} bytes",
            status=413, code="body-too-large",
        )
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(
            f"request body is not valid JSON: {error}", code="bad-json"
        ) from error


def submissions_from_body(payload: object) -> List[JobSpec]:
    """Parse a ``/v1/batch`` body (``{"jobs": [spec, ...]}``)."""
    if not isinstance(payload, dict) or "jobs" not in payload:
        raise ProtocolError("batch submission must be {'jobs': [...]}")
    jobs = payload["jobs"]
    if not isinstance(jobs, list) or not jobs:
        raise ProtocolError("'jobs' must be a non-empty list")
    return [JobSpec.from_json_dict(item) for item in jobs]
