"""The HTTP front end: a stdlib JSON API over the job table.

``repro serve`` binds one of these.  Endpoints (all JSON):

========  =========================  =======================================
method    path                       meaning
========  =========================  =======================================
POST      ``/v1/sweeps``             submit one sweep (``SweepSpec`` payload,
                                     or ``{"spec": ..., "profile": ...}``)
POST      ``/v1/campaigns``          submit a campaign (the ``repro
                                     campaign`` manifest format)
GET       ``/v1/jobs``               list every job's status
GET       ``/v1/jobs/<id>``          one job's status (failed/quarantined
                                     seeds ride in the body);
                                     ``?wait=<seconds>`` long-polls: the
                                     server blocks until the job is
                                     terminal or the wait (capped at
                                     ``max_poll_wait``, default 30s)
                                     elapses, then answers
GET       ``/v1/jobs/<id>/result``   the sweep export payload (409 until
                                     the job is ``done``)
DELETE    ``/v1/jobs/<id>``          honest cancel — a ``queued`` job
                                     never runs
GET       ``/v1/queue``              ``queue_status()`` of the profile's
                                     work-queue dir (``?dir=`` overrides;
                                     a missing/non-directory ``?dir`` is a
                                     structured 400)
GET       ``/v1/health``             liveness + job-state counts (and the
                                     state dir, when persistent)
========  =========================  =======================================

Failure semantics over HTTP are structured, never raw tracebacks:
validation failures are ``400`` with the :func:`validate_execution` /
``SweepSpec`` message, unknown jobs are ``404``, a result requested
before the job finished is ``409`` naming the current state, and a
failed job's status carries ``{"error": {"error_type", "message",
"failed_seeds": [...]}}`` so quarantined seeds look the same over the
wire as they do in ``SweepResult.failed_seeds``.

Built on ``ThreadingHTTPServer`` — one thread per connection, which the
bounded :class:`~repro.service.jobs.JobTable` turns into "hundreds of
submitters, one fleet" instead of hundreds of pools.  Under a
distributed profile that fleet is resident: the server's
:class:`~repro.api.Client` forks its local workers on the first queued
job and keeps them, arenas and all, until :meth:`JobServer.close`, and
up to ``parallel_jobs`` jobs (default: the fleet size) run on it side
by side.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api import (
    Client,
    ExecutionProfile,
    SweepSpec,
    load_campaign_manifest,
)
from repro.service.jobs import JobRecord, JobTable
from repro.service.persist import DEFAULT_JOB_LEASE_TTL, JobStateStore

_MAX_BODY_BYTES = 8 * 1024 * 1024  # a campaign manifest, with headroom
# Ceiling on `?wait=` long-polls: bounds how long one HTTP connection
# (and its handler thread) can park server-side per request.  Clients
# re-issue the wait; capping is about resource bounds, not correctness.
DEFAULT_MAX_POLL_WAIT = 30.0


class _ApiError(Exception):
    """An error the handler turns into a structured JSON response."""

    def __init__(self, status: int, message: str, **extra: object) -> None:
        super().__init__(message)
        self.status = status
        self.payload: Dict[str, object] = {
            "error": {"code": status, "message": message, **extra},
        }


def _clean_message(error: BaseException) -> str:
    """The human message without KeyError's quoting artifacts."""
    if error.args and isinstance(error.args[0], str):
        return error.args[0]
    return str(error)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # -- plumbing -------------------------------------------------------
    @property
    def app(self) -> "JobServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.app.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise _ApiError(413, "request body too large")
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> object:
        body = self._read_body()
        if not body:
            raise _ApiError(400, "request body must be a JSON object")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise _ApiError(400, f"request body is not valid JSON: {error}")

    def _dispatch(self, method: str) -> None:
        try:
            parsed = urlparse(self.path)
            parts = [part for part in parsed.path.split("/") if part]
            query = parse_qs(parsed.query)
            status, payload = self.app.handle(method, parts, query, self)
        except _ApiError as error:
            status, payload = error.status, error.payload
        except BrokenPipeError:  # client went away mid-response
            return
        except Exception as error:  # never a raw traceback on the wire
            status = 500
            payload = {
                "error": {
                    "code": 500,
                    "message": (
                        f"internal error: {type(error).__name__}: {error}"
                    ),
                },
            }
        try:
            self._send_json(status, payload)
        except BrokenPipeError:
            pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The default listen backlog (5) resets connections the moment a
    # few dozen clients connect at once; the service's whole point is
    # hundreds of simultaneous submitters.
    request_queue_size = 256


class JobServer:
    """One bound HTTP server over one :class:`JobTable`.

    ``port=0`` binds an ephemeral port (``address`` reports the real
    one), which is what the tests and the example use.  ``start()``
    serves from a background thread; ``serve_forever()`` serves on the
    caller's thread (the CLI).  Context-manager use closes everything.

    ``state_dir`` makes the job table durable: transitions journal to
    disk, a restart on the same dir recovers every job (terminal
    results stay fetchable; work that died with the server is failed
    with a ``server_restart`` error; unstarted work re-dispatches), and
    multiple servers sharing the dir dispatch each job exactly once via
    ``O_EXCL`` leases.  ``max_poll_wait`` caps ``?wait=`` long-polls.

    ``parallel_jobs`` caps the jobs in flight.  Under a distributed
    profile it defaults to the local fleet size, ``max(workers, 1)`` (the
    autoscaler's ceiling with autoscaling), so as many clients as there
    are workers never queue behind each other on the shared fleet; a
    pool profile forks a pool per job and defaults to 1.  A client the
    server builds itself keeps its fleet (see :class:`~repro.api.Client`)
    and is closed with the server.
    """

    def __init__(
        self,
        profile: Optional[ExecutionProfile] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        parallel_jobs: Optional[int] = None,
        client: Optional[Client] = None,
        verbose: bool = False,
        state_dir=None,
        max_poll_wait: float = DEFAULT_MAX_POLL_WAIT,
        job_lease_ttl: float = DEFAULT_JOB_LEASE_TTL,
    ) -> None:
        if max_poll_wait < 0:
            raise ValueError("max_poll_wait must be >= 0")
        self._owns_client = client is None
        self.client = (
            client if client is not None else Client(profile, keep_fleet=True)
        )
        if parallel_jobs is None:
            # The resident fleet's size; a pool profile forks a pool
            # per job, so its jobs run one at a time.
            profile = self.client.profile
            parallel_jobs = (
                max(profile.fleet_bounds()[1], 1)
                if profile.distributed else 1
            )
        self.store = (
            JobStateStore(state_dir, lease_ttl=job_lease_ttl)
            if state_dir is not None else None
        )
        self.table = JobTable(
            self.client, parallel_jobs=parallel_jobs, store=self.store,
        )
        self.max_poll_wait = float(max_poll_wait)
        self.verbose = verbose
        self._http = _HTTPServer((host, port), _Handler)
        self._http.app = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- addressing -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- serving --------------------------------------------------------
    def start(self) -> "JobServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                daemon=True,
                name="repro-serve",
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._http.serve_forever()

    def close(self) -> None:
        """Stop listening, stop the dispatchers (queued jobs never run)
        and close the server's own client, stopping its resident fleet
        (a distributed job still running on it aborts; other running
        jobs finish on their daemon threads)."""
        if self._closed:
            return
        self._closed = True
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.table.close()
        if self._owns_client:
            self.client.close()

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing --------------------------------------------------------
    def handle(
        self, method: str, parts, query, request: _Handler,
    ) -> Tuple[int, object]:
        if not parts or parts[0] != "v1":
            raise _ApiError(404, f"unknown path {request.path!r}")
        route = parts[1:]
        if route == ["health"] and method == "GET":
            return 200, self._health_payload()
        if route == ["queue"] and method == "GET":
            return 200, self._queue_payload(query)
        if route == ["sweeps"] and method == "POST":
            return 201, self._submit_sweep(request._read_json())
        if route == ["campaigns"] and method == "POST":
            return 201, self._submit_campaign(request._read_body())
        if route == ["jobs"] and method == "GET":
            return 200, {
                "jobs": [
                    record.status_payload()
                    for record in self.table.jobs()
                ],
            }
        if len(route) >= 2 and route[0] == "jobs":
            record = self.table.get(route[1])
            if record is None:
                raise _ApiError(404, f"unknown job {route[1]!r}")
            if len(route) == 2 and method == "GET":
                wait_seconds = self._wait_seconds(query)
                if wait_seconds > 0:
                    record.wait(wait_seconds)
                return 200, record.status_payload()
            if len(route) == 2 and method == "DELETE":
                cancelled = record.cancel()
                return 200, {
                    "id": record.job_id,
                    "state": record.state(),
                    "cancelled": cancelled,
                }
            if route[2:] == ["result"] and method == "GET":
                return 200, self._result(record)
        raise _ApiError(404, f"unknown path {request.path!r}")

    # -- endpoint bodies ------------------------------------------------
    def _wait_seconds(self, query) -> float:
        """The validated, capped ``?wait=`` long-poll duration."""
        raw = (query.get("wait") or [None])[0]
        if raw is None:
            return 0.0
        try:
            value = float(raw)
        except ValueError:
            raise _ApiError(
                400, f"wait must be a number of seconds, got {raw!r}"
            )
        if value < 0 or value != value or value == float("inf"):
            raise _ApiError(
                400, f"wait must be a finite number >= 0, got {raw!r}"
            )
        return min(value, self.max_poll_wait)

    def _health_payload(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for record in self.table.jobs():
            state = record.state()
            counts[state] = counts.get(state, 0) + 1
        payload: Dict[str, object] = {"status": "ok", "jobs": counts}
        if self.store is not None:
            payload["state_dir"] = str(self.store.state_dir)
        return payload

    def _queue_payload(self, query) -> Dict[str, object]:
        from repro.simulation.distributed import (
            queue_path_error,
            queue_status,
        )

        queue_dir = (query.get("dir") or [None])[0]
        if queue_dir is not None:
            # Same validation (and message shape) the CLI applies to
            # `repro queue`/`repro worker`: a mistyped path is a loud,
            # structured 400, never a queue_status() crash turned 500.
            error = queue_path_error(queue_dir)
            if error is not None:
                raise _ApiError(400, error)
        if queue_dir is None:
            queue_dir = self.client.profile.queue_dir
        if queue_dir is None:
            raise _ApiError(
                409,
                "no queue_dir: the server profile is not distributed; "
                "pass ?dir=<path> to inspect an explicit queue",
            )
        return {
            "queue_dir": str(queue_dir),
            "sweeps": [
                status.to_payload() for status in queue_status(queue_dir)
            ],
        }

    def _submit_sweep(self, payload: object) -> Dict[str, object]:
        if not isinstance(payload, dict):
            raise _ApiError(400, "sweep submission must be a JSON object")
        profile = None
        spec_payload = payload
        if "spec" in payload:
            unknown = set(payload) - {"spec", "profile"}
            if unknown:
                raise _ApiError(
                    400,
                    f"unknown sweep submission field(s): {sorted(unknown)}",
                )
            spec_payload = payload["spec"]
            if payload.get("profile") is not None:
                try:
                    profile = ExecutionProfile.from_payload(
                        payload["profile"]
                    )
                except (KeyError, TypeError, ValueError) as error:
                    raise _ApiError(
                        400, f"invalid profile: {_clean_message(error)}"
                    )
        try:
            spec = SweepSpec.from_payload(spec_payload)
        except (KeyError, TypeError, ValueError) as error:
            raise _ApiError(
                400, f"invalid sweep spec: {_clean_message(error)}"
            )
        record = self.table.submit_sweep(spec, profile)
        return record.status_payload()

    def _submit_campaign(self, body: bytes) -> Dict[str, object]:
        try:
            manifest = load_campaign_manifest(
                body.decode("utf-8") if body else ""
            )
        except (UnicodeDecodeError, KeyError, ValueError) as error:
            raise _ApiError(
                400, f"invalid campaign manifest: {_clean_message(error)}"
            )
        record = self.table.submit_campaign(
            manifest.specs, manifest.profile, name=manifest.name
        )
        return record.status_payload()

    def _result(self, record: JobRecord) -> object:
        state = record.state()
        if state in ("queued", "running"):
            raise _ApiError(
                409,
                f"job {record.job_id} is still {state}; poll "
                f"GET /v1/jobs/{record.job_id} until it is done",
                state=state,
            )
        if state == "cancelled":
            raise _ApiError(
                409,
                f"job {record.job_id} was cancelled and has no result",
                state=state,
            )
        if state == "failed":
            status = record.status_payload()
            error = status.get("error") or {}
            raise _ApiError(
                500,
                f"job {record.job_id} failed: "
                f"{error.get('error_type', 'Exception')}: "
                f"{error.get('message', '')}",
                state=state,
                **(
                    {"failed_seeds": error["failed_seeds"]}
                    if "failed_seeds" in error else {}
                ),
            )
        result = record.result_payload()
        if result is None:  # pragma: no cover - done implies a payload
            raise _ApiError(500, f"job {record.job_id} lost its result")
        return result
