"""The in-process job table behind the HTTP service.

Many HTTP clients, one execution fleet: every ``POST`` lands a
:class:`JobRecord` in the :class:`JobTable`, and a bounded set of
dispatcher threads drains the table in submission order through one
shared :class:`~repro.api.Client`.  That is what makes the server a
multiplexer instead of a fork bomb — a hundred simultaneous submitters
share ``parallel_jobs`` dispatchers and the client's one worker pool /
distributed fleet, rather than each HTTP connection spawning its own.
``parallel_jobs`` is a plain in-flight cap: the table defaults to 1,
and :class:`~repro.service.server.JobServer` raises it to the size of
its resident worker fleet, so concurrent jobs run side by side on the
same warm workers.

Job lifecycle mirrors the API handles — ``queued`` → ``running`` →
``done`` / ``failed`` / ``cancelled`` — and cancellation keeps the
Client's honesty contract: a job cancelled while still ``queued`` never
executes anything; a running sweep finishes (nothing is spared); a
running campaign finishes the sweep in flight and skips the rest.

With a :class:`~repro.service.persist.JobStateStore` attached the table
is durable: every transition is journaled to the state dir, ``done``
results are persisted before they are announced, and a restarted table
recovers the whole journal — terminal jobs come back with their results
fetchable, jobs that were ``running`` when the server died are
re-marked ``failed`` with a structured ``server_restart`` error, jobs
that never started are re-dispatched, and id allocation resumes past
the recovered maximum.  Two tables sharing one state dir allocate ids
through the store's ``O_EXCL`` reservation (so live servers never mint
the same id) and claim each job with an ``O_EXCL`` dispatch lease
before running it, so a job is executed exactly once no matter how many
servers can see it; the losing table keeps a *passive* record that
follows the winner's journal — and fails the job over with the same
``server_restart`` error recovery applies if the winner dies mid-run.
Leases are released once the job is terminal and recovery sweeps
whatever a crash leaves behind.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    CancelledError,
    Client,
    ExecutionProfile,
    SweepSpec,
    campaign_labels,
)
from repro.api.client import CANCELLED, DONE, FAILED, QUEUED, RUNNING
from repro.api.spec import EXECUTION_BACKENDS
from repro.service.persist import JobStateStore

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

# How often a waiter re-reads the journal of a passive record (one
# another server is executing) while blocked in JobRecord.wait().
_PASSIVE_POLL = 0.1


def _error_payload(error: BaseException) -> Dict[str, object]:
    """A JSON-ready description of why a job failed.

    ``SweepFailureError`` carries its structured per-seed failure
    records, so the HTTP status body names the quarantined seeds the
    same way ``SweepResult.failed_seeds`` would have.
    """
    payload: Dict[str, object] = {
        "error_type": type(error).__name__,
        "message": str(error),
    }
    failed = getattr(error, "failed_seeds", None)
    if failed:
        payload["failed_seeds"] = list(failed)
    scenario = getattr(error, "scenario", None)
    if scenario is not None:
        payload["scenario"] = scenario
    return payload


class JobRecord:
    """One submitted job: a sweep or a campaign, plus its lifecycle."""

    def __init__(
        self,
        job_id: str,
        kind: str,
        specs: Sequence[SweepSpec],
        profile: Optional[ExecutionProfile],
        name: str = "",
        created: Optional[float] = None,
    ) -> None:
        self.job_id = job_id
        self.kind = kind  # "sweep" | "campaign"
        self.specs: Tuple[SweepSpec, ...] = tuple(specs)
        self.labels = campaign_labels(self.specs)
        self.profile = profile
        self.name = name
        self.created = time.time() if created is None else float(created)
        self.store: Optional[JobStateStore] = None
        self._lock = threading.Lock()
        # Waiters park on the condition (signalled at terminal and on
        # the queued→passive flip); the event is the terminal fact.
        self._changed = threading.Condition(self._lock)
        self._finished = threading.Event()
        self._state = QUEUED
        self._passive = False  # another server holds the dispatch lease
        self._handle = None  # the api handle once running
        self._result_payload: Optional[Dict[str, object]] = None
        self._error: Optional[Dict[str, object]] = None

    # -- persistence ----------------------------------------------------
    def to_persist_payload(self) -> Dict[str, object]:
        """The journal entry: everything a restarted table needs."""
        with self._lock:
            return {
                "id": self.job_id,
                "kind": self.kind,
                "name": self.name,
                "state": self._state,
                "specs": [spec.to_payload() for spec in self.specs],
                "profile": (
                    self.profile.to_payload()
                    if self.profile is not None else None
                ),
                "error": dict(self._error) if self._error else None,
                "created": self.created,
                "updated": time.time(),
            }

    @classmethod
    def from_persist_payload(
        cls, payload: Dict[str, object]
    ) -> "JobRecord":
        """Rebuild a record from its journal entry (raises on garbage)."""
        specs = [
            SweepSpec.from_payload(entry) for entry in payload["specs"]
        ]
        profile_payload = payload.get("profile")
        profile = None
        if profile_payload is not None:
            # A journal outlives the release that wrote it: the keys of
            # profile fields removed since (set or null) are dropped, and
            # a removed pool backend (the thread pool) reads as the
            # process pool, so the job keeps its state and result
            # (profiles never change results).  Manifests and HTTP
            # profiles stay strict.
            declared = {f.name for f in dataclasses.fields(ExecutionProfile)}
            profile_payload = {
                key: value for key, value in profile_payload.items()
                if key in declared
            }
            if profile_payload.get("backend") not in EXECUTION_BACKENDS:
                profile_payload["backend"] = "process"
            profile = ExecutionProfile.from_payload(profile_payload)
        record = cls(
            str(payload["id"]), str(payload["kind"]), specs, profile,
            name=str(payload.get("name") or ""),
            created=payload.get("created"),
        )
        state = payload.get("state")
        if state in JOB_STATES:
            record._state = state
        error = payload.get("error")
        if isinstance(error, dict):
            record._error = dict(error)
        if record._state in TERMINAL_STATES:
            record._finished.set()
        return record

    def _journal(self) -> None:
        """Publish the current state to the store (atomic, best-order).

        Transitions are serialized by the record's state machine — the
        dispatcher owns ``running`` → terminal and ``cancel`` only ever
        wins from ``queued`` — so each journal write strictly supersedes
        the previous one.
        """
        if self.store is not None and not self._passive:
            self.store.save_job(self.to_persist_payload())

    def _finish_locked(self) -> None:
        """Mark terminal and wake every waiter (caller holds the lock)."""
        self._finished.set()
        self._changed.notify_all()

    def _mark_passive(self) -> None:
        """Another server claimed this job; follow its journal instead."""
        with self._lock:
            if self._state in TERMINAL_STATES:
                return
            self._passive = True
            # Waiters parked on the condition switch to journal polling.
            self._changed.notify_all()

    def _adopt_journal(self) -> str:
        """Adopt the journaled state of a passively-watched job."""
        payload = self.store.load_job(self.job_id)
        state = payload.get("state") if payload else None
        with self._lock:
            if (
                self._state not in TERMINAL_STATES
                and state in JOB_STATES
            ):
                self._state = state
                error = payload.get("error")
                self._error = dict(error) if isinstance(error, dict) else None
                if state in TERMINAL_STATES:
                    self._finish_locked()
            return self._state

    def _refresh_from_store(self) -> str:
        """Follow the owning server's journal; fail over if it died.

        A passive record's owner can crash after journaling ``running``
        — its journal then never goes terminal on its own, and without
        this check a client long-polling the surviving server would
        hang forever.  When the owner's dispatch lease is provably dead
        the journal is re-read once (a terminal state may have landed
        just before the lease was dropped) and the job is then failed
        with the same structured ``server_restart`` error that startup
        recovery applies.
        """
        if not self._passive or self.store is None:
            return self.state()
        state = self._adopt_journal()
        if state in TERMINAL_STATES or self.store.lease_live(self.job_id):
            return state
        state = self._adopt_journal()
        if state in TERMINAL_STATES:
            return state
        self._mark_restart_failed()
        with self._lock:
            return self._state

    def _mark_restart_failed(self) -> None:
        """Recovery for a job that was ``running`` when its server died."""
        with self._lock:
            if self._state in TERMINAL_STATES:
                return
            self._passive = False  # the dead owner's journal is ours now
            self._state = FAILED
            self._error = {
                "error_type": "ServerRestartError",
                "message": (
                    "server restarted while the job was running; "
                    "resubmit to recompute"
                ),
                "reason": "server_restart",
            }
            self._finish_locked()
        self._journal()
        if self.store is not None:
            self.store.discard_lease(self.job_id)

    def _shutdown_cancel(self) -> bool:
        """Clean-shutdown cancel for a job no dispatcher ever reached.

        Only flips locally-owned ``queued`` records (a passive record
        belongs to another live server — it is not stranded).  The
        structured ``server_shutdown`` reason tells waiters and a
        recovering table that the job was never started.
        """
        with self._lock:
            if self._passive or self._state != QUEUED:
                return False
            self._state = CANCELLED
            self._error = {
                "error_type": "CancelledError",
                "message": "server shut down before the job ran",
                "reason": "server_shutdown",
            }
            self._finish_locked()
        self._journal()
        return True

    # -- lifecycle ------------------------------------------------------
    def state(self) -> str:
        if self._passive:
            return self._refresh_from_store()
        with self._lock:
            return self._state

    def done(self) -> bool:
        return self.state() in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal (or ``timeout`` seconds); True if done.

        The server's long-poll route parks here.  Local records sleep
        on the condition — one wakeup at terminal, timeout, or the
        queued→passive flip, never a poll — and only passive records
        (another server is executing the job) fall back to re-reading
        the owner's journal between short waits.
        """
        if self.store is None:
            return self._finished.wait(timeout)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            if self._passive:
                if self._refresh_from_store() in TERMINAL_STATES:
                    return True
            if self._finished.is_set():
                return True
            remaining = (
                None if deadline is None
                else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return False
            if self._passive:
                chunk = (
                    _PASSIVE_POLL if remaining is None
                    else min(_PASSIVE_POLL, remaining)
                )
                if self._finished.wait(chunk):
                    return True
            else:
                with self._changed:
                    if not self._passive and not self._finished.is_set():
                        self._changed.wait(remaining)

    def cancel(self) -> bool:
        """Honest cancellation, same contract as the api handles.

        ``queued`` jobs flip to ``cancelled`` and never execute; for a
        running job the underlying handle decides (a running sweep
        finishes — nothing spared, returns False; a running campaign
        skips the sweeps it has not started).  Terminal jobs return
        False.  A passive record belongs to another server's dispatcher
        and cannot be spared from here.
        """
        with self._lock:
            if self._passive:
                return False
            if self._state == QUEUED:
                self._state = CANCELLED
                self._error = {
                    "error_type": "CancelledError",
                    "message": "job cancelled before it ran",
                }
                self._finish_locked()
                cancelled = True
            elif self._state == RUNNING and self._handle is not None:
                return self._handle.cancel()
            else:
                return False
        if cancelled:
            self._journal()
        return cancelled

    def _execute(self, client: Client) -> None:
        """Run the job through the shared client (dispatcher thread)."""
        with self._lock:
            if self._state != QUEUED or self._passive:
                return  # cancelled (or claimed elsewhere) while waiting
            self._state = RUNNING
        self._journal()
        try:
            if self.kind == "sweep":
                handle = client.submit(self.specs[0], self.profile)
            else:
                handle = client.submit_campaign(self.specs, self.profile)
            with self._lock:
                self._handle = handle
            outcome = handle.result()
            payload = self._outcome_payload(outcome)
            if self.store is not None:
                # Results land on disk before `done` is journaled, so
                # any observer of the terminal state finds the payload.
                self.store.save_result(self.job_id, payload)
            with self._lock:
                self._state = DONE
                self._result_payload = payload
        except CancelledError as error:
            with self._lock:
                self._state = CANCELLED
                self._error = _error_payload(error)
        except BaseException as error:  # surfaced via the status body
            with self._lock:
                self._state = FAILED
                self._error = _error_payload(error)
        finally:
            self._journal()
            with self._lock:
                self._finish_locked()

    def _outcome_payload(self, outcome) -> Dict[str, object]:
        from repro.analysis.export import sweep_to_payload

        if self.kind == "sweep":
            return sweep_to_payload(outcome)
        return {
            label: sweep_to_payload(sweep)
            for label, sweep in zip(outcome.labels, outcome.sweeps)
        }

    # -- the HTTP-facing views ------------------------------------------
    def status_payload(self) -> Dict[str, object]:
        """The ``GET /v1/jobs/<id>`` body: state plus what failed."""
        if self._passive:
            self._refresh_from_store()
        with self._lock:
            state = self._state
            error = self._error
            result = self._result_payload
            handle = self._handle
        if state == DONE and result is None:
            result = self.result_payload()
        payload: Dict[str, object] = {
            "id": self.job_id,
            "kind": self.kind,
            "state": state,
        }
        if self.kind == "sweep":
            payload["spec"] = self.specs[0].to_payload()
        else:
            payload["specs"] = [spec.to_payload() for spec in self.specs]
            payload["labels"] = list(self.labels)
            if self.name:
                payload["name"] = self.name
            if handle is not None and hasattr(handle, "progress"):
                completed, total = handle.progress()
                payload["progress"] = {
                    "completed": completed, "total": total,
                }
        if state == DONE and result is not None:
            # Quarantined/failed seeds ride in the status body so a
            # poller sees partial failure without fetching the export.
            if self.kind == "sweep":
                payload["failed_seeds"] = list(
                    result.get("failed_seeds") or []
                )
            else:
                payload["failed_seeds"] = {
                    label: list(sweep.get("failed_seeds") or [])
                    for label, sweep in result.items()
                }
        if error is not None:
            payload["error"] = dict(error)
        return payload

    def result_payload(self) -> Optional[Dict[str, object]]:
        """The ``GET /v1/jobs/<id>/result`` body once ``done``.

        A recovered or passive record reloads the payload from the
        state dir on first ask (results are persisted before ``done``
        is journaled, so a ``done`` state guarantees the file).
        """
        with self._lock:
            if self._result_payload is not None:
                return self._result_payload
            state = self._state
        if state == DONE and self.store is not None:
            payload = self.store.load_result(self.job_id)
            if payload is not None:
                with self._lock:
                    self._result_payload = payload
            return payload
        return None


class JobTable:
    """Submission order in, one shared client out.

    ``parallel_jobs`` dispatcher threads pull queued records off a FIFO
    and execute them through the one :class:`~repro.api.Client`; jobs
    beyond that bound wait as ``queued`` — which is exactly the window
    in which ``DELETE`` guarantees they never run.

    Pass a :class:`~repro.service.persist.JobStateStore` to make the
    table durable (see the module docstring for the recovery and
    multi-server contracts).
    """

    def __init__(
        self,
        client: Optional[Client] = None,
        parallel_jobs: int = 1,
        store: Optional[JobStateStore] = None,
    ) -> None:
        if parallel_jobs < 1:
            raise ValueError("parallel_jobs must be at least 1")
        self.client = client if client is not None else Client()
        self.parallel_jobs = parallel_jobs
        self.store = store
        self._queue: "queue.SimpleQueue[Optional[JobRecord]]" = (
            queue.SimpleQueue()
        )
        self._jobs: Dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._closed = False
        self._stop_heartbeat = threading.Event()
        self._heartbeat: Optional[threading.Thread] = None
        redispatch: List[JobRecord] = []
        if store is not None:
            redispatch = self._recover(store)
        self._dispatchers = [
            threading.Thread(
                target=self._drive,
                daemon=True,
                name=f"repro-job-dispatcher-{index}",
            )
            for index in range(parallel_jobs)
        ]
        for thread in self._dispatchers:
            thread.start()
        for record in redispatch:
            self._queue.put(record)
        if store is not None:
            self._heartbeat = threading.Thread(
                target=self._beat, daemon=True,
                name="repro-job-lease-heartbeat",
            )
            self._heartbeat.start()

    # -- recovery -------------------------------------------------------
    def _recover(self, store: JobStateStore) -> List[JobRecord]:
        """Reload the journal; returns the jobs to re-dispatch.

        Terminal jobs come back as-is (results reload lazily from the
        store).  ``queued`` jobs re-enter the dispatch queue — the
        lease claim decides, at dispatch time, whether this table or
        another one sharing the state dir actually runs them.
        ``running`` jobs with a provably dead owner are the crash case:
        re-marked ``failed`` with a ``server_restart`` error; with a
        live owner they are another server's work, watched passively.
        """
        redispatch: List[JobRecord] = []
        terminal: List[str] = []
        for payload in store.recover_jobs():
            try:
                record = JobRecord.from_persist_payload(payload)
            except Exception:
                continue  # unknown scenario/garbage: never block startup
            record.store = store
            state = record.state()
            if state == RUNNING:
                if store.lease_live(record.job_id):
                    record._passive = True
                else:
                    record._mark_restart_failed()
                    terminal.append(record.job_id)
            elif state == QUEUED:
                redispatch.append(record)
            else:
                terminal.append(record.job_id)
            self._jobs[record.job_id] = record
        # Terminal jobs' leases (and orphaned steal tombstones) are
        # litter a crashed server left behind; reap them now so a
        # long-lived state dir does not accumulate one file per job.
        store.sweep_stale_leases(terminal)
        self._counter = itertools.count(store.max_job_number() + 1)
        return redispatch

    def _beat(self) -> None:
        """Keep this table's dispatch leases visibly alive (mtime)."""
        interval = min(5.0, max(0.05, self.store.lease_ttl / 4.0))
        while not self._stop_heartbeat.wait(interval):
            self.store.touch_owned_leases()

    # -- dispatch -------------------------------------------------------
    def _drive(self) -> None:
        while True:
            record = self._queue.get()
            if record is None:
                return
            if self.store is None:
                record._execute(self.client)
                continue
            if not self._claim(record):
                continue
            try:
                record._execute(self.client)
            finally:
                # The terminal state is journaled by now; the dispatch
                # lease is litter and shared state dirs must not keep it.
                self.store.release(record.job_id)

    def _claim(self, record: JobRecord) -> bool:
        """Exactly-once dispatch across every table sharing the store."""
        if record.state() != QUEUED:
            return True  # terminal already; _execute skips it
        if not self.store.claim(record.job_id):
            record._mark_passive()
            return False
        # Between journal recovery and this claim another server may
        # have journaled a cancel — or run the job to completion and
        # released its lease (which is what made our claim succeed).
        # Honor any terminal journal rather than racing or re-running.
        disk = self.store.load_job(record.job_id)
        state = disk.get("state") if disk else None
        if state in TERMINAL_STATES:
            with record._lock:
                if record._state not in TERMINAL_STATES:
                    record._state = state
                    error = disk.get("error")
                    record._error = (
                        dict(error) if isinstance(error, dict) else None
                    )
                    record._finish_locked()
            self.store.release(record.job_id)  # claimed above, never run
            return False
        return True

    def _allocate_id(self) -> str:
        """The next job id; store-backed tables reserve it on disk.

        Each live server seeds its counter from the journal only once,
        at recovery, so counters alone collide the moment two servers
        share a state dir — the ``O_EXCL`` reservation makes the store
        the arbiter: a taken number is skipped, never reused.  Caller
        holds the table lock.
        """
        if self.store is None:
            return f"job-{next(self._counter):06d}"
        while True:
            job_id = self.store.reserve_job_id(next(self._counter))
            if job_id is not None:
                return job_id

    def _enqueue(
        self,
        kind: str,
        specs: Sequence[SweepSpec],
        profile: Optional[ExecutionProfile],
        name: str = "",
    ) -> JobRecord:
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one sweep spec")
        for spec in specs:
            if not isinstance(spec, SweepSpec):
                raise TypeError(
                    f"expected SweepSpec entries, got {type(spec).__name__}"
                )
        if profile is not None and not isinstance(profile, ExecutionProfile):
            raise TypeError(
                f"expected an ExecutionProfile, got {type(profile).__name__}"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("job table is closed")
            job_id = self._allocate_id()
            record = JobRecord(job_id, kind, specs, profile, name=name)
            record.store = self.store
            self._jobs[job_id] = record
        record._journal()
        self._queue.put(record)
        return record

    # -- submissions ----------------------------------------------------
    def submit_sweep(
        self,
        spec: SweepSpec,
        profile: Optional[ExecutionProfile] = None,
    ) -> JobRecord:
        return self._enqueue("sweep", [spec], profile)

    def submit_campaign(
        self,
        specs: Sequence[SweepSpec],
        profile: Optional[ExecutionProfile] = None,
        name: str = "",
    ) -> JobRecord:
        return self._enqueue("campaign", specs, profile, name=name)

    # -- lookups --------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """Every record, oldest first (ids are zero-padded counters)."""
        with self._lock:
            return [
                self._jobs[job_id] for job_id in sorted(self._jobs)
            ]

    # -- shutdown -------------------------------------------------------
    def close(self, wait: bool = False, timeout: Optional[float] = None):
        """Stop accepting work; optionally join the dispatchers.

        Queued jobs no dispatcher reached are cancelled with a
        structured ``server_shutdown`` reason — never stranded as
        ``queued`` forever (an in-process waiter would hang, and a
        persisted table would recover phantom work).  Running jobs
        finish on their daemon threads.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            records = list(self._jobs.values())
        for record in records:
            record._shutdown_cancel()
        for _ in self._dispatchers:
            self._queue.put(None)
        self._stop_heartbeat.set()
        if wait:
            for thread in self._dispatchers:
                thread.join(timeout)
