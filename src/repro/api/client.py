"""The job-oriented client: submit sweeps and campaigns, watch queues.

:class:`Client` is the canonical programmatic entry point.  It binds an
:class:`~repro.api.spec.ExecutionProfile` (how work executes) and turns
:class:`~repro.api.spec.SweepSpec` values (what to run) into handles:

* :meth:`Client.submit` — non-blocking; returns a :class:`SweepHandle`
  with ``status()`` / ``wait()`` / ``result()`` / ``cancel()``;
* :meth:`Client.submit_campaign` — many specs as one unit of work,
  returning a :class:`CampaignHandle` whose :class:`CampaignResult`
  collects per-scenario results and writes per-scenario JSON exports;
* :meth:`Client.run` / :meth:`Client.run_campaign` — the blocking
  conveniences (submit + result);
* :meth:`Client.queue_status` — the profile's work-queue state
  (pending/leased/done per sweep, lease ages, steal history).

Execution happens in a background thread per handle, driving the same
:func:`repro.simulation.sweep.execute_sweep` /
:func:`~repro.simulation.sweep.execute_campaign` engine as the CLI, so
results are bit-identical across both surfaces.  Cancellation is
cooperative and honest: a sweep that has already started computing runs
to completion (pool maps and queue drains are not interruptible
mid-seed), but a handle cancelled before its work starts never computes
anything, and a cancelled campaign finishes the sweep in flight and
skips the rest.  Cancelling a running distributed campaign aborts the
coordinator between waits and cleans up every sweep directory it
enqueued — attempt markers, quarantine records and all — so a later
campaign on the same queue dir starts from a blank slate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.spec import ExecutionProfile, SweepSpec, campaign_labels

# Handle lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class CancelledError(RuntimeError):
    """Raised by ``result()`` when the handle was cancelled."""


class _Handle:
    """Shared machinery: one background thread, one terminal state."""

    def __init__(self, work: Callable[[], object]) -> None:
        self._work = work
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._state = QUEUED
        self._outcome: object = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._drive, daemon=True)
        self._thread.start()

    # -- the worker thread ---------------------------------------------
    def _drive(self) -> None:
        with self._lock:
            if self._state == CANCELLED:
                self._finished.set()
                return
            self._state = RUNNING
        try:
            outcome = self._work()
        except CancelledError as error:
            with self._lock:
                self._error = error
                self._state = CANCELLED
        except BaseException as error:  # surfaced via result()
            with self._lock:
                self._error = error
                self._state = FAILED
        else:
            with self._lock:
                self._outcome = outcome
                self._state = DONE
        self._finished.set()

    # -- the caller's surface ------------------------------------------
    def status(self) -> str:
        """``"queued"``, ``"running"``, ``"done"``, ``"failed"`` or
        ``"cancelled"``."""
        with self._lock:
            return self._state

    def done(self) -> bool:
        """True once the handle reached a terminal state."""
        return self.status() in (DONE, FAILED, CANCELLED)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal (or ``timeout`` seconds); True if done."""
        return self._finished.wait(timeout)

    def cancel(self) -> bool:
        """Stop work that has not started; True when anything was spared.

        A handle still ``queued`` never runs.  Anything already
        computing finishes (and ``result()`` still returns it) — see the
        module docstring for why cancellation is cooperative.
        """
        with self._lock:
            if self._state == QUEUED:
                self._state = CANCELLED
                return True
            return self._cancel_running_locked()

    def _cancel_running_locked(self) -> bool:
        return False

    def _resolve(self, timeout: Optional[float]) -> object:
        if not self._finished.wait(timeout):
            raise TimeoutError("sweep still running; use wait()/status()")
        with self._lock:
            if self._state == CANCELLED:
                raise self._error if self._error is not None else (
                    CancelledError("handle was cancelled before it ran")
                )
            if self._error is not None:
                raise self._error
            return self._outcome


class SweepHandle(_Handle):
    """One submitted sweep; resolves to a
    :class:`~repro.simulation.sweep.SweepResult`."""

    def __init__(
        self, spec: SweepSpec, profile: ExecutionProfile,
        work: Callable[[], object],
    ) -> None:
        self.spec = spec
        self.profile = profile
        super().__init__(work)

    def result(self, timeout: Optional[float] = None):
        """The :class:`SweepResult` (blocking); raises what the sweep
        raised, :class:`CancelledError` if cancelled before running, or
        :class:`TimeoutError` if ``timeout`` elapses first.

        Under ``on_error="collect"`` profiles the result's
        ``failed_seeds`` lists the structured failure records of seeds
        that exhausted their retry budget; the per-seed arrays cover
        only the seeds that succeeded.
        """
        return self._resolve(timeout)


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign produced: per-spec results, in order."""

    specs: Tuple[SweepSpec, ...]
    labels: Tuple[str, ...]
    sweeps: Tuple[object, ...]  # SweepResult per spec

    def __len__(self) -> int:
        return len(self.sweeps)

    def by_label(self) -> Dict[str, object]:
        """``{label: SweepResult}`` — labels are scenario names, made
        unique with ``#2``/``#3`` suffixes on repeats."""
        return dict(zip(self.labels, self.sweeps))

    def write_exports(self, out_dir) -> List[Path]:
        """Write one ``<label>.json`` sweep export per result.

        The files are the standard :func:`sweep_to_json` artifacts
        (loadable with :func:`repro.analysis.export.load_sweep`), so a
        campaign's collected exports diff cleanly against per-scenario
        ``repro sweep --json`` runs.
        """
        from repro.analysis.export import sweep_to_json

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for label, sweep in zip(self.labels, self.sweeps):
            path = out_dir / f"{label.replace('#', '-')}.json"
            path.write_text(sweep_to_json(sweep) + "\n")
            paths.append(path)
        return paths


class CampaignHandle(_Handle):
    """Many sweeps as one unit of work; resolves to a
    :class:`CampaignResult`.

    With a pool profile the specs run back to back on one process pool
    that forks once for the whole campaign: ``progress()`` advances one
    sweep at a time, and ``cancel()`` skips everything after the sweep
    in flight.  With the distributed backend every sweep is enqueued up
    front and one worker fleet drains them all concurrently — there
    ``cancel()`` aborts the coordinator at its next wait and removes
    every sweep directory the campaign enqueued, leaving the queue dir
    clean for the next run.
    """

    def __init__(
        self, specs: Sequence[SweepSpec], profile: ExecutionProfile,
        fleet: Callable[[], object] = lambda: None,
    ) -> None:
        self.specs = tuple(specs)
        self.labels = campaign_labels(self.specs)
        self.profile = profile
        self._fleet = fleet
        self._completed = 0
        self._skip_rest = False
        super().__init__(self._run_campaign)

    def _run_campaign(self) -> CampaignResult:
        from repro.simulation.distributed import SweepAborted
        from repro.simulation.sweep import execute_campaign

        # A pool campaign polls ``stop`` before each sweep; the queue
        # coordinator polls it between waits and, when it fires,
        # deletes every sweep dir the campaign enqueued.
        def stop() -> bool:
            with self._lock:
                return self._skip_rest

        def on_sweep(_result: object) -> None:
            with self._lock:
                self._completed += 1

        try:
            sweeps = execute_campaign(
                list(self.specs), self.profile, stop=stop,
                fleet=self._fleet() if self.profile.distributed else None,
                on_sweep=on_sweep,
            )
        except SweepAborted as error:
            if self.profile.distributed:
                raise CancelledError(
                    f"distributed campaign cancelled: {error}"
                ) from error
            raise CancelledError(str(error)) from error
        return CampaignResult(
            specs=self.specs,
            labels=self.labels,
            sweeps=tuple(sweeps),
        )

    def _cancel_running_locked(self) -> bool:
        if self._skip_rest:
            return False
        if self.profile.distributed:
            # The coordinator checks the stop flag between waits and
            # aborts, cleaning up its sweep dirs; the in-flight seeds
            # finish but the campaign never resolves.
            self._skip_rest = True
            return True
        if self._completed >= len(self.specs) - 1:
            # Pool sweeps run one at a time, so the last one is already
            # in flight; it will finish, so nothing is spared — honest
            # cancel() says no.
            return False
        self._skip_rest = True
        return True

    def progress(self) -> Tuple[int, int]:
        """``(completed sweeps, total sweeps)`` so far."""
        with self._lock:
            return self._completed, len(self.specs)

    def result(self, timeout: Optional[float] = None) -> CampaignResult:
        """The :class:`CampaignResult` (blocking); raises
        :class:`CancelledError` when the campaign was cut short."""
        return self._resolve(timeout)


class Client:
    """The public facade: one execution profile, many submissions.

    ::

        from repro.api import Client, ExecutionProfile, SweepSpec

        client = Client(ExecutionProfile(workers=4))
        handle = client.submit(
            SweepSpec("fig7-mutuality", seeds=range(1, 9))
        )
        sweep = handle.result()          # SweepResult, bit-identical
                                         # to the sequential oracle

    A per-call ``profile=`` overrides the client's default, so one
    client can mix quick local runs with distributed campaigns.

    ``keep_fleet=True`` keeps one local worker fleet for the client's
    distributed profile alive across submissions (``repro serve`` does
    this): it forks on the first queued job, its workers keep their
    arenas from job to job, and concurrent jobs share it.  A submission
    whose profile asks for another queue dir, cache dir, worker count
    or lease TTL runs on a fleet of its own.  :meth:`close` stops the
    fleet.
    """

    def __init__(
        self, profile: Optional[ExecutionProfile] = None,
        keep_fleet: bool = False,
    ) -> None:
        self.profile = profile if profile is not None else ExecutionProfile()
        self._keep_fleet = keep_fleet and self.profile.distributed
        self._fleet = None
        self._fleet_lock = threading.Lock()

    def _shared_fleet(self):
        """The kept fleet, opened on first use (``None`` when the client
        keeps none, or was closed)."""
        with self._fleet_lock:
            if self._keep_fleet and self._fleet is None:
                from repro.simulation.sweep import open_fleet

                self._fleet = open_fleet(self.profile)
            return self._fleet

    def close(self) -> None:
        """Stop the kept fleet, if any.  A distributed job still running
        on it aborts; later submissions run on fleets of their own."""
        with self._fleet_lock:
            fleet, self._fleet = self._fleet, None
            self._keep_fleet = False
        if fleet is not None:
            fleet.close()

    def _effective(
        self, profile: Optional[ExecutionProfile]
    ) -> ExecutionProfile:
        if profile is None:
            return self.profile
        if not isinstance(profile, ExecutionProfile):
            raise TypeError(
                f"expected an ExecutionProfile, got {type(profile).__name__}"
            )
        return profile

    # -- single sweeps -------------------------------------------------
    def submit(
        self, spec: SweepSpec,
        profile: Optional[ExecutionProfile] = None,
    ) -> SweepHandle:
        """Start one sweep in the background; returns immediately."""
        if not isinstance(spec, SweepSpec):
            raise TypeError(
                f"expected a SweepSpec, got {type(spec).__name__}"
            )
        from repro.simulation.sweep import execute_campaign

        effective = self._effective(profile)

        def work():
            fleet = self._shared_fleet() if effective.distributed else None
            return execute_campaign([spec], effective, fleet=fleet)[0]

        return SweepHandle(spec, effective, work)

    def run(
        self, spec: SweepSpec,
        profile: Optional[ExecutionProfile] = None,
    ):
        """Blocking convenience: ``submit(spec).result()``."""
        return self.submit(spec, profile).result()

    # -- campaigns -----------------------------------------------------
    def submit_campaign(
        self, specs: Sequence[SweepSpec],
        profile: Optional[ExecutionProfile] = None,
    ) -> CampaignHandle:
        """Start many sweeps as one campaign; returns immediately."""
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one sweep spec")
        for spec in specs:
            if not isinstance(spec, SweepSpec):
                raise TypeError(
                    f"expected SweepSpec entries, got "
                    f"{type(spec).__name__}"
                )
        return CampaignHandle(
            specs, self._effective(profile), self._shared_fleet,
        )

    def run_campaign(
        self, specs: Sequence[SweepSpec],
        profile: Optional[ExecutionProfile] = None,
    ) -> CampaignResult:
        """Blocking convenience: ``submit_campaign(specs).result()``."""
        return self.submit_campaign(specs, profile).result()

    # -- observability -------------------------------------------------
    def queue_status(self, queue_dir=None):
        """Live state of the work queue this client executes against.

        ``queue_dir`` defaults to the profile's; raises ``ValueError``
        when neither names one (pool profiles have no queue).  Returns
        :class:`repro.simulation.distributed.SweepStatus` per sweep.
        """
        from repro.simulation.distributed import queue_status

        target = queue_dir if queue_dir is not None else self.profile.queue_dir
        if target is None:
            raise ValueError(
                "no queue_dir: pass one or use a distributed profile "
                "with an explicit queue_dir"
            )
        return queue_status(target)
