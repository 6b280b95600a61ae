"""Durable job state for the HTTP service: the ``--state-dir`` store.

:class:`JobStateStore` gives :class:`~repro.service.jobs.JobTable` a disk
face, so a server restart keeps every job the queue dir and the result
cache already outlive.  Every file protocol here is :mod:`repro.fsproto`'s
(see there for the lease rules and the filesystem assumptions):

* **journal** — one JSON file per job under ``jobs/``, republished
  atomically on every lifecycle transition, so the newest file always
  describes the job's latest state and a crash can never leave a
  half-written record;
* **results** — a ``done`` job's export payload under ``results/``,
  written *before* the ``done`` transition is journaled, so any reader
  that observes ``done`` is guaranteed to find the result;
* **leases** — dispatch claims under ``leases/``, the same leases the
  work queue's tasks use.  Two servers sharing one state dir race the
  exclusive create; precisely one wins and dispatches, the loser
  watches the winner's journal.  A resolved steal leaves no tombstone,
  and leases are litter once the job's journal is terminal: the owning
  table releases them after execution, and recovery sweeps whatever a
  crash left behind, so a long-lived state dir does not accrete one
  file per job;
* **id reservations** — a new job's number is reserved with an
  exclusive create of its (initially empty) journal file, so two live
  servers sharing the dir can never mint the same ``job-%06d`` id and
  silently overwrite each other's journals.

The owner id is :func:`repro.fsproto.owner_id`'s ``host:pid:token``; the
table's heartbeat thread keeps its leases' mtimes fresh.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import fsproto

# Job leases heartbeat from a dedicated table thread (not per-seed like
# the work queue), so the default TTL can stay short without risking a
# live-but-busy server losing its claim.
DEFAULT_JOB_LEASE_TTL = 30.0


class JobStateStore:
    """One ``--state-dir``: job journal, result payloads, dispatch leases.

    Safe to share between servers on one volume; every mutation is an
    atomic publish or an exclusive create.  The store never interprets
    job payloads beyond their ``id`` — the
    :class:`~repro.service.jobs.JobTable` owns the semantics.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        owner: Optional[str] = None,
        lease_ttl: float = DEFAULT_JOB_LEASE_TTL,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.state_dir = Path(state_dir)
        self.owner = owner if owner else fsproto.owner_id()
        self.lease_ttl = float(lease_ttl)
        for sub in ("jobs", "results", "leases"):
            (self.state_dir / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self.state_dir / "jobs" / f"{job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.state_dir / "results" / f"{job_id}.json"

    def _lease_path(self, job_id: str) -> Path:
        return self.state_dir / "leases" / f"{job_id}.lease"

    # -- the job journal ------------------------------------------------
    def save_job(self, payload: Dict[str, object]) -> None:
        """Publish a job's latest state atomically (last writer wins)."""
        fsproto.publish_json(self._job_path(str(payload["id"])), payload)

    def load_job(self, job_id: str) -> Optional[Dict[str, object]]:
        """The journaled payload, or ``None`` when absent/corrupt."""
        return fsproto.read_json(self._job_path(job_id))

    def reserve_job_id(self, number: int) -> Optional[str]:
        """Reserve ``job-%06d`` for this server; ``None`` when taken.

        The reservation is an ``O_EXCL`` create of the job's journal
        file (an empty placeholder the first real journal write
        atomically replaces).  Each live server seeds its counter from
        :meth:`max_job_number` only once, so without disk arbitration
        two servers sharing one state dir would mint identical ids and
        last-writer-wins journal each other's jobs away.
        """
        job_id = f"job-{number:06d}"
        if fsproto.create_exclusive(self._job_path(job_id)):
            return job_id
        return None

    def job_ids(self) -> List[str]:
        """Every journaled job id, sorted (ids are zero-padded)."""
        return sorted(
            path.stem for path in (self.state_dir / "jobs").glob("*.json")
        )

    def recover_jobs(self) -> List[Dict[str, object]]:
        """Every readable job payload, oldest id first.

        Unreadable files are skipped, not fatal: one corrupt journal
        entry must never keep a server from starting.
        """
        payloads = []
        for job_id in self.job_ids():
            payload = self.load_job(job_id)
            if payload is not None and payload.get("id") == job_id:
                payloads.append(payload)
        return payloads

    def max_job_number(self) -> int:
        """The highest ``job-%06d`` counter on disk (0 when empty).

        Id allocation resumes past this after a restart, so recovered
        and fresh jobs can never collide.
        """
        highest = 0
        for job_id in self.job_ids():
            prefix, _, number = job_id.rpartition("-")
            if prefix == "job" and number.isdigit():
                highest = max(highest, int(number))
        return highest

    # -- result payloads ------------------------------------------------
    def save_result(self, job_id: str, payload: Dict[str, object]) -> None:
        fsproto.publish_json(self._result_path(job_id), payload)

    def load_result(self, job_id: str) -> Optional[Dict[str, object]]:
        return fsproto.read_json(self._result_path(job_id))

    # -- dispatch leases ------------------------------------------------
    def claim(self, job_id: str) -> bool:
        """Claim the right to dispatch ``job_id``; one winner per claim.

        A lease held by a dead owner is stolen; the steal's verdict on
        the existing lease comes from :meth:`lease_live`.
        """
        return fsproto.claim_lease(
            self._lease_path(job_id), self.owner, self.lease_ttl,
            live=lambda: self.lease_live(job_id),
        ) is not None

    def lease_owner(self, job_id: str) -> Optional[str]:
        return fsproto.lease_owner(self._lease_path(job_id))

    def lease_live(self, job_id: str) -> bool:
        """Whether ``job_id``'s dispatch claim belongs to a live server.

        A missing lease is not live.
        """
        return fsproto.lease_live(self._lease_path(job_id), self.lease_ttl)

    def release(self, job_id: str) -> None:
        """Drop this store's own dispatch lease (the job went terminal).

        Owner-checked: a lease stolen mid-run belongs to the thief now
        and stays put.
        """
        fsproto.release_lease(self._lease_path(job_id), self.owner)

    def discard_lease(self, job_id: str) -> None:
        """Unlink ``job_id``'s lease whoever owns it.

        Only safe once the job's journal is terminal — a terminal
        journal supersedes any dispatch claim, so the file is litter.
        """
        fsproto.unlink_quietly(self._lease_path(job_id))

    def sweep_stale_leases(self, terminal_ids) -> None:
        """Recovery housekeeping: drop leases of terminal jobs and any
        steal tombstone old enough that no in-flight steal can still be
        examining it, so a long-lived shared state dir does not grow
        one or more lease files per job forever."""
        terminal = set(terminal_ids)
        threshold = fsproto.lease_steal_threshold(self.lease_ttl)
        leases = self.state_dir / "leases"
        for path in leases.glob("*.lease"):
            if path.name[: -len(".lease")] in terminal:
                fsproto.unlink_quietly(path)
        for path in leases.glob("*.stale-*"):
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                continue
            if age > threshold:
                fsproto.unlink_quietly(path)

    def touch_owned_leases(self) -> None:
        """Heartbeat: refresh the mtime of every lease this store owns."""
        for path in (self.state_dir / "leases").glob("*.lease"):
            fsproto.heartbeat_lease(path, self.owner)
