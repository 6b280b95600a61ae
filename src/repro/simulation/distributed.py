"""Distributed sweep execution over a shared-directory work queue.

One sweep becomes a directory of **task files** (one seed chunk each)
that any number of worker processes — on this machine or on any machine
mounting the same volume — drain concurrently.  There is no broker and
no network protocol: the file protocols of :mod:`repro.fsproto` (atomic
JSON publishes, exclusive creates and leases — see there for the rules
and the filesystem assumptions) are enough to hand out work safely.

Queue layout (one subdirectory per sweep under the queue dir)::

    queue-dir/
      sweep-<params-hash>-<nonce>/
        manifest.json            # scenario, params, seeds, chunks, code version
        tasks/task-0000.json     # one seed chunk: {"scenario", "params", "seeds"}
        leases/task-0000.lease   # claim file: owner id inside, heartbeat = mtime
        leases/task-0000.stale-* # steal tombstone (one per reclaim event)
        leases/task-0000.requeue-* # repair marker (one per corrupt-task rewrite)
        done/task-0000.json      # result marker: per-seed payloads + counters
        attempts/task-0000.seed-7.attempt-02  # one marker per started attempt
        quarantine/task-0000.seed-7.json      # diagnostic for a poisoned seed
        faults/                  # exactly-once flags for injected faults

Each task is claimed with a :func:`repro.fsproto.claim_lease` lease:
exactly one claimer wins, and a lease whose owner is dead — a dead pid
on this host, or a heartbeat older than ``lease_ttl`` — is stolen by
any live worker.  While executing, the owner touches the lease's mtime
before every seed (the heartbeat), so ``lease_ttl`` must exceed the
longest single-seed runtime.  Every steal leaves its tombstone behind:
the tombstones are the sweep's steal history
(:meth:`WorkQueue.steal_events`).

Results flow through the PR-2 cache *and* the done marker: each seed's
reduced result is ``put`` into the shared :class:`SweepCache` (so other
sweeps replay it) and inlined into the task's done marker (so
collection never depends on the cache being writable).  A worker that
dies after caching some seeds loses nothing: the stealer's cache
lookups turn those seeds into hits and only the rest recompute — every
execution is idempotent and byte-identical, so double completion of a
task is benign by design.

Crash recovery, concretely:

* **worker SIGKILLed mid-chunk** — its lease stops heartbeating,
  expires after ``lease_ttl``, and any live worker steals the task
  (counted as a *steal*, visible in :class:`SweepResult`);
* **corrupt task file** — the manifest is the source of truth; any
  worker (or the coordinator) rewrites the task file from it
  atomically (counted as a *requeue* via a content-keyed marker, so
  concurrent repairers do not double-count);
* **local worker dead** — its :class:`LocalFleet` replaces it at the
  coordinator's next tick, and the replacement steals its orphaned
  lease; when nothing drains the queue for a full stall window (an
  external fleet that died, say) the coordinator
  (:func:`execute_queued`) drains the remaining tasks inline, so a
  distributed sweep always terminates with the oracle's results;
* **poison seed** — a seed whose scenario *raises* is caught at the
  per-seed error boundary instead of crashing the worker.  Every
  started attempt leaves an ``O_EXCL`` marker under ``attempts/`` (so
  the budget survives worker crashes and steals), failed attempts back
  off exponentially, and once ``max_attempts`` markers exist the seed
  is **quarantined**: a diagnostic JSON (exception type, message,
  traceback digest, attempt count) lands under ``quarantine/``, the
  chunk's done marker records the seed under ``"failed"``, and the
  sweep drains normally — healthy seeds in the same chunk keep their
  results, and the poisoned seed surfaces in
  ``SweepResult.failed_seeds`` instead of killing the fleet.
  ``requeue_quarantined`` releases a quarantined seed for another
  round of attempts after a fix.

Local workers belong to a :class:`LocalFleet`.  ``repro sweep
--distributed`` and campaigns build one per :func:`execute_queued`
call; ``repro serve`` keeps one for its lifetime, so its workers serve
job after job with their arenas warm.  The fleet's wake channel is
pipes, so a worker SIGKILLed at any instant never wedges a coordinator.

Fault injection (the test harness's hook): ``REPRO_WORKER_FAULT``
holds comma-separated specs — ``sigkill:<seed>`` (one daemon SIGKILLs
itself, exactly once per sweep), ``hang:<seed>`` (one daemon sleeps
past the lease TTL, exactly once — exercises steal-then-succeed),
``raise:<seed>`` (the seed raises deterministically in every executor
— the always-poison seed) and ``flaky:<seed>:<k>`` (the seed's first
``k`` attempts raise, then it succeeds — exercises bounded retry).
The process-killing kinds fire in daemon workers only; the
coordinator's inline drain never kills or wedges the caller's
process.  See :mod:`repro.simulation.faults`.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import select
import shutil
import signal
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro import fsproto
from repro.fsproto import lease_steal_threshold
from repro.simulation import faults, registry
from repro.simulation.cache import (
    SweepCache,
    code_version,
    reduced_from_payload,
    reduced_to_payload,
)
from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS
from repro.simulation.parallel import _chunked
from repro.simulation.results import RateSummary, SeriesResult

if TYPE_CHECKING:
    from repro.sched.planner import CampaignPlan

Reduced = Union[RateSummary, SeriesResult]
Params = Tuple[Tuple[str, object], ...]

DEFAULT_LEASE_TTL = 30.0
DEFAULT_POLL = 0.05
_ENV_FAULT = faults.ENV_FAULT
# Fleet workers are forked, whatever the platform default: they inherit
# the coordinator's warm arenas and their wake pipes by descriptor.
_FORK = multiprocessing.get_context("fork")


class SweepAborted(RuntimeError):
    """A coordinator's ``stop()`` fired mid-run: the queued sweeps were
    abandoned and their sweep directories (tasks, leases, attempt
    markers, quarantine diagnostics) removed, so the queue dir is clean
    for whatever runs next."""

# Sweeps already warned about (by id) for a code-version mismatch.
_WARNED_VERSION_SKEW: set = set()


# ---------------------------------------------------------------------------
# parameter signatures: one canonical shape on both sides of the JSON gap
# ---------------------------------------------------------------------------

def params_signature(params) -> Params:
    """The canonical, order-independent form of a parameter set.

    Accepts a mapping or an iterable of ``(name, value)`` pairs in any
    insertion order (a task file's JSON list of lists included) and
    returns the sorted tuple-of-pairs every key in
    the system (task files, lease math, :meth:`SweepCache.key`) is
    computed from.  Container values normalize exactly like
    :meth:`ScenarioSpec.params` does, so a parameter set that took the
    JSON round trip through a task file signs identically to the one
    the coordinator hashed.
    """
    pairs = params.items() if hasattr(params, "items") else params
    return tuple(sorted(
        (str(name), registry.hashable_value(value)) for name, value in pairs
    ))


def queue_path_error(path) -> Optional[str]:
    """Why ``path`` cannot serve as a queue dir (``None`` when it can).

    The one validation (and message shape) every queue-facing surface
    shares — ``repro queue``, ``repro worker`` and the service's
    ``GET /v1/queue`` — so a mistyped volume is a loud, consistent
    error everywhere instead of an empty-queue report.
    """
    target = Path(path)
    if not target.exists():
        return f"queue path {path} does not exist"
    if not target.is_dir():
        return f"queue path {path} is not a directory"
    return None


# ---------------------------------------------------------------------------
# claims and counters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One successful lease on one task."""

    task_id: str
    lease_path: Path
    owner: str
    stolen: bool


@dataclass(frozen=True)
class QueueCounters:
    """Lifetime accounting of one sweep's queue, read from its files."""

    tasks: int
    done: int
    steals: int
    repairs: int
    quarantined: int = 0

    @property
    def requeues(self) -> int:
        """Every event that put a task back in play: steals + repairs."""
        return self.steals + self.repairs


@dataclass
class WorkerStats:
    """What one worker (or one drain pass) processed."""

    tasks_done: int = 0
    seeds_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_errors: int = 0
    steals: int = 0
    repairs: int = 0
    seed_failures: int = 0
    quarantined: int = 0


# ---------------------------------------------------------------------------
# the work queue (one sweep)
# ---------------------------------------------------------------------------

class WorkQueue:
    """One sweep's task files, leases and done markers on a shared volume.

    The coordinator creates it (:meth:`create`); workers discover it
    (:meth:`discover`) and drive :meth:`claim` / :meth:`heartbeat` /
    :meth:`mark_done` / :meth:`release`; anyone may :meth:`repair`.
    All state is files, so every operation is safe across processes and
    machines sharing the directory.
    """

    def __init__(self, sweep_dir: Path, manifest: dict) -> None:
        self.sweep_dir = Path(sweep_dir)
        self.manifest = manifest

    # -- construction --------------------------------------------------
    @classmethod
    def create(
        cls,
        queue_dir: Union[str, Path],
        scenario: str,
        params: Params,
        seeds: Sequence[int],
        chunk_size: int,
        spec_payload: Optional[dict] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        chunks: Optional[Sequence[Sequence[int]]] = None,
        rank: Optional[int] = None,
        est_seconds_per_seed: Optional[float] = None,
    ) -> "WorkQueue":
        """Shard ``seeds`` into task files under a fresh sweep directory.

        Chunks are contiguous and order-preserving (the same batches
        :class:`ParallelRunner` would form), so any chunk size merges
        back into the identical seed-ordered result list.  The manifest
        is written last: a sweep directory is invisible to workers
        until its tasks are all in place.  ``spec_payload`` (the
        :class:`repro.api.SweepSpec` JSON form, when the sweep came
        through the job API) is embedded in the manifest purely for
        observability — ``repro queue status`` names what is queued.
        ``max_attempts`` pins the per-seed retry budget in the manifest
        so every worker serving the sweep applies the same budget.

        The planner's levers: ``chunks`` replaces the default uniform
        ``chunk_size`` sharding with an explicit layout (it must
        concatenate back to ``seeds``; the coordinator passes
        :func:`repro.sched.plan_campaign`'s shrinking chunks, so
        ``chunk_size`` then only records the plan's base chunk);
        ``rank`` prefixes the sweep directory name so workers — which
        scan in sorted order — serve rank 0 first (the plan ranks the
        costliest sweep 0); ``est_seconds_per_seed`` records the
        planner's cost estimate in the manifest for ``repro queue
        status`` ETAs.  All three move work around without changing
        what any seed computes.  Without them (external callers,
        tests) a sweep is cut into uniform ``chunk_size`` chunks and
        carries no rank or estimate.
        """
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise ValueError("need at least one seed")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        params = params_signature(params)
        digest = sha256(
            repr((scenario, params, tuple(seeds), code_version())).encode()
        ).hexdigest()[:12]
        if chunks is None:
            chunks = _chunked(seeds, chunk_size)
        chunk_lists = [[int(seed) for seed in chunk] for chunk in chunks]
        if any(not chunk for chunk in chunk_lists):
            raise ValueError("chunks must all be non-empty")
        if [seed for chunk in chunk_lists for seed in chunk] != seeds:
            raise ValueError(
                "chunks must concatenate back to the seed list — "
                "scheduling may reshape chunks, never the work"
            )
        prefix = "sweep" if rank is None else f"sweep-r{int(rank):04d}"
        sweep_id = f"{prefix}-{digest}-{os.urandom(4).hex()}"
        sweep_dir = Path(queue_dir) / sweep_id
        for sub in ("tasks", "leases", "done", "attempts", "quarantine",
                    "faults"):
            (sweep_dir / sub).mkdir(parents=True, exist_ok=True)

        task_ids = [f"task-{index:04d}" for index in range(len(chunk_lists))]
        params_json = [[name, value] for name, value in params]
        for task_id, chunk in zip(task_ids, chunk_lists):
            fsproto.publish_json(
                sweep_dir / "tasks" / f"{task_id}.json", {
                    "task": task_id,
                    "scenario": scenario,
                    "params": params_json,
                    "seeds": chunk,
                },
            )
        manifest = {
            "sweep": sweep_id,
            "scenario": scenario,
            "params": params_json,
            "seeds": seeds,
            "chunks": dict(zip(task_ids, chunk_lists)),
            "chunk_size": chunk_size,
            "code_version": code_version(),
            "max_attempts": int(max_attempts),
        }
        if rank is not None:
            manifest["rank"] = int(rank)
        if est_seconds_per_seed is not None:
            manifest["est_seconds_per_seed"] = float(est_seconds_per_seed)
        if spec_payload is not None:
            manifest["spec"] = spec_payload
        fsproto.publish_json(sweep_dir / "manifest.json", manifest)
        return cls(sweep_dir, manifest)

    @classmethod
    def open(cls, sweep_dir: Union[str, Path]) -> "WorkQueue":
        """Attach to an existing sweep directory (raises if unreadable).

        A manifest that is unreadable, mid-write, or structurally not a
        sweep manifest (missing its id or chunk table) is rejected the
        same way as a missing one, so scanners skip the directory
        instead of crashing on it later.
        """
        sweep_dir = Path(sweep_dir)
        manifest = fsproto.read_json(sweep_dir / "manifest.json")
        if (
            manifest is None
            or not isinstance(manifest.get("sweep"), str)
            or not isinstance(manifest.get("chunks"), dict)
        ):
            raise FileNotFoundError(
                f"no readable manifest under {sweep_dir}"
            )
        return cls(sweep_dir, manifest)

    @classmethod
    def discover(cls, queue_dir: Union[str, Path]) -> List["WorkQueue"]:
        """Every openable sweep under ``queue_dir``, in sorted order."""
        queue_dir = Path(queue_dir)
        if not queue_dir.is_dir():
            return []
        queues = []
        for child in sorted(queue_dir.iterdir()):
            if child.name.startswith("."):
                continue  # a sweep mid-removal (see cleanup)
            try:
                queues.append(cls.open(child))
            except (FileNotFoundError, NotADirectoryError):
                continue
        return queues

    # -- introspection -------------------------------------------------
    @property
    def sweep_id(self) -> str:
        return self.manifest["sweep"]

    def task_ids(self) -> List[str]:
        return sorted(self.manifest["chunks"])

    def _task_path(self, task_id: str) -> Path:
        return self.sweep_dir / "tasks" / f"{task_id}.json"

    def _lease_path(self, task_id: str) -> Path:
        return self.sweep_dir / "leases" / f"{task_id}.lease"

    def _done_path(self, task_id: str) -> Path:
        return self.sweep_dir / "done" / f"{task_id}.json"

    def is_done(self, task_id: str) -> bool:
        return self._done_path(task_id).exists()

    def pending(self) -> List[str]:
        """Task ids without a done marker yet."""
        return [t for t in self.task_ids() if not self.is_done(t)]

    def done_count(self) -> int:
        """How many tasks have done markers (one directory listing)."""
        return len(list((self.sweep_dir / "done").glob("*.json")))

    def active_leases(self) -> int:
        """How many tasks are currently leased (one directory listing)."""
        return len(list((self.sweep_dir / "leases").glob("*.lease")))

    def is_complete(self) -> bool:
        return not self.pending()

    def read_task(self, task_id: str) -> Optional[dict]:
        """The task file's payload, or ``None`` when corrupt/missing."""
        payload = fsproto.read_json(self._task_path(task_id))
        if payload is None or not isinstance(payload.get("seeds"), list):
            return None
        return payload

    def steal_events(self) -> Tuple[str, ...]:
        """The task id behind every steal tombstone, sorted — the
        sweep's work-stealing history (one entry per reclaim event)."""
        return tuple(sorted(
            tombstone.name.split(".stale-")[0]
            for tombstone in (self.sweep_dir / "leases").glob("*.stale-*")
        ))

    def counters(self) -> QueueCounters:
        """Steal/requeue accounting recovered from the marker files.

        A done marker only counts when it parses: our own markers are
        published atomically, but a marker caught mid-write by a
        non-atomic writer reports its task as still pending rather
        than crashing (or lying to) the status scan.
        """
        leases = self.sweep_dir / "leases"
        repairs = len(list(leases.glob("*.requeue-*")))
        return QueueCounters(
            tasks=len(self.task_ids()),
            done=sum(
                1 for t in self.task_ids()
                if fsproto.read_json(self._done_path(t)) is not None
            ),
            steals=len(self.steal_events()),
            repairs=repairs,
            quarantined=len(
                list((self.sweep_dir / "quarantine").glob("*.json"))
            ),
        )

    # -- retry budget and quarantine -----------------------------------
    def max_attempts(self) -> int:
        """The sweep's per-seed retry budget, pinned in the manifest at
        :meth:`create` so every worker applies the same one."""
        value = self.manifest.get("max_attempts")
        if isinstance(value, int) and value >= 1:
            return value
        return DEFAULT_MAX_ATTEMPTS

    def _attempt_path(self, task_id: str, seed: int, attempt: int) -> Path:
        return (self.sweep_dir / "attempts"
                / f"{task_id}.seed-{seed}.attempt-{attempt:02d}")

    def _quarantine_path(self, task_id: str, seed: int) -> Path:
        return self.sweep_dir / "quarantine" / f"{task_id}.seed-{seed}.json"

    def attempt_count(self, task_id: str, seed: int) -> int:
        """Attempts *started* at this seed, across all workers ever.

        The markers are files next to the task file, so the budget
        survives SIGKILLed workers, steals, and coordinator restarts —
        an attempt that died mid-seed still spent budget.
        """
        return len(list((self.sweep_dir / "attempts").glob(
            f"{task_id}.seed-{seed}.attempt-*"
        )))

    def record_attempt(self, task_id: str, seed: int) -> int:
        """Claim the next attempt number for this seed (``O_EXCL``).

        Called *before* running the seed; racing workers (an owner and
        a stealer overlapping mid-steal) each get distinct numbers, so
        the budget only ever over-counts — a poison seed can never
        retry forever.
        """
        attempt = self.attempt_count(task_id, seed) + 1
        while not fsproto.create_exclusive(
            self._attempt_path(task_id, seed, attempt)
        ):
            attempt += 1
        return attempt

    def record_attempt_failure(
        self, task_id: str, seed: int, attempt: int, failure: dict,
    ) -> None:
        """Attach the caught exception's record to an attempt marker.

        Best-effort: the marker's existence is what spends budget; its
        content only improves the quarantine diagnostic.
        """
        try:
            fsproto.publish_json(
                self._attempt_path(task_id, seed, attempt), failure,
            )
        except OSError:
            pass

    def last_attempt_failure(
        self, task_id: str, seed: int,
    ) -> Optional[dict]:
        """The most recent recorded failure for this seed, if any.

        Empty markers (attempts that died without writing a record —
        the worker crashed mid-seed) are skipped.
        """
        markers = sorted((self.sweep_dir / "attempts").glob(
            f"{task_id}.seed-{seed}.attempt-*"
        ), reverse=True)
        for marker in markers:
            record = faults.normalize_failure(
                fsproto.read_json(marker), seed,
            )
            if record is not None:
                return record
        return None

    def quarantine_seed(
        self, task_id: str, seed: int, failure: dict,
    ) -> None:
        """Publish a poisoned seed's diagnostic under ``quarantine/``.

        Idempotent by content: concurrent quarantiners write the same
        record (the budget and failure travel with the seed, not the
        worker).
        """
        fsproto.publish_json(self._quarantine_path(task_id, seed), {
            "sweep": self.sweep_id,
            "task": task_id,
            "scenario": self.manifest.get("scenario"),
            "failure": failure,
        })

    def quarantined(self) -> Dict[int, dict]:
        """Every quarantined seed's record, keyed by seed.

        Robust to scan races and partial writes: an unreadable or
        malformed quarantine file is skipped (the seed stays visibly
        pending/failed through the done markers), never a crash.
        """
        records: Dict[int, dict] = {}
        for path in sorted((self.sweep_dir / "quarantine").glob("*.json")):
            payload = fsproto.read_json(path)
            if payload is None:
                continue
            failure = faults.normalize_failure(payload.get("failure"))
            if failure is None:
                continue
            records[int(failure["seed"])] = {
                "task": str(payload.get("task", "?")),
                "failure": failure,
            }
        return records

    def requeue_quarantined(self, seed: Optional[int] = None) -> List[int]:
        """Release quarantined seeds back into the queue, post-fix.

        Deletes each matching seed's quarantine record and attempt
        markers (a fresh retry budget) and the owning task's done
        marker, so the task is pending again.  Recomputation is
        idempotent: the task's healthy seeds replay from the shared
        cache or recompute bit-identically.  Returns the released
        seeds, sorted.
        """
        released: List[int] = []
        for task_seed, record in sorted(self.quarantined().items()):
            if seed is not None and task_seed != int(seed):
                continue
            task_id = record["task"]
            try:
                self._quarantine_path(task_id, task_seed).unlink()
            except OSError:
                continue  # another requeue beat us to this seed
            for marker in (self.sweep_dir / "attempts").glob(
                f"{task_id}.seed-{task_seed}.attempt-*"
            ):
                try:
                    marker.unlink()
                except OSError:
                    pass
            try:
                self._done_path(task_id).unlink()
            except OSError:
                pass
            released.append(task_seed)
        return released

    # -- leasing -------------------------------------------------------
    def claim(
        self, task_id: str, owner: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> Optional[Claim]:
        """Try to lease ``task_id``; ``None`` when someone else holds it.

        A lease whose owner is dead is stolen; the steal's tombstone
        stays under ``leases/`` as the sweep's steal history.
        """
        lease = self._lease_path(task_id)
        taken = fsproto.claim_lease(
            lease, owner, lease_ttl, keep_tombstone=True,
        )
        if taken is None:
            return None
        claim = Claim(task_id, lease, owner, taken == "stolen")
        if self.is_done(task_id):
            # Finished between our scan and the claim; nothing to do.
            self.release(claim)
            return None
        return claim

    def heartbeat(self, claim: Claim) -> bool:
        """Refresh the lease mtime; ``False`` if the lease was stolen.

        A ``False`` return means another worker reclaimed the task (we
        were presumed dead); the caller should abandon the chunk — the
        new owner recomputes it identically.
        """
        return fsproto.heartbeat_lease(claim.lease_path, claim.owner)

    def release(self, claim: Claim) -> None:
        """Drop the lease (after the done marker is published)."""
        fsproto.release_lease(claim.lease_path, claim.owner)

    # -- completion ----------------------------------------------------
    def mark_done(self, task_id: str, payload: dict) -> None:
        """Publish a task's results atomically (idempotent by content)."""
        fsproto.publish_json(self._done_path(task_id), payload)

    def repair(self) -> int:
        """Rewrite corrupt/missing task files from the manifest.

        Any live process may call this — the manifest is the source of
        truth for every chunk.  Each repair leaves a marker keyed by a
        hash of the corrupt content, so two workers repairing the same
        corruption concurrently count one requeue, not two.  A sweep
        directory removed under us (collected or cancelled), or one
        whose ``tasks/`` is already gone, has nothing left to repair,
        and nothing in it is recreated: a publish never creates a
        missing parent directory.
        """
        repaired = 0
        for task_id in self.task_ids():
            if self.is_done(task_id):
                continue
            if self.read_task(task_id) is not None:
                continue
            path = self._task_path(task_id)
            try:
                corrupt = path.read_bytes()
            except OSError:
                corrupt = b"<missing>"
            marker = self.sweep_dir / "leases" / (
                f"{task_id}.requeue-{sha256(corrupt).hexdigest()[:12]}"
            )
            try:
                fsproto.publish_json(path, {
                    "task": task_id,
                    "scenario": self.manifest["scenario"],
                    "params": self.manifest["params"],
                    "seeds": self.manifest["chunks"][task_id],
                })
                # Of any repairers racing on the same corrupt bytes,
                # exactly one counts the requeue.
                if fsproto.create_exclusive(marker):
                    repaired += 1
            except FileNotFoundError:
                return repaired  # the sweep is being removed
        return repaired

    def collect(
        self,
    ) -> Tuple[Dict[int, Reduced], Dict[int, dict], WorkerStats]:
        """Per-seed results, per-seed failures, and summed counters.

        Every chunk seed must be accounted for: either a valid result
        payload or a structured failure record in the done marker
        (corroborated by the ``quarantine/`` diagnostics when the done
        marker's record went missing).  Raises ``RuntimeError`` if any
        task is incomplete or a seed has neither — collection is
        strict; the wait loop is where patience lives.
        """
        pending = self.pending()
        if pending:
            raise RuntimeError(
                f"sweep {self.sweep_id} incomplete: {pending} still pending"
            )
        results: Dict[int, Reduced] = {}
        failures: Dict[int, dict] = {}
        quarantined = self.quarantined()
        totals = WorkerStats()
        for task_id in self.task_ids():
            payload = fsproto.read_json(self._done_path(task_id))
            if payload is None:
                raise RuntimeError(
                    f"done marker for {task_id} of {self.sweep_id} is "
                    f"unreadable"
                )
            totals.tasks_done += 1
            totals.cache_hits += int(payload.get("hits", 0))
            totals.cache_misses += int(payload.get("misses", 0))
            totals.cache_errors += int(payload.get("cache_errors", 0))
            chunk = self.manifest["chunks"][task_id]
            per_seed = payload.get("results", {})
            failed = payload.get("failed", {})
            if not isinstance(failed, dict):
                failed = {}
            for seed in chunk:
                seed = int(seed)
                failure = faults.normalize_failure(
                    failed.get(str(seed)), seed,
                )
                if failure is None and seed in quarantined:
                    failure = quarantined[seed]["failure"]
                if failure is not None:
                    failures[seed] = failure
                    totals.seed_failures += 1
                    continue
                try:
                    results[seed] = reduced_from_payload(
                        per_seed[str(seed)]
                    )
                except (KeyError, ValueError, TypeError) as error:
                    raise RuntimeError(
                        f"done marker for {task_id} of {self.sweep_id} "
                        f"lacks a valid result for seed {seed}: {error}"
                    ) from None
                totals.seeds_run += 1
        totals.quarantined = len(quarantined)
        return results, failures, totals

    def seed_runtimes(self) -> Dict[int, float]:
        """Per-seed compute wall times harvested from the done markers.

        Advisory telemetry (seconds per seed) recorded by whichever
        worker computed each seed; seeds whose markers predate runtime
        recording — or whose values do not parse as non-negative
        numbers — are simply absent.  Safe on incomplete sweeps: only
        published markers are read.
        """
        runtimes: Dict[int, float] = {}
        for task_id in self.task_ids():
            payload = fsproto.read_json(self._done_path(task_id))
            if payload is None:
                continue
            recorded = payload.get("runtimes")
            if not isinstance(recorded, dict):
                continue
            for seed, runtime in recorded.items():
                try:
                    seed = int(seed)
                    runtime = float(runtime)
                except (TypeError, ValueError):
                    continue
                if runtime >= 0:
                    runtimes[seed] = runtime
        return runtimes

    def cleanup(self) -> None:
        """Remove the sweep directory (after a successful collect).

        It leaves the queue in one step (:func:`repro.fsproto.remove_tree`),
        so a worker scanning meanwhile never finds the manifest with
        ``tasks/`` already gone.
        """
        fsproto.remove_tree(self.sweep_dir)


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------

def _claim_fault_flag(queue: WorkQueue, name: str) -> bool:
    """Win the exactly-once arbitration for one injected fault."""
    return fsproto.create_exclusive(queue.sweep_dir / "faults" / name)


def _maybe_process_fault(
    queue: WorkQueue, seed: int, lease_ttl: float,
) -> None:
    """Honour the process-level faults (daemon workers only).

    ``sigkill:<seed>`` kills this process with SIGKILL right before it
    would run that seed — no cleanup, no lease release: exactly the
    crash the stale-lease reclaim exists for.  ``hang:<seed>`` sleeps
    past the steal threshold instead, so a peer reclaims the chunk
    while this worker is wedged — the steal-then-succeed path.  The
    ``O_EXCL`` flag file makes each fault fire in one worker per
    sweep, never more.
    """
    for spec in faults.faults_for(seed):
        if spec.kind == "sigkill":
            if _claim_fault_flag(queue, f"sigkill-{seed}"):
                os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == "hang":
            if _claim_fault_flag(queue, f"hang-{seed}"):
                time.sleep(lease_steal_threshold(lease_ttl) + 0.5)


def _maybe_seed_fault(queue: WorkQueue, seed: int) -> None:
    """Honour the exception-level faults (every executor).

    ``raise:<seed>`` throws deterministically on every attempt — the
    always-poison seed the quarantine exists for.  ``flaky:<seed>:<k>``
    throws on the seed's first ``k`` attempts *sweep-wide* (``O_EXCL``
    flag files arbitrate, so the failures land exactly ``k`` times no
    matter which workers attempt) and then succeeds — the bounded-retry
    path.  These fire inside the per-seed error boundary, in daemons,
    pool workers and the coordinator's inline drain alike.
    """
    faults.maybe_raise(seed)
    for spec in faults.faults_for(seed, "flaky"):
        for n in range(1, spec.fails + 1):
            if _claim_fault_flag(queue, f"flaky-{seed}-{n}"):
                raise faults.InjectedFaultError(
                    f"injected fault: seed {seed} flaky failure "
                    f"{n} of {spec.fails}"
                )


def _backoff_wait(queue: WorkQueue, claim: Claim, delay: float) -> bool:
    """Back off between attempts without letting the lease expire.

    Sleeps in heartbeat-keeping slices; ``False`` means the lease was
    stolen mid-backoff and the caller must abandon the chunk.
    """
    deadline = time.monotonic() + delay
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return True
        time.sleep(min(remaining, 0.05))
        if not queue.heartbeat(claim):
            return False


def _process_task(
    queue: WorkQueue,
    task: dict,
    claim: Claim,
    cache: Optional[SweepCache],
    stats: WorkerStats,
    daemon: bool,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> None:
    """Execute one claimed chunk: cache-or-compute each seed, publish.

    Per-seed results go through the registry's arena path (build once
    per process, run per seed) and into the shared cache *and* the done
    marker.  The heartbeat precedes every seed; a lost lease abandons
    the chunk to its new owner.

    Every seed runs inside an **error boundary**: a raising seed never
    crashes the worker.  Each started attempt first spends one unit of
    the sweep-wide retry budget (an ``O_EXCL`` marker under
    ``attempts/``, so crashed attempts count too), failed attempts back
    off exponentially while keeping the lease warm, and a seed whose
    budget is exhausted is quarantined — its structured failure record
    lands in the done marker's ``"failed"`` map and under
    ``quarantine/``, and the chunk's healthy seeds complete normally.
    """
    task_id = task["task"]
    scenario = task["scenario"]
    params = params_signature(task["params"])
    budget = queue.max_attempts()
    results: Dict[str, dict] = {}
    failed: Dict[str, dict] = {}
    runtimes: Dict[str, float] = {}
    hits = misses = errors = 0
    warned_unwritable = False
    for seed in task["seeds"]:
        seed = int(seed)
        if not queue.heartbeat(claim):
            return  # stolen from us; the thief recomputes identically
        if daemon:
            _maybe_process_fault(queue, seed, lease_ttl)
        key = SweepCache.key(scenario, params, seed)
        entry = cache.get_entry(key) if cache is not None else None
        if entry is not None:
            result, cached_runtime = entry
            hits += 1
            results[str(seed)] = reduced_to_payload(result)
            if cached_runtime is not None:
                # A replay costs nothing *now*; report the runtime the
                # original compute recorded so cost estimates stay
                # grounded in real measurements.
                runtimes[str(seed)] = cached_runtime
            stats.seeds_run += 1
            continue
        while True:
            spent = queue.attempt_count(task_id, seed)
            if spent >= budget:
                # The budget was exhausted — by our own failed attempts
                # below, or by earlier workers (possibly ones that died
                # mid-attempt and never recorded an exception).
                failure = (
                    queue.last_attempt_failure(task_id, seed)
                    or faults.crash_failure_payload(seed, spent)
                )
                queue.quarantine_seed(task_id, seed, failure)
                failed[str(seed)] = failure
                stats.seed_failures += 1
                stats.quarantined += 1
                break
            attempt = queue.record_attempt(task_id, seed)
            seed_start = time.perf_counter()
            try:
                _maybe_seed_fault(queue, seed)
                result = registry.run_reduced(scenario, params, seed)
            except Exception as error:  # the error boundary
                failure = faults.failure_payload(seed, error, attempt)
                queue.record_attempt_failure(
                    task_id, seed, attempt, failure,
                )
                if attempt >= budget:
                    continue  # budget spent; quarantine on the next pass
                if not _backoff_wait(
                    queue, claim, faults.backoff_delay(attempt),
                ):
                    return  # lease stolen mid-backoff; new owner retries
                continue
            runtime = time.perf_counter() - seed_start
            runtimes[str(seed)] = runtime
            misses += 1
            if cache is not None:
                try:
                    cache.put(key, result, scenario=scenario, seed=seed,
                              runtime=runtime)
                except OSError as error:
                    errors += 1
                    if not warned_unwritable:
                        warned_unwritable = True
                        warnings.warn(
                            f"worker cache write to {cache.root} failed "
                            f"({error}); results still reach the done "
                            f"marker",
                            RuntimeWarning,
                            stacklevel=2,
                        )
            results[str(seed)] = reduced_to_payload(result)
            stats.seeds_run += 1
            break
    payload = {
        "task": task_id,
        "sweep": queue.sweep_id,
        "worker": claim.owner,
        "stolen": claim.stolen,
        "hits": hits,
        "misses": misses,
        "cache_errors": errors,
        "results": results,
        # Per-seed compute wall times (seconds) observed by this worker
        # (or replayed from cache metadata) — the planner's telemetry.
        "runtimes": runtimes,
    }
    if failed:
        payload["failed"] = failed
    queue.mark_done(task_id, payload)
    queue.release(claim)
    stats.tasks_done += 1
    stats.cache_hits += hits
    stats.cache_misses += misses
    stats.cache_errors += errors
    if claim.stolen:
        stats.steals += 1


def worker_loop(
    queue_dir: Union[str, Path],
    cache_dir: Optional[Union[str, Path]] = None,
    *,
    owner: Optional[str] = None,
    poll: float = DEFAULT_POLL,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    drain: bool = False,
    max_tasks: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    only_sweeps: Optional[Sequence[str]] = None,
    on_task_done: Optional[Callable[[], None]] = None,
    idle: Callable[[float], object] = time.sleep,
    _daemon: bool = False,
) -> WorkerStats:
    """One worker: claim, execute and complete tasks under ``queue_dir``.

    ``drain=True`` returns as soon as a full pass finds nothing
    claimable (the coordinator's inline mode and ``repro worker
    --drain``); otherwise the loop polls forever — the daemon mode —
    until ``stop()`` turns true or the process is terminated.  Workers
    also heal the queue: every pass repairs corrupt task files and
    steals dead workers' leases.  A sweep directory removed mid-pass
    (its coordinator collected or cancelled it) is simply gone.  Sweeps
    written by different code (manifest ``code_version`` mismatch) are
    skipped loudly, never executed — mixing code versions would break
    the bit-identity contract.

    Each sweep's per-seed retry budget is the one pinned in its
    manifest, so every worker of a fleet quarantines alike.
    ``only_sweeps`` restricts the worker to those sweep ids (the
    coordinator's inline drain); ``None`` or empty serves every sweep.
    ``on_task_done`` runs after each processed task, and ``idle(poll)``
    waits between empty daemon passes — how a fleet worker wakes its
    coordinators and is woken by new work (see :class:`LocalFleet`).
    """
    owner = owner or fsproto.owner_id()
    cache = SweepCache(Path(cache_dir)) if cache_dir is not None else None
    stats = WorkerStats()
    allowed = set(only_sweeps or ())
    while True:
        progressed = False
        for queue in WorkQueue.discover(queue_dir):
            if allowed and queue.sweep_id not in allowed:
                continue
            if queue.manifest.get("code_version") != code_version():
                if queue.sweep_id not in _WARNED_VERSION_SKEW:
                    _WARNED_VERSION_SKEW.add(queue.sweep_id)
                    warnings.warn(
                        f"skipping sweep {queue.sweep_id}: its manifest "
                        f"was written by code version "
                        f"{queue.manifest.get('code_version')!r}, this "
                        f"worker runs {code_version()!r}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                continue
            stats.repairs += queue.repair()
            for task_id in queue.task_ids():
                if stop is not None and stop():
                    return stats
                if queue.is_done(task_id):
                    continue
                task = queue.read_task(task_id)
                if task is None:
                    continue  # corrupt; repaired on the next pass
                try:
                    claim = queue.claim(task_id, owner, lease_ttl)
                    if claim is None:
                        continue
                    _process_task(
                        queue, task, claim, cache, stats, _daemon,
                        lease_ttl=lease_ttl,
                    )
                except FileNotFoundError:
                    if queue.sweep_dir.exists():
                        raise
                    break  # the sweep dir was removed under us: gone
                progressed = True
                if on_task_done is not None:
                    on_task_done()
                if max_tasks is not None and stats.tasks_done >= max_tasks:
                    return stats
        if stop is not None and stop():
            return stats
        if not progressed:
            if drain:
                return stats
            idle(poll)


# ---------------------------------------------------------------------------
# the local fleet
# ---------------------------------------------------------------------------

def _nudge(fd: int) -> None:
    """Write one wake byte to a pipe without blocking or raising: a full
    pipe already holds an unread wake, a closed one has nobody to wake."""
    try:
        os.write(fd, b"\0")
    except OSError:
        pass


def _fleet_worker(
    queue_root: str,
    cache_root: Optional[str],
    poll: float,
    lease_ttl: float,
    progress_fd: int,
    doorbell_fd: int,
) -> None:
    """The body of one local worker daemon, forked by its fleet.

    Between empty passes the worker waits on its own doorbell pipe
    instead of sleeping, so an enqueue wakes it at once; after every
    task it nudges the fleet's progress pipe.  It runs until its fleet
    terminates it, or leaves once its parent is gone, so a coordinator
    killed hard strands no orphan.  Ctrl-C is the coordinator's to
    handle: the fleet terminates its workers itself.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()

    def idle(seconds: float) -> None:
        if select.select([doorbell_fd], [], [], seconds)[0]:
            os.read(doorbell_fd, 4096)

    worker_loop(
        queue_root, cache_root, poll=poll, lease_ttl=lease_ttl,
        stop=lambda: os.getppid() != parent,
        on_task_done=functools.partial(_nudge, progress_fd),
        idle=idle, _daemon=True,
    )


class LocalFleet:
    """The local worker daemons draining one queue root.

    :func:`execute_queued` always runs on one.  A call given none builds
    its own and closes it on return (``repro sweep --distributed``,
    campaigns).  A long-lived caller keeps one open across calls — the
    HTTP server's :class:`repro.api.Client` does — so its workers serve
    job after job and keep their arenas, which the registry memoises per
    ``(scenario, params)`` in each process.  ``key`` is the profile the
    fleet was built for: a call asking for a different queue dir, cache
    dir, worker count or lease TTL gets a fleet of its own instead.
    ``queue_dir=None`` makes a private temp root that lives until
    :meth:`close`.

    The fleet keeps ``workers`` daemons alive: the first :meth:`tick`
    forks them (``workers=0`` never forks any), and every later tick
    reaps the dead and forks their replacements.  The doorbell map is
    the only record of the processes; ticks from concurrent
    coordinators are serialized under one lock.

    The wake channel is pipes, never ``multiprocessing`` locks: a worker
    may be SIGKILLed at any instant, and a semaphore it held would wedge
    every coordinator for good.

    * **progress** — every worker writes a byte to one shared pipe
      after each task.  One listener thread turns bytes into a
      generation bump and wakes *every* coordinator parked in
      :meth:`wait`; a waiter passes the generation it saw before its
      last check, so no wakeup is lost with many jobs in flight.
    * **doorbells** — each worker waits on a pipe of its own between
      empty passes; :meth:`ring` writes to all of them after an
      enqueue, so idle workers claim new tasks at once.  External
      ``repro worker`` daemons keep polling.
    """

    def __init__(
        self,
        queue_dir: Optional[Union[str, Path]] = None,
        cache_root: Optional[Union[str, Path]] = None,
        *,
        workers: int = 1,
        lease_ttl: Optional[float] = None,
        poll: float = DEFAULT_POLL,
    ) -> None:
        self.key = self.key_for(queue_dir, cache_root, workers, lease_ttl)
        self.private = queue_dir is None
        if self.private:
            self.queue_root = Path(tempfile.mkdtemp(prefix="repro-queue-"))
        else:
            self.queue_root = Path(queue_dir).expanduser()
            self.queue_root.mkdir(parents=True, exist_ok=True)
        self.cache_root = None if cache_root is None else str(cache_root)
        self.workers = self.key[2]
        self.lease_ttl = self.key[-1]
        self.poll = poll
        self.closed = False
        self._lock = threading.Lock()
        self._progress = threading.Condition()
        self._generation = 0
        self._doorbells: Dict[object, int] = {}  # process -> write fd
        self._listener: Optional[threading.Thread] = None
        if self.has_workers:
            read_fd, self._progress_fd = os.pipe()
            os.set_blocking(self._progress_fd, False)
            self._listener = threading.Thread(
                target=self._listen, args=(read_fd,), daemon=True,
                name="repro-fleet-progress",
            )
            self._listener.start()

    @staticmethod
    def key_for(queue_dir, cache_root, workers, lease_ttl):
        """The profile a fleet serves, in comparable form."""
        def where(path):
            return None if path is None else str(Path(path).expanduser())

        return (
            where(queue_dir), where(cache_root), int(workers),
            DEFAULT_LEASE_TTL if lease_ttl is None else float(lease_ttl),
        )

    @property
    def has_workers(self) -> bool:
        """Whether this fleet ever runs local workers (``workers > 0``)."""
        return self.workers > 0

    # -- processes (callers hold the lock) -----------------------------
    def _spawn(self) -> None:
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        process = _FORK.Process(
            target=_fleet_worker,
            args=(str(self.queue_root), self.cache_root, self.poll,
                  self.lease_ttl, self._progress_fd, read_fd),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            os.close(write_fd)
            raise
        finally:
            os.close(read_fd)
        self._doorbells[process] = write_fd

    def _reap(self) -> None:
        for process in [p for p in self._doorbells if not p.is_alive()]:
            process.join(timeout=0)
            os.close(self._doorbells.pop(process))

    def tick(self) -> None:
        """Reap dead workers and top the fleet up to ``workers``."""
        with self._lock:
            if self.closed:
                return
            self._reap()
            for _ in range(self.workers - len(self._doorbells)):
                self._spawn()

    def alive(self) -> int:
        """How many local workers are running (reaping the dead)."""
        with self._lock:
            self._reap()
            return len(self._doorbells)

    def pids(self) -> List[int]:
        """The running local workers' pids, sorted."""
        with self._lock:
            return sorted(
                process.pid for process in self._doorbells
                if process.is_alive()
            )

    # -- the wake channel ----------------------------------------------
    def ring(self) -> None:
        """Wake every idle worker: new tasks are in the queue."""
        with self._lock:
            self._reap()
            for fd in self._doorbells.values():
                _nudge(fd)

    @property
    def generation(self) -> int:
        """How many progress wakes the fleet has seen so far."""
        with self._progress:
            return self._generation

    def wait(self, seen: int, timeout: float) -> int:
        """Block until the generation moves past ``seen`` or ``timeout``
        elapses; returns the current generation."""
        with self._progress:
            self._progress.wait_for(
                lambda: self._generation != seen, timeout,
            )
            return self._generation

    def _bump(self) -> None:
        with self._progress:
            self._generation += 1
            self._progress.notify_all()

    def _listen(self, read_fd: int) -> None:
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while pipe.read(4096) and not self.closed:
                self._bump()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Terminate the workers, stop the listener, wake every waiter
        (a coordinator on a closed fleet aborts) and remove a private
        queue root.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            # Terminate every worker first, then join them all.
            for process in self._doorbells:
                if process.is_alive():
                    process.terminate()
            for process, fd in self._doorbells.items():
                process.join(timeout=5.0)
                os.close(fd)
            self._doorbells.clear()
            if self.has_workers:
                _nudge(self._progress_fd)  # the listener sees `closed`
                os.close(self._progress_fd)
        if self._listener is not None:
            self._listener.join(timeout=5.0)
        self._bump()
        if self.private:
            shutil.rmtree(self.queue_root, ignore_errors=True)

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueuedJob:
    """One sweep's worth of queue work: what to shard into task files.

    ``spec_payload`` (the :class:`repro.api.SweepSpec` JSON form, when
    the job came through the job API) rides into the sweep manifest so
    ``repro queue status`` can name what is queued.  ``runtimes`` maps
    seeds of the same sweep that already ran (its cache hits) to their
    measured wall times — what the planner prices the queued seeds
    from.
    """

    scenario: str
    params: Params
    seeds: Tuple[int, ...]
    spec_payload: Optional[dict] = None
    runtimes: Dict[int, float] = field(default_factory=dict)


@dataclass
class DistributedOutcome:
    """What one queued sweep produced, for the sweep engine.

    ``failed_seeds`` maps each quarantined seed to its structured
    failure record (exception type, message, traceback digest, attempt
    count); an empty dict is the healthy case.
    """

    results: Dict[int, Reduced]
    chunk_size: int
    tasks: int
    steals: int
    requeues: int
    cache_errors: int
    wall_seconds: float = 0.0
    failed_seeds: Dict[int, dict] = field(default_factory=dict)
    # Per-seed compute wall times from the done markers (telemetry for
    # the cost estimator; may cover only a subset of the seeds).
    seed_runtimes: Dict[int, float] = field(default_factory=dict)


def execute_queued(
    jobs: Sequence[QueuedJob],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    cache_root: Optional[Union[str, Path]] = None,
    queue_dir: Optional[Union[str, Path]] = None,
    lease_ttl: Optional[float] = None,
    poll: float = DEFAULT_POLL,
    timeout: float = 600.0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    stop: Optional[Callable[[], bool]] = None,
    fleet: Optional[LocalFleet] = None,
) -> List[DistributedOutcome]:
    """Run one or more sweeps through the shared-directory queue.

    The one per-job entry point: every job is sharded into task files
    under ``queue_dir`` (a private temp dir when ``None``), one fleet of
    local worker daemons drains all of them concurrently — a campaign's
    sweeps multiplex over the same workers instead of idling between
    scenarios — and the coordinator waits on its own jobs' done markers,
    then collects.

    The fleet is a :class:`LocalFleet` of ``workers`` daemons: a crashed
    worker is replaced at the next tick.  With ``workers=0`` there is no
    fleet.  ``fleet`` is one that outlives this call: when its ``key``
    matches this call's queue dir, cache dir, worker count and lease
    TTL, the jobs run on its resident workers, which keep their arenas
    from earlier jobs and are woken by the enqueue.
    Otherwise (or with no ``fleet``) the call builds a fleet of its own
    and closes it on return; before that fleet forks, the coordinator
    builds every job's arena, so the workers inherit them warm.

    The coordinator waits for every task's done marker — each local
    worker wakes it after every task, external ones are polled —
    stepping in itself whenever nobody else is working: it drains inline
    when no local worker is alive and no lease is active (so an attached
    external fleet keeps the tasks, but a lone coordinator never waits
    on anyone), or when no done marker lands for a full stall window.
    External ``repro worker`` daemons pointed at the same ``queue_dir``
    join transparently — the lease protocol does not care who claims.

    Completion is unconditional: every sweep's results are exactly the
    sequential oracle's whether computed by local daemons, remote
    daemons, stealers, or the coordinator itself.  ``timeout`` bounds
    how long the queue may go *without progress* (no new done marker
    and nothing drainable inline) before giving up — steady progress
    never trips it, however long the campaign.  Outcomes are returned
    in job order; each carries the wall clock from enqueue to its own
    collection.

    Failure tolerance: a seed that keeps raising is quarantined after
    ``max_attempts`` tries (pinned in each sweep's manifest) and comes
    back in ``DistributedOutcome.failed_seeds`` instead of wedging the
    fleet.  A sweep that quarantined seeds keeps its directory under an
    explicit ``queue_dir`` — the diagnostics stay inspectable via
    ``repro queue status`` and releasable via ``repro queue requeue``
    — while fully-healthy sweeps (and private temp queues) clean up as
    before.

    ``stop`` is polled between claims and wait-loop passes; when it
    turns true the coordinator abandons the run, then removes every
    sweep directory it created (leases, attempt markers, quarantine
    included — the queue dir stays clean for the next campaign), and
    raises :class:`SweepAborted`; a fleet of its own is terminated
    first.  A shared fleet closed under a running call aborts it the
    same way.

    Planning (:mod:`repro.sched`): the queue layout is
    :func:`repro.sched.plan_campaign`'s.  Each sweep's cost is
    estimated from its job's ``runtimes`` (else the family priors);
    the long poles are served first and chunk sizes shrink toward each
    sweep's tail, from a base sized for a fleet of ``max(workers, 1)``
    (or ``chunk_size``).  Layout and fleet size are both
    result-neutral — the results are bit-identical to the sequential
    oracle's.
    """
    if not jobs:
        raise ValueError("need at least one queued job")
    if workers < 0:
        raise ValueError("workers must be >= 0 for the distributed backend")
    lease_ttl = DEFAULT_LEASE_TTL if lease_ttl is None else float(lease_ttl)
    if lease_ttl <= 0:
        raise ValueError("lease_ttl must be positive")
    # Late import: repro.sched builds on this module's queue primitives.
    from repro.sched.estimator import estimate_sweep_cost
    from repro.sched.planner import plan_campaign

    estimates = [
        estimate_sweep_cost(
            job.scenario, job.params, job.seeds, runtimes=job.runtimes,
        )
        for job in jobs
    ]
    plan = plan_campaign(
        [job.seeds for job in jobs], max(workers, 1), estimates,
        chunk_size=chunk_size,
    )
    own = fleet is None or fleet.key != LocalFleet.key_for(
        queue_dir, cache_root, workers, lease_ttl,
    )
    if own:
        fleet = LocalFleet(
            queue_dir, cache_root, workers=workers, lease_ttl=lease_ttl,
            poll=poll,
        )
    start = time.perf_counter()
    try:
        return _run_queued(
            jobs, plan, fleet, start, own=own,
            poll=poll, timeout=timeout,
            max_attempts=max_attempts, stop=stop,
        )
    finally:
        # A fleet of our own (and its private temp queue, on success
        # already collected and cleaned, on failure unreachable) is
        # useless after this call either way — don't leak it.
        if own:
            fleet.close()


def _run_queued(
    jobs: Sequence[QueuedJob],
    plan: CampaignPlan,
    fleet: LocalFleet,
    start: float,
    *,
    own: bool,
    poll: float,
    timeout: float,
    max_attempts: int,
    stop: Optional[Callable[[], bool]],
) -> List[DistributedOutcome]:
    """The enqueue / wait / collect body of ``execute_queued``.

    Every job's sweep is written to the fleet's queue root exactly as
    ``plan`` lays it out; ``own`` says whether the fleet was built for
    this call (and so forks from it later) or is shared.
    """
    queues = [
        WorkQueue.create(
            fleet.queue_root, job.scenario, job.params, job.seeds,
            planned.chunk_size,
            spec_payload=job.spec_payload,
            max_attempts=max_attempts,
            chunks=planned.chunks,
            rank=planned.rank,
            est_seconds_per_seed=planned.estimate.seconds_per_seed,
        )
        for job, planned in zip(jobs, plan.sweeps)
    ]
    our_sweeps = [queue.sweep_id for queue in queues]
    aborted = False
    try:
        if own and fleet.has_workers:
            # Build each job's arena here, once: the fleet forks from
            # this process and inherits it (and the network cache)
            # copy-on-write instead of every worker rebuilding it.  A
            # build that raises is left to the workers, whose error
            # boundary quarantines its seeds as usual.
            for job in jobs:
                with contextlib.suppress(Exception):
                    registry.warm_arena(
                        job.scenario, params_signature(job.params)
                    )
        # A shared fleet's idle workers claim the new tasks now, not at
        # their next poll.
        fleet.ring()
        # The stall window: how long the queue may go without a new done
        # marker before the coordinator drains inline.  At least one
        # lease TTL, so a crashed worker's chunk can first be stolen by
        # its peers (that is the point of the exercise).
        stall_window = max(fleet.lease_ttl, 1.0)
        repair_every = max(poll * 10.0, 0.5)
        tick_every = max(poll * 5.0, 0.25)
        # Adaptive wait: the idle wait doubles while no task completes
        # (capped well under the stall window so stall detection keeps
        # its resolution) and snaps back to ``poll`` on any progress, so
        # a quiet queue stops burning scans.  A local worker cuts the
        # wait short through the fleet's progress channel the moment it
        # finishes a task; external ``repro worker`` fleets are seen at
        # the next scan.  Completion itself is decided by the done
        # markers alone.
        sleep_cap = max(poll, min(0.5, stall_window / 4.0))
        idle_sleep = poll
        total_tasks = sum(len(queue.task_ids()) for queue in queues)
        last_done = -1
        last_progress = time.monotonic()
        last_repair = 0.0
        last_tick: Optional[float] = None
        while True:
            # Read before the scan, so a task finishing mid-scan still
            # cuts the next wait short.
            seen = fleet.generation
            if stop is not None and stop():
                raise SweepAborted(
                    "distributed execution cancelled; queued sweeps "
                    "abandoned and their directories removed"
                )
            if fleet.closed:
                raise SweepAborted(
                    "the local worker fleet was closed; queued sweeps "
                    "abandoned and their directories removed"
                )
            now = time.monotonic()
            done_now = sum(queue.done_count() for queue in queues)
            if done_now >= total_tasks:
                break
            if done_now != last_done:
                last_done = done_now
                last_progress = now
                idle_sleep = poll
            if now - last_progress > timeout:
                pending = {
                    queue.sweep_id: queue.pending()
                    for queue in queues if not queue.is_complete()
                }
                raise RuntimeError(
                    f"distributed execution made no progress for "
                    f"{timeout:.0f}s with {pending} pending"
                )
            # Repair is a full scan of the task files; throttle it
            # rather than hammering a (possibly network) volume.
            if now - last_repair > repair_every:
                last_repair = now
                for queue in queues:
                    queue.repair()
            active = sum(queue.active_leases() for queue in queues)
            if last_tick is None or now - last_tick >= tick_every:
                # One fleet tick: the first forks the fleet, so work
                # starts immediately; later ones replace crashed workers.
                last_tick = now
                fleet.tick()
            # Drain inline when nobody else is on the job — no live
            # local worker and no active lease — or the queue stalled a
            # full window (which also steals expired leases).  A crashed
            # local worker is no trigger: the next tick replaces it.
            if ((fleet.alive() == 0 and active == 0)
                    or now - last_progress > stall_window):
                drained = worker_loop(
                    fleet.queue_root,
                    fleet.cache_root,
                    poll=poll,
                    lease_ttl=fleet.lease_ttl,
                    drain=True,
                    stop=stop,
                    only_sweeps=our_sweeps,
                )
                if drained.tasks_done > 0:
                    last_progress = time.monotonic()
                    idle_sleep = poll
                    continue
                # Nothing claimable yet (e.g. an orphaned lease still
                # inside its TTL) — wait, don't spin.
            fleet.wait(seen, idle_sleep)
            idle_sleep = min(idle_sleep * 2.0, sleep_cap)
    except SweepAborted:
        aborted = True
        raise
    finally:
        if aborted:
            if own:
                fleet.close()  # no worker of ours outlives the abort
            # Leave nothing behind: a cancelled campaign's sweep dirs
            # (tasks, leases, attempt markers, quarantine diagnostics)
            # must not confuse the next campaign on this queue dir.
            for queue in queues:
                queue.cleanup()
    outcomes = []
    for queue, planned in zip(queues, plan.sweeps):
        results, failures, totals = queue.collect()
        runtimes = queue.seed_runtimes()
        counters = queue.counters()
        if failures and not fleet.private:
            # Keep the sweep dir: its quarantine diagnostics stay
            # inspectable (`repro queue status`) and releasable
            # (`repro queue requeue`) until someone acts on them.
            pass
        else:
            queue.cleanup()
        outcomes.append(DistributedOutcome(
            results=results,
            chunk_size=planned.chunk_size,
            tasks=counters.tasks,
            steals=counters.steals,
            requeues=counters.requeues,
            cache_errors=totals.cache_errors,
            wall_seconds=time.perf_counter() - start,
            failed_seeds=failures,
            seed_runtimes=runtimes,
        ))
    return outcomes


# ---------------------------------------------------------------------------
# queue observability (`repro queue status`)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeaseStatus:
    """One live lease: who holds which task, and how stale it is."""

    task_id: str
    owner: str
    age_seconds: float


@dataclass(frozen=True)
class QuarantineStatus:
    """One quarantined seed: which task poisoned, and why."""

    task_id: str
    seed: int
    error_type: str
    message: str
    attempts: int

    def to_payload(self) -> dict:
        return {
            "task": self.task_id,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class SweepStatus:
    """One sweep's queue state, read entirely from its files.

    ``steal_events`` lists the task id behind every steal tombstone —
    the sweep's work-stealing history, one entry per reclaim.
    ``version_match`` is ``False`` when the manifest was written by a
    different code version (workers skip such sweeps loudly).
    ``quarantined`` lists every poisoned seed with its exception
    summary — the work `repro queue requeue` would release.
    ``est_seconds_per_seed`` is the planner's cost estimate recorded
    in the manifest (``None`` for sweeps enqueued without one) and
    ``est_remaining_seconds`` prices the still-pending seeds with it —
    advisory ETAs, not promises.
    """

    sweep_id: str
    scenario: str
    seeds: Tuple[int, ...]
    tasks: int
    done: int
    leased: Tuple[LeaseStatus, ...]
    steals: int
    repairs: int
    steal_events: Tuple[str, ...]
    version_match: bool
    spec: Optional[dict] = None
    quarantined: Tuple[QuarantineStatus, ...] = ()
    est_seconds_per_seed: Optional[float] = None
    est_remaining_seconds: Optional[float] = None

    @property
    def pending(self) -> int:
        """Tasks with neither a done marker nor a live lease."""
        return max(self.tasks - self.done - len(self.leased), 0)

    @property
    def complete(self) -> bool:
        return self.done >= self.tasks

    @property
    def requeues(self) -> int:
        return self.steals + self.repairs

    def to_payload(self) -> dict:
        return {
            "sweep": self.sweep_id,
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "tasks": self.tasks,
            "done": self.done,
            "pending": self.pending,
            "leased": [
                {
                    "task": lease.task_id,
                    "owner": lease.owner,
                    "age_seconds": lease.age_seconds,
                }
                for lease in self.leased
            ],
            "steals": self.steals,
            "repairs": self.repairs,
            "requeues": self.requeues,
            "steal_events": list(self.steal_events),
            "version_match": self.version_match,
            "spec": self.spec,
            "quarantined": [
                record.to_payload() for record in self.quarantined
            ],
            "est_seconds_per_seed": self.est_seconds_per_seed,
            "est_remaining_seconds": self.est_remaining_seconds,
        }


def _sweep_status(queue: WorkQueue, now: float) -> SweepStatus:
    leases = []
    for lease_path in sorted(
        (queue.sweep_dir / "leases").glob("*.lease")
    ):
        task_id = lease_path.name[:-len(".lease")]
        try:
            owner = lease_path.read_text().strip()
            age = max(now - lease_path.stat().st_mtime, 0.0)
        except OSError:
            continue  # released/stolen while we looked
        leases.append(LeaseStatus(
            task_id=task_id, owner=owner or "?", age_seconds=age,
        ))
    counters = queue.counters()
    quarantined = tuple(
        QuarantineStatus(
            task_id=str(record["task"]),
            seed=seed,
            error_type=str(record["failure"]["error_type"]),
            message=str(record["failure"]["message"]),
            attempts=int(record["failure"]["attempts"]),
        )
        for seed, record in sorted(queue.quarantined().items())
    )
    est_per_seed = queue.manifest.get("est_seconds_per_seed")
    if (
        isinstance(est_per_seed, bool)
        or not isinstance(est_per_seed, (int, float))
        or est_per_seed < 0
    ):
        est_per_seed = None
    est_remaining = None
    if est_per_seed is not None:
        remaining_seeds = sum(
            len(chunk)
            for task_id, chunk in queue.manifest.get("chunks", {}).items()
            if not queue.is_done(task_id)
        )
        est_remaining = float(est_per_seed) * remaining_seeds
    return SweepStatus(
        sweep_id=queue.sweep_id,
        scenario=str(queue.manifest.get("scenario", "?")),
        seeds=tuple(
            int(seed) for seed in queue.manifest.get("seeds", [])
        ),
        tasks=counters.tasks,
        done=counters.done,
        leased=tuple(leases),
        steals=counters.steals,
        repairs=counters.repairs,
        steal_events=queue.steal_events(),
        version_match=(
            queue.manifest.get("code_version") == code_version()
        ),
        spec=queue.manifest.get("spec"),
        quarantined=quarantined,
        est_seconds_per_seed=(
            float(est_per_seed) if est_per_seed is not None else None
        ),
        est_remaining_seconds=est_remaining,
    )


def queue_status(queue_dir: Union[str, Path]) -> List[SweepStatus]:
    """The live state of every sweep under ``queue_dir``, sorted by id.

    Pure observation: reads manifests, done markers, lease files,
    steal/requeue tombstones and quarantine diagnostics; never claims,
    repairs or deletes anything, so it is safe to run next to a live
    fleet.  Robust to scan races by construction: every file it reads
    may be mid-write or vanish between the directory listing and the
    read, and any such file is reported as still pending/absent rather
    than crashing the call.
    """
    now = time.time()
    return [
        _sweep_status(queue, now)
        for queue in WorkQueue.discover(queue_dir)
    ]


def requeue_quarantined(
    queue_dir: Union[str, Path],
    seed: Optional[int] = None,
) -> Dict[str, List[int]]:
    """Release quarantined seeds under ``queue_dir`` back into play.

    The operator's post-fix lever behind ``repro queue requeue``: for
    every sweep under the queue dir (all seeds, or just ``seed``),
    drops the quarantine record, the seed's attempt markers, and the
    owning task's done marker — the task is pending again with a fresh
    retry budget, and any attached worker fleet picks it up on its
    next pass.  Returns ``{sweep_id: [released seeds]}`` for the
    sweeps that released at least one seed.
    """
    released: Dict[str, List[int]] = {}
    for queue in WorkQueue.discover(queue_dir):
        seeds = queue.requeue_quarantined(seed)
        if seeds:
            released[queue.sweep_id] = seeds
    return released
