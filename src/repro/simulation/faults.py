"""Fault injection and structured failure records for the runtime.

Two concerns live here, shared by the process pool
(:mod:`repro.simulation.parallel`), the work queue
(:mod:`repro.simulation.distributed`) and the sweep engine
(:mod:`repro.simulation.sweep`):

* **The chaos harness.**  ``REPRO_WORKER_FAULT`` holds a
  comma-separated list of fault specs that executors honour at the
  moment they would run a seed:

  - ``sigkill:<seed>`` — the worker SIGKILLs itself (no cleanup, no
    lease release) right before that seed; daemon workers only,
    exactly once per sweep.
  - ``raise:<seed>`` — running that seed raises
    :class:`InjectedFaultError` deterministically, every attempt, in
    every executor (daemons, pool workers, the coordinator's inline
    drain).  The always-poison seed.
  - ``flaky:<seed>:<k>`` — the first ``k`` attempts at that seed raise
    :class:`InjectedFaultError`, then it succeeds; exercises the retry
    path end to end.  Counted per sweep via exactly-once flag files,
    so the failures land once each no matter which workers attempt.
  - ``hang:<seed>`` — the worker sleeps past the lease TTL before
    running that seed (daemon workers only, exactly once per sweep);
    exercises the steal-then-succeed path.

* **Failure records.**  :func:`failure_payload` reduces a caught
  exception to the structured JSON shape that travels through done
  markers, quarantine diagnostics, :class:`SweepResult.failed_seeds`
  and the sweep export: seed, exception type, message, a traceback
  digest, and the attempt count that exhausted the retry budget.

Retry policy constants live here too so the pool and queue backends
agree: :data:`DEFAULT_MAX_ATTEMPTS` bounds attempts per seed, and
:func:`backoff_delay` is the exponential backoff between them.

The module is deliberately stdlib-only and import-light: anything in
the runtime may import it without creating a cycle.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ENV_FAULT = "REPRO_WORKER_FAULT"

# Per-seed retry budget when no profile/manifest/worker flag names one.
DEFAULT_MAX_ATTEMPTS = 3

# Exponential backoff between attempts at the same seed:
# base * 2**(attempt-1), capped so short-TTL test sweeps stay snappy.
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0

FAULT_KINDS = ("sigkill", "raise", "flaky", "hang")


class InjectedFaultError(RuntimeError):
    """The deterministic exception the ``raise``/``flaky`` faults throw."""


def backoff_delay(attempt: int) -> float:
    """Seconds to wait after the ``attempt``-th failure (1-based)."""
    if attempt < 1:
        return 0.0
    return min(
        BACKOFF_BASE_SECONDS * (2.0 ** (attempt - 1)), BACKOFF_CAP_SECONDS
    )


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``REPRO_WORKER_FAULT`` entry."""

    kind: str  # one of FAULT_KINDS
    seed: int
    fails: int = 0  # flaky only: attempts that fail before success


def parse_fault_specs(value: Optional[str]) -> Tuple[FaultSpec, ...]:
    """Every well-formed fault spec in a comma-separated env value.

    Malformed entries are ignored (the harness must never take a
    production fleet down because of a typo in a test knob).
    """
    if not value:
        return ()
    specs: List[FaultSpec] = []
    for entry in value.split(","):
        parts = entry.strip().split(":")
        if len(parts) < 2 or parts[0] not in FAULT_KINDS:
            continue
        try:
            seed = int(parts[1])
        except ValueError:
            continue
        fails = 0
        if parts[0] == "flaky":
            if len(parts) != 3:
                continue
            try:
                fails = int(parts[2])
            except ValueError:
                continue
            if fails < 1:
                continue
        elif len(parts) != 2:
            continue
        specs.append(FaultSpec(kind=parts[0], seed=seed, fails=fails))
    return tuple(specs)


def active_faults() -> Tuple[FaultSpec, ...]:
    """The faults requested by the current environment."""
    return parse_fault_specs(os.environ.get(ENV_FAULT))


def faults_for(seed: int, kind: Optional[str] = None) -> Tuple[FaultSpec, ...]:
    """Active faults targeting ``seed`` (optionally of one ``kind``)."""
    return tuple(
        spec for spec in active_faults()
        if spec.seed == seed and (kind is None or spec.kind == kind)
    )


def maybe_raise(seed: int) -> None:
    """Honour a ``raise:<seed>`` fault: deterministic, stateless.

    The one fault kind that needs no shared sweep state, so every
    executor — pool workers included — can apply it at the top of its
    per-seed error boundary.
    """
    if faults_for(seed, "raise"):
        raise InjectedFaultError(f"injected fault: seed {seed} is poison")


# ---------------------------------------------------------------------------
# structured failure records
# ---------------------------------------------------------------------------

def traceback_digest(error: BaseException) -> str:
    """A short stable digest of an exception's formatted traceback."""
    text = "".join(traceback.format_exception(
        type(error), error, error.__traceback__
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def failure_payload(
    seed: int, error: BaseException, attempts: int
) -> Dict[str, object]:
    """The JSON-ready record of one seed's exhausted retry budget.

    This exact shape rides in done markers, quarantine diagnostics,
    ``SweepResult.failed_seeds`` and the sweep export.
    """
    return {
        "seed": int(seed),
        "error_type": type(error).__name__,
        "message": str(error),
        "traceback_digest": traceback_digest(error),
        "attempts": int(attempts),
    }


def crash_failure_payload(seed: int, attempts: int) -> Dict[str, object]:
    """A failure record for a seed whose attempts died without a
    recorded exception (the worker crashed mid-attempt)."""
    return {
        "seed": int(seed),
        "error_type": "WorkerCrash",
        "message": (
            "every attempt at this seed ended without a recorded "
            "exception; the executing worker(s) died mid-seed"
        ),
        "traceback_digest": "",
        "attempts": int(attempts),
    }


def normalize_failure(
    payload: object, seed: Optional[int] = None
) -> Optional[Dict[str, object]]:
    """A validated failure record from untrusted JSON, or ``None``.

    Done markers and quarantine files cross process and machine
    boundaries; a record that lost its shape is replaced by ``None``
    (callers treat the seed as failed-with-unknown-diagnostics) rather
    than crashing status calls or collection.
    """
    if not isinstance(payload, dict):
        return None
    try:
        record = {
            "seed": int(payload["seed"]) if seed is None else int(seed),
            "error_type": str(payload.get("error_type", "Exception")),
            "message": str(payload.get("message", "")),
            "traceback_digest": str(payload.get("traceback_digest", "")),
            "attempts": int(payload.get("attempts", 0)),
        }
    except (KeyError, TypeError, ValueError):
        return None
    return record
