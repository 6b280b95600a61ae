"""Fleet autoscaling: tick-based policy + coordinator-side supervisor.

The supervisor is the only code that starts, replaces, retires and
stops local workers.  A fixed ``--workers N`` fleet is the same
supervisor with floor = ceiling = ``N``; ``--autoscale`` widens the
bounds so the fleet follows the queue — a mixed campaign whose tail
needs two workers need not hold eight.  The problem splits in two:

* :class:`AutoscalePolicy` is a *pure* decision function: feed it one
  :class:`QueueSample` per tick and the current fleet size, get back a
  clamped target with hysteresis (consecutive-tick holds before
  scaling, a cooldown after).  No I/O, no clocks — the Hypothesis
  suite drives it with synthetic traces and asserts the bounds and
  flap-damping invariants directly.  A fleet below its floor (a worker
  crashed) is repaired at the next tick, bypassing hysteresis.
* :class:`FleetSupervisor` owns the processes: it samples the queue,
  asks the policy, spawns workers via an injected factory and retires
  them gracefully by setting each worker's own stop event (a worker
  finishes its current task, sees the event, exits — leases are never
  cut mid-task, so autoscaling can't cause a steal).  A fleet that can
  scale (floor < ceiling) appends one JSON line per scaling action to
  ``autoscale-events.jsonl`` under the queue directory, which ``repro
  queue status`` surfaces; a fixed fleet writes nothing there.

Autoscaling is result-neutral by construction: it changes how many
workers pull from the queue, never what any task computes.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

_EVENTS_NAME = "autoscale-events.jsonl"


@dataclass(frozen=True)
class QueueSample:
    """One tick's observation of campaign load.

    ``claimable`` counts tasks no live worker holds and nobody has
    finished; ``leased`` counts tasks in flight.  Their sum is the
    outstanding work — the fleet size that would give every task a
    worker right now.
    """

    claimable: int
    leased: int = 0

    @property
    def outstanding(self) -> int:
        return max(self.claimable, 0) + max(self.leased, 0)


@dataclass(frozen=True)
class ScaleDecision:
    """What the policy wants done this tick."""

    target: int
    action: str  # "spawn" | "retire" | "hold"
    reason: str


class AutoscalePolicy:
    """Bounded scaling with hysteresis.

    The desired fleet is the outstanding task count clamped to
    ``[min_workers, max_workers]``.  Upward moves wait
    ``scale_up_after`` consecutive ticks of pressure, downward moves
    ``scale_down_after`` ticks of slack, and any action starts a
    ``cooldown``-tick quiet period — so a queue oscillating around a
    threshold cannot flap the fleet.  Bounds violations (a fleet
    outside ``[min, max]``, e.g. after worker deaths) are corrected
    immediately, bypassing hysteresis: the bounds are a contract, the
    damping is an optimization.
    """

    def __init__(
        self,
        min_workers: int,
        max_workers: int,
        scale_up_after: int = 1,
        scale_down_after: int = 3,
        cooldown: int = 2,
    ) -> None:
        if min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {min_workers}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if min_workers > max_workers:
            raise ValueError(
                f"min_workers ({min_workers}) exceeds "
                f"max_workers ({max_workers})"
            )
        if scale_up_after < 1 or scale_down_after < 1 or cooldown < 0:
            raise ValueError("hysteresis windows must be positive")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.scale_up_after = scale_up_after
        self.scale_down_after = scale_down_after
        self.cooldown = cooldown
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown_left = 0

    def clamp(self, size: int) -> int:
        return max(self.min_workers, min(self.max_workers, size))

    def decide(self, sample: QueueSample, current: int) -> ScaleDecision:
        """One tick: the fleet size to hold, and whether to move now."""
        desired = self.clamp(sample.outstanding)
        if current < self.min_workers:
            self._reset(cooldown=True)
            return ScaleDecision(
                self.min_workers, "spawn",
                f"fleet {current} below min_workers {self.min_workers}",
            )
        if current > self.max_workers:
            self._reset(cooldown=True)
            return ScaleDecision(
                self.max_workers, "retire",
                f"fleet {current} above max_workers {self.max_workers}",
            )
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return ScaleDecision(current, "hold", "cooling down")
        if desired > current:
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak >= self.scale_up_after:
                self._reset(cooldown=True)
                return ScaleDecision(
                    desired, "spawn",
                    f"{sample.outstanding} tasks outstanding vs "
                    f"fleet of {current}",
                )
            return ScaleDecision(
                current, "hold",
                f"pressure {self._up_streak}/{self.scale_up_after}",
            )
        if desired < current:
            self._down_streak += 1
            self._up_streak = 0
            if self._down_streak >= self.scale_down_after:
                self._reset(cooldown=True)
                return ScaleDecision(
                    desired, "retire",
                    f"{sample.outstanding} tasks outstanding vs "
                    f"fleet of {current}",
                )
            return ScaleDecision(
                current, "hold",
                f"slack {self._down_streak}/{self.scale_down_after}",
            )
        self._up_streak = 0
        self._down_streak = 0
        return ScaleDecision(current, "hold", "steady")

    def _reset(self, cooldown: bool = False) -> None:
        self._up_streak = 0
        self._down_streak = 0
        if cooldown:
            self._cooldown_left = self.cooldown


class FleetSupervisor:
    """Spawn, replace, retire and stop local workers as the policy says.

    ``spawn`` is an injected factory ``spawn(stop) -> process`` (already
    started), where ``stop`` is the worker's own
    :class:`multiprocessing.Event`; the supervisor never imports the
    worker entrypoint itself, keeping this module free of executor
    dependencies.  Retirement is cooperative: the supervisor sets the
    worker's stop event and lets it drain its current task; the process
    is reaped on a later tick.  ``shutdown`` terminates and joins the
    whole fleet.  Only a fleet that can scale logs its actions.
    """

    def __init__(
        self,
        spawn: Callable[[object], object],
        policy: AutoscalePolicy,
        queue_dir: Union[str, Path],
    ) -> None:
        self._spawn = spawn
        self.policy = policy
        self._events_path: Optional[Path] = (
            Path(queue_dir) / _EVENTS_NAME
            if policy.min_workers < policy.max_workers else None
        )
        self._workers: List[tuple] = []  # (process, stop event)
        self._tick = 0

    # ------------------------------------------------------------------
    def alive(self) -> int:
        """Reap exited workers; the number still running."""
        survivors = []
        for process, stop in self._workers:
            if process.is_alive():
                survivors.append((process, stop))
            else:
                process.join(timeout=0)
        self._workers = survivors
        return len(survivors)

    def observe(self, sample: QueueSample) -> ScaleDecision:
        """One autoscaler tick: decide, act, log."""
        current = self.alive()
        decision = self.policy.decide(sample, current)
        if decision.action == "spawn" and decision.target > current:
            for _ in range(decision.target - current):
                stop = multiprocessing.Event()
                self._workers.append((self._spawn(stop), stop))
        elif decision.action == "retire" and decision.target < current:
            # Newest-first: older workers are warmer (module imports,
            # cache handles) and more likely mid-task.
            for _, stop in self._workers[decision.target:]:
                stop.set()
        if decision.action != "hold":
            self._log_event(decision, current, sample)
        self._tick += 1
        return decision

    def shutdown(self) -> None:
        """Stop the whole fleet: terminate every worker, then join."""
        for process, _ in self._workers:
            if process.is_alive():
                process.terminate()
        for process, _ in self._workers:
            process.join(timeout=5.0)
        self._workers = []

    # ------------------------------------------------------------------
    def _log_event(
        self, decision: ScaleDecision, previous: int, sample: QueueSample,
    ) -> None:
        if self._events_path is None:
            return  # a fixed fleet writes nothing under the queue dir
        event = {
            "time": time.time(),
            "tick": self._tick,
            "action": decision.action,
            "from": previous,
            "to": decision.target,
            "reason": decision.reason,
            "claimable": sample.claimable,
            "leased": sample.leased,
        }
        try:
            with self._events_path.open("a") as handle:
                handle.write(json.dumps(event) + "\n")
        except OSError:
            pass  # telemetry only; scaling still happened


def load_autoscale_events(
    queue_dir: Union[str, Path], limit: Optional[int] = None,
) -> List[Dict[str, object]]:
    """The scaling events recorded under ``queue_dir``, oldest first.

    Returns the last ``limit`` events when given; an empty list when
    no autoscaler ever ran there.  Unparseable lines (torn writes from
    a killed coordinator) are skipped.
    """
    path = Path(queue_dir) / _EVENTS_NAME
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return []
    events = []
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    if limit is not None and limit >= 0:
        events = events[-limit:]
    return events
