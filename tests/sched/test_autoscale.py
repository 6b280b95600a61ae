"""Autoscaler invariants: bounds, hysteresis, graceful retirement.

``AutoscalePolicy`` is pure, so Hypothesis drives it with synthetic
queue traces and asserts the contract directly: the fleet target never
leaves ``[min_workers, max_workers]``, and consecutive scaling actions
are always separated by the cooldown.  ``FleetSupervisor`` is tested
against a fake process factory — no real workers, just the spawn /
stop-event / reap / terminate mechanics and the JSONL event log.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.sched import (
    AutoscalePolicy,
    FleetSupervisor,
    QueueSample,
    load_autoscale_events,
)

_TRACE = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),   # claimable
        st.integers(min_value=0, max_value=10),   # leased
    ),
    min_size=1, max_size=60,
)


def _bounds():
    return st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=8),
    ).filter(lambda pair: pair[0] <= pair[1])


class TestPolicyProperties:
    @given(trace=_TRACE, bounds=_bounds())
    @settings(max_examples=200)
    def test_fleet_never_leaves_bounds(self, trace, bounds):
        """Following the policy's own targets from any in-bounds start,
        the fleet stays in [min, max] for any load trace."""
        low, high = bounds
        policy = AutoscalePolicy(low, high)
        current = low
        for claimable, leased in trace:
            decision = policy.decide(
                QueueSample(claimable=claimable, leased=leased), current
            )
            assert low <= decision.target <= high
            if decision.action != "hold":
                current = decision.target
            assert low <= current <= high

    @given(trace=_TRACE, bounds=_bounds())
    @settings(max_examples=200)
    def test_actions_are_separated_by_the_cooldown(self, trace, bounds):
        """No flapping: between two scaling actions there are at least
        ``cooldown`` hold ticks (bounds stay intact throughout, so the
        bypass-the-damping repair path never fires)."""
        low, high = bounds
        policy = AutoscalePolicy(low, high, cooldown=2)
        current = low
        since_action = None
        for claimable, leased in trace:
            decision = policy.decide(
                QueueSample(claimable=claimable, leased=leased), current
            )
            if decision.action != "hold":
                if since_action is not None:
                    assert since_action >= policy.cooldown
                since_action = 0
                current = decision.target
            elif since_action is not None:
                since_action += 1

    @given(
        outside=st.integers(min_value=9, max_value=20),
        trace=_TRACE,
    )
    @settings(max_examples=50)
    def test_bounds_violations_are_repaired_immediately(
        self, outside, trace
    ):
        """A fleet outside [min, max] — e.g. after worker deaths — is
        corrected on the very next tick, no hysteresis."""
        policy = AutoscalePolicy(2, 8)
        claimable, leased = trace[0]
        sample = QueueSample(claimable=claimable, leased=leased)
        over = policy.decide(sample, outside)
        assert (over.action, over.target) == ("retire", 8)
        under = policy.decide(sample, 0)
        assert (under.action, under.target) == ("spawn", 2)


class TestPolicyHysteresis:
    def test_scale_down_waits_for_the_slack_streak(self):
        policy = AutoscalePolicy(0, 8, scale_down_after=3, cooldown=0)
        quiet = QueueSample(claimable=0, leased=1)
        assert policy.decide(quiet, 4).action == "hold"
        assert policy.decide(quiet, 4).action == "hold"
        third = policy.decide(quiet, 4)
        assert (third.action, third.target) == ("retire", 1)

    def test_a_pressure_blip_resets_the_slack_streak(self):
        policy = AutoscalePolicy(0, 8, scale_down_after=2, cooldown=0)
        quiet = QueueSample(claimable=0, leased=1)
        busy = QueueSample(claimable=10)
        assert policy.decide(quiet, 4).action == "hold"
        assert policy.decide(busy, 4).action == "spawn"  # up_after=1
        # The retire countdown starts over after the blip.
        assert policy.decide(quiet, 4).action == "hold"

    def test_cooldown_holds_after_an_action(self):
        policy = AutoscalePolicy(0, 8, cooldown=2)
        spawn = policy.decide(QueueSample(claimable=6), 2)
        assert spawn.action == "spawn"
        for _ in range(2):
            held = policy.decide(QueueSample(claimable=20), 6)
            assert (held.action, held.reason) == ("hold", "cooling down")
        assert policy.decide(QueueSample(claimable=20), 6).action == "spawn"

    def test_invalid_configurations_rejected(self):
        for args in ((-1, 4), (0, 0), (5, 2)):
            with pytest.raises(ValueError):
                AutoscalePolicy(*args)
        with pytest.raises(ValueError):
            AutoscalePolicy(0, 4, scale_up_after=0)


class _FakeProcess:
    """A worker stand-in: 'exits' once its stop event is set and it is
    joined or reaped, like a drained worker daemon.  ``calls`` is the
    fleet-wide log of terminate/join calls, in order."""

    def __init__(self, stop, calls):
        self.stop = stop
        self.calls = calls
        self.terminated = False
        self._dead = False

    def kill_now(self):
        self._dead = True

    def is_alive(self):
        if self.stop.is_set():
            self._dead = True
        return not self._dead

    def join(self, timeout=None):
        self.calls.append(("join", self))
        if self.stop.is_set():
            self._dead = True

    def terminate(self):
        self.calls.append(("terminate", self))
        self.terminated = True
        self._dead = True


class TestFleetSupervisor:
    def _supervisor(self, tmp_path, policy=None):
        spawned = []
        calls = []

        def spawn(stop):
            process = _FakeProcess(stop, calls)
            spawned.append(process)
            return process

        supervisor = FleetSupervisor(
            spawn,
            policy or AutoscalePolicy(0, 3, scale_down_after=1, cooldown=0),
            tmp_path,
        )
        return supervisor, spawned

    def test_first_tick_sizes_the_fleet_to_the_queue(self, tmp_path):
        supervisor, spawned = self._supervisor(tmp_path)
        decision = supervisor.observe(QueueSample(claimable=10))
        assert decision.action == "spawn"
        assert supervisor.alive() == 3  # clamped to max_workers
        assert len(spawned) == 3
        assert all(not p.stop.is_set() for p in spawned)
        (event,) = load_autoscale_events(tmp_path)
        assert event["action"] == "spawn"
        assert event["from"] == 0 and event["to"] == 3
        assert event["claimable"] == 10

    def test_retirement_flags_newest_first_and_is_graceful(self, tmp_path):
        supervisor, spawned = self._supervisor(tmp_path)
        supervisor.observe(QueueSample(claimable=10))
        decision = supervisor.observe(QueueSample(claimable=0, leased=1))
        assert (decision.action, decision.target) == ("retire", 1)
        # The two newest workers got their stop events; the oldest keeps
        # running — retirement never terminates, only asks.
        assert [p.stop.is_set() for p in spawned] == [False, True, True]
        assert all(not p.terminated for p in spawned)
        assert supervisor.alive() == 1  # stopped workers drained out
        events = load_autoscale_events(tmp_path)
        assert [e["action"] for e in events] == ["spawn", "retire"]
        assert events[1]["from"] - events[1]["to"] == 2
        assert list(tmp_path.iterdir()) == [
            tmp_path / "autoscale-events.jsonl"
        ]

    def test_dead_workers_are_reaped_and_replaced(self, tmp_path):
        supervisor, spawned = self._supervisor(
            tmp_path, AutoscalePolicy(2, 3),
        )
        supervisor.observe(QueueSample(claimable=2))
        assert supervisor.alive() == 2
        spawned[0].kill_now()  # a crash, not a retirement
        decision = supervisor.observe(QueueSample(claimable=0))
        # Below min_workers: repaired immediately, bypassing hysteresis.
        assert decision.action == "spawn"
        assert supervisor.alive() == 2
        assert len(spawned) == 3

    def test_fixed_fleet_repairs_crashes_and_logs_nothing(self, tmp_path):
        supervisor, spawned = self._supervisor(
            tmp_path, AutoscalePolicy(2, 2),
        )
        supervisor.observe(QueueSample(claimable=10))
        assert supervisor.alive() == 2
        spawned[1].kill_now()
        assert supervisor.observe(QueueSample(claimable=10)).action == (
            "spawn"
        )
        supervisor.observe(QueueSample(claimable=0))  # never retires
        assert supervisor.alive() == 2
        assert len(spawned) == 3
        assert list(tmp_path.iterdir()) == []

    def test_shutdown_flags_everyone_and_clears_the_fleet(self, tmp_path):
        supervisor, spawned = self._supervisor(tmp_path)
        supervisor.observe(QueueSample(claimable=3))
        # One shutdown: terminate every worker, then join them all; no
        # stop event is set and nobody waits for a graceful exit.
        supervisor.shutdown()
        calls = spawned[0].calls
        assert [kind for kind, _ in calls] == ["terminate"] * 3 + ["join"] * 3
        assert [p for _, p in calls] == spawned * 2
        assert all(p.terminated and not p.is_alive() for p in spawned)
        assert not any(p.stop.is_set() for p in spawned)
        assert supervisor.alive() == 0

    def test_hold_ticks_log_nothing(self, tmp_path):
        supervisor, _ = self._supervisor(
            tmp_path, AutoscalePolicy(0, 3, cooldown=0),
        )
        supervisor.observe(QueueSample(claimable=0))
        assert load_autoscale_events(tmp_path) == []


class TestEventLog:
    def test_missing_log_is_empty(self, tmp_path):
        assert load_autoscale_events(tmp_path) == []

    def test_torn_lines_are_skipped_and_limit_tails(self, tmp_path):
        path = tmp_path / "autoscale-events.jsonl"
        lines = [json.dumps({"tick": i, "action": "spawn"})
                 for i in range(5)]
        lines.insert(2, '{"tick": 99, "act')  # a torn write
        lines.insert(4, "[1, 2, 3]")          # JSON but not an event
        path.write_text("\n".join(lines) + "\n")
        events = load_autoscale_events(tmp_path)
        assert [e["tick"] for e in events] == [0, 1, 2, 3, 4]
        assert [e["tick"] for e in load_autoscale_events(tmp_path, limit=2)
                ] == [3, 4]


class TestLocalFleetEndToEnd:
    def test_autoscaled_campaign_leaves_only_the_event_log(self, tmp_path):
        """Workers retire through their stop events, so an explicit
        queue dir ends up holding the scaling history and nothing
        else — no per-worker stop files."""
        from repro.api import ExecutionProfile, SweepSpec
        from repro.simulation.sweep import execute_campaign

        queue_dir = tmp_path / "queue"
        profile = ExecutionProfile(
            workers=2, backend="distributed", no_cache=True,
            queue_dir=str(queue_dir), autoscale=True,
        )
        specs = [SweepSpec("fig7-mutuality", range(1, 9), smoke=True)]
        oracle = execute_campaign(specs, ExecutionProfile(no_cache=True))
        results = execute_campaign(specs, profile)
        assert results[0].per_seed == oracle[0].per_seed
        assert [path.name for path in queue_dir.iterdir()] == [
            "autoscale-events.jsonl"
        ]
        assert load_autoscale_events(queue_dir)[0]["action"] == "spawn"
