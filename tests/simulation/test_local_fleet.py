"""The local worker fleet: one class for per-call and resident fleets.

Covers the sweep-removal race a resident fleet's workers hit on every
job (a cleanup racing a repair), the wake channel (every coordinator of
several in-flight jobs is woken, idle workers are rung on enqueue), the
fixed fleet's upkeep (crashed workers replaced, terminate-then-join
shutdown), and that a per-call fleet leaves no process, thread or temp
dir behind.
"""

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.simulation import distributed, registry
from repro.simulation.distributed import (
    LocalFleet,
    QueuedJob,
    WorkQueue,
    execute_queued,
    queue_status,
    worker_loop,
)

SCENARIO = "fig7-mutuality"


def _params():
    return registry.get(SCENARIO).params_key(smoke=True)


def _tree(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


class TestSweepRemovalRace:
    def test_repair_and_worker_pass_leave_a_half_removed_sweep_alone(
        self, tmp_path
    ):
        """``rmtree`` empties a tree bottom-up: a scanner can find the
        manifest while ``tasks/`` is already gone.  Repairing it must
        neither crash the worker nor recreate anything."""
        queue = WorkQueue.create(
            tmp_path / "queue", SCENARIO, _params(), [1, 2, 3],
            [[1], [2], [3]],
        )
        shutil.rmtree(queue.sweep_dir / "tasks")
        before = _tree(queue.sweep_dir)
        assert queue.repair() == 0
        stats = worker_loop(tmp_path / "queue", None, drain=True)
        assert stats.tasks_done == 0 and stats.repairs == 0
        assert _tree(queue.sweep_dir) == before

    def test_cleanup_leaves_the_queue_in_one_step(self, tmp_path):
        queue = WorkQueue.create(
            tmp_path / "queue", SCENARIO, _params(), [1, 2], [[1], [2]],
        )
        queue.cleanup()
        queue.cleanup()  # idempotent
        assert list((tmp_path / "queue").iterdir()) == []

    def test_scanners_skip_a_sweep_mid_removal(self, tmp_path):
        queue = WorkQueue.create(
            tmp_path / "queue", SCENARIO, _params(), [1, 2], [[1], [2]],
        )
        queue.sweep_dir.rename(
            queue.sweep_dir.with_name(f".{queue.sweep_id}.removing-0")
        )
        assert WorkQueue.discover(tmp_path / "queue") == []
        assert queue_status(tmp_path / "queue") == []


class TestSharedFleet:
    def test_every_waiter_of_two_in_flight_jobs_is_woken(self, tmp_path):
        """With a 5 s poll, a coordinator that missed a wake — or a
        worker that only polls for new tasks — would outlast the bound:
        both jobs finish only if every waiter is woken."""
        spec = registry.get(SCENARIO)
        poll = 5.0
        queue_dir = tmp_path / "queue"

        def run(seeds):
            return execute_queued(
                [QueuedJob(SCENARIO, _params(), seeds)], workers=2,
                poll=poll, queue_dir=queue_dir, fleet=fleet,
            )[0]

        with LocalFleet(
            queue_dir, workers=2, poll=poll,
        ) as fleet:
            run((1, 2))  # forks the fleet; its workers then go idle
            pids = fleet.pids()
            outcomes = {}
            threads = [
                threading.Thread(
                    target=lambda seeds=seeds: outcomes.update(
                        {seeds: run(seeds)}
                    ),
                )
                for seeds in ((3, 4, 5), (6, 7, 8))
            ]
            began = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            elapsed = time.monotonic() - began
            assert fleet.pids() == pids  # the same resident workers
        assert elapsed < poll / 2
        for seeds, outcome in outcomes.items():
            for seed in seeds:
                assert outcome.results[seed] == spec.run(seed, smoke=True)
        assert len(outcomes) == 2

    def test_a_call_with_another_profile_gets_a_fleet_of_its_own(
        self, tmp_path
    ):
        spec = registry.get(SCENARIO)
        with LocalFleet(
            tmp_path / "resident", workers=1,
        ) as fleet:
            [outcome] = execute_queued(
                [QueuedJob(SCENARIO, _params(), (1, 2))], workers=2,
                queue_dir=tmp_path / "other", fleet=fleet,
            )
            assert fleet.pids() == []  # never forked: not its profile
        assert outcome.results[1] == spec.run(1, smoke=True)
        assert multiprocessing.active_children() == []

    def test_a_closed_fleet_aborts_its_waiting_coordinator(self, tmp_path):
        from repro.simulation.distributed import SweepAborted

        fleet = LocalFleet(tmp_path / "queue", workers=0)
        fleet.close()
        with pytest.raises(SweepAborted, match="closed"):
            execute_queued(
                [QueuedJob(SCENARIO, _params(), (1,))], workers=0,
                queue_dir=tmp_path / "queue", fleet=fleet,
            )
        assert list((tmp_path / "queue").iterdir()) == []


class TestFixedFleet:
    """The fleet keeps ``workers`` daemons alive: a tick reaps the dead
    and forks replacements, nothing ever shrinks it, and ``close``
    terminates every worker before joining any."""

    @staticmethod
    def _await_alive(fleet, count, deadline=10.0):
        end = time.monotonic() + deadline
        while fleet.alive() != count and time.monotonic() < end:
            time.sleep(0.01)
        return fleet.alive()

    def test_dead_workers_are_reaped_and_replaced_at_the_next_tick(
        self, tmp_path
    ):
        queue_dir = tmp_path / "queue"
        with LocalFleet(queue_dir, workers=2) as fleet:
            assert fleet.alive() == 0  # nothing forks before a tick
            fleet.tick()
            first = fleet.pids()
            assert len(first) == 2
            os.kill(first[0], signal.SIGKILL)
            assert self._await_alive(fleet, 1) == 1
            fleet.tick()
            second = fleet.pids()
            assert len(second) == 2
            assert first[0] not in second and first[1] in second
            # The queue is empty the whole time: it never shrinks the
            # fleet, and the fleet writes nothing into the queue dir.
            for _ in range(3):
                fleet.tick()
            time.sleep(fleet.poll * 4)
            assert fleet.pids() == second
            assert list(queue_dir.iterdir()) == []
        assert fleet.alive() == 0
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def fake_fork(self, monkeypatch):
        """Replace forked workers with inert fakes; yields the log of
        ``terminate``/``join`` calls and the list of spawned fakes."""
        calls, spawned = [], []

        class FakeProcess:
            def __init__(self, target, args, daemon):
                self.dead = False

            def start(self):
                self.pid = 1000 + len(spawned)
                spawned.append(self)

            def is_alive(self):
                return not self.dead

            def terminate(self):
                calls.append(("terminate", self))
                self.dead = True

            def join(self, timeout=None):
                calls.append(("join", self))

        monkeypatch.setattr(distributed._FORK, "Process", FakeProcess)
        return calls, spawned

    def test_first_tick_forks_exactly_workers_whatever_the_backlog(
        self, tmp_path, fake_fork
    ):
        _, spawned = fake_fork
        queue_dir = tmp_path / "queue"
        WorkQueue.create(
            queue_dir, SCENARIO, _params(), range(1, 41),
            [[seed] for seed in range(1, 41)],
        )
        fleet = LocalFleet(queue_dir, workers=2)
        fleet.tick()
        fleet.tick()
        assert fleet.pids() == [1000, 1001]
        assert len(spawned) == 2
        fleet.close()

    def test_close_terminates_every_worker_then_joins_them_all(
        self, tmp_path, fake_fork
    ):
        calls, spawned = fake_fork
        fleet = LocalFleet(tmp_path / "queue", workers=3)
        fleet.tick()
        fleet.tick()  # already full: forks nobody
        assert fleet.pids() == [1000, 1001, 1002]
        fleet.close()
        assert [kind for kind, _ in calls] == ["terminate"] * 3 + ["join"] * 3
        assert [process for _, process in calls] == spawned * 2
        assert fleet.alive() == 0
        fleet.tick()  # a closed fleet forks nothing
        assert len(spawned) == 3


class TestPerCallFleet:
    def test_sweep_distributed_leaves_no_child_thread_or_temp_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main([
            "sweep", SCENARIO, "--seeds", "4", "--workers", "2",
            "--smoke", "--distributed", "--no-cache",
        ]) == 0
        assert "distributed" in capsys.readouterr().out
        assert multiprocessing.active_children() == []
        assert not any(
            thread.name == "repro-fleet-progress"
            for thread in threading.enumerate()
        )
        assert list(tmp_path.glob("repro-queue-*")) == []
