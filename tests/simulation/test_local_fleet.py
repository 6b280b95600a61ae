"""The local worker fleet: one class for per-call and resident fleets.

Covers the sweep-removal race a resident fleet's workers hit on every
job (a cleanup racing a repair), the wake channel (every coordinator of
several in-flight jobs is woken, idle workers are rung on enqueue), and
that a per-call fleet leaves no process, thread or temp dir behind.
"""

import multiprocessing
import shutil
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.simulation import registry
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
            tmp_path / "queue", SCENARIO, _params(), [1, 2, 3], 1,
        )
        shutil.rmtree(queue.sweep_dir / "tasks")
        before = _tree(queue.sweep_dir)
        assert queue.repair() == 0
        stats = worker_loop(tmp_path / "queue", None, drain=True)
        assert stats.tasks_done == 0 and stats.repairs == 0
        assert _tree(queue.sweep_dir) == before

    def test_cleanup_leaves_the_queue_in_one_step(self, tmp_path):
        queue = WorkQueue.create(
            tmp_path / "queue", SCENARIO, _params(), [1, 2], 1,
        )
        queue.cleanup()
        queue.cleanup()  # idempotent
        assert list((tmp_path / "queue").iterdir()) == []

    def test_scanners_skip_a_sweep_mid_removal(self, tmp_path):
        queue = WorkQueue.create(
            tmp_path / "queue", SCENARIO, _params(), [1, 2], 1,
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
                chunk_size=1, poll=poll, queue_dir=queue_dir, fleet=fleet,
            )[0]

        with LocalFleet(
            queue_dir, min_workers=2, max_workers=2, poll=poll,
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
            tmp_path / "resident", min_workers=1, max_workers=1,
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

        fleet = LocalFleet(tmp_path / "queue", min_workers=0, max_workers=0)
        fleet.close()
        with pytest.raises(SweepAborted, match="closed"):
            execute_queued(
                [QueuedJob(SCENARIO, _params(), (1,))], workers=0,
                queue_dir=tmp_path / "queue", fleet=fleet,
            )
        assert list((tmp_path / "queue").iterdir()) == []


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
