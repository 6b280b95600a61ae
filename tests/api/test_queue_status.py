"""Queue observability: pending/leased/done, lease ages, steal history,
quarantined seeds — and robustness to files caught mid-write."""

import json
import os
import threading

from repro.simulation import registry
from repro.simulation.distributed import (
    WorkQueue,
    queue_status,
    worker_loop,
)

SCENARIO = "fig15-environment"


def _stage(queue_dir, seeds=(1, 2, 3), spec_payload=None):
    spec = registry.get(SCENARIO)
    return WorkQueue.create(
        queue_dir, SCENARIO, spec.params_key(smoke=True), list(seeds),
        [[seed] for seed in seeds], spec_payload=spec_payload,
    )


class TestQueueStatus:
    def test_empty_directory_reports_nothing(self, tmp_path):
        assert queue_status(tmp_path) == []
        assert queue_status(tmp_path / "missing") == []

    def test_fresh_sweep_is_all_pending(self, tmp_path):
        _stage(tmp_path)
        (status,) = queue_status(tmp_path)
        assert status.scenario == SCENARIO
        assert status.tasks == 3
        assert status.done == 0
        assert status.pending == 3
        assert status.leased == ()
        assert status.steals == 0 and status.repairs == 0
        assert not status.complete
        assert status.version_match

    def test_live_lease_shows_owner_and_age(self, tmp_path):
        queue = _stage(tmp_path)
        claim = queue.claim("task-0001", "worker-abc")
        assert claim is not None
        (status,) = queue_status(tmp_path)
        assert status.pending == 2
        (lease,) = status.leased
        assert lease.task_id == "task-0001"
        assert lease.owner == "worker-abc"
        assert lease.age_seconds >= 0.0

    def test_steal_history_names_the_stolen_task(self, tmp_path):
        queue = _stage(tmp_path)
        claim = queue.claim("task-0000", "dead-worker")
        assert claim is not None
        # Back-date the heartbeat so the lease looks abandoned...
        os.utime(claim.lease_path, (1, 1))
        # ...and let another worker steal and finish everything.
        stats = worker_loop(tmp_path, None, drain=True, lease_ttl=5.0)
        assert stats.steals == 1
        (status,) = queue_status(tmp_path)
        assert status.complete
        assert status.done == 3 and status.pending == 0
        assert status.steals == 1
        assert status.steal_events == ("task-0000",)
        assert status.requeues == 1

    def test_spec_payload_rides_in_the_manifest(self, tmp_path):
        payload = {
            "scenario": SCENARIO, "seeds": [1, 2, 3],
            "smoke": True, "overrides": {},
        }
        _stage(tmp_path, spec_payload=payload)
        (status,) = queue_status(tmp_path)
        assert status.spec == payload

    def test_version_skew_is_flagged(self, tmp_path):
        queue = _stage(tmp_path)
        manifest_path = queue.sweep_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["code_version"] = "0000000000000000"
        manifest_path.write_text(json.dumps(manifest))
        (status,) = queue_status(tmp_path)
        assert not status.version_match

    def test_payload_is_json_safe(self, tmp_path):
        queue = _stage(tmp_path)
        queue.claim("task-0002", "w1")
        (status,) = queue_status(tmp_path)
        text = json.dumps(status.to_payload())
        decoded = json.loads(text)
        assert decoded["pending"] == 2
        assert decoded["leased"][0]["owner"] == "w1"

    def test_quarantined_seeds_are_reported(self, tmp_path, monkeypatch):
        _stage(tmp_path, seeds=(1, 2))
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        worker_loop(tmp_path, None, drain=True)
        (status,) = queue_status(tmp_path)
        assert status.complete  # quarantine still drains the sweep
        (record,) = status.quarantined
        assert record.seed == 2
        assert record.task_id == "task-0001"
        assert record.error_type == "InjectedFaultError"
        assert record.attempts >= 1
        payload = json.loads(json.dumps(status.to_payload()))
        assert payload["quarantined"][0]["seed"] == 2


class TestScanRaces:
    def test_partially_written_done_marker_counts_as_pending(
        self, tmp_path
    ):
        queue = _stage(tmp_path)
        # A non-atomic writer caught mid-write: truncated JSON.
        (queue.sweep_dir / "done" / "task-0000.json").write_text(
            '{"task": "task-0000", "resul'
        )
        (status,) = queue_status(tmp_path)
        assert status.done == 0
        assert status.pending == 3
        assert not status.complete

    def test_half_written_manifest_is_skipped_not_fatal(self, tmp_path):
        _stage(tmp_path)
        bogus = tmp_path / "sweep-deadbeef-00000000"
        bogus.mkdir()
        (bogus / "manifest.json").write_text('{"sweep": "sweep-dead')
        (status,) = queue_status(tmp_path)  # only the real sweep
        assert status.tasks == 3

    def test_status_never_crashes_against_concurrent_writers(
        self, tmp_path
    ):
        """The regression: a task/done/quarantine file being (re)written
        concurrently must read as pending, never raise mid-scan."""
        queue = _stage(tmp_path)
        done = queue.sweep_dir / "done" / "task-0001.json"
        quarantine = queue.sweep_dir / "quarantine" / "t.seed-2.json"
        payloads = [
            '{"task": "task-0001", "results": {}}',
            '{"sweep": "s", "task": "t", "failure": {"seed": 2, '
            '"error_type": "E", "message": "m", "attempts": 1}}',
        ]
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                for path, text in ((done, payloads[0]),
                                   (quarantine, payloads[1])):
                    for cut in (7, len(text)):  # partial, then whole
                        try:
                            path.write_text(text[:cut])
                        except OSError:  # pragma: no cover
                            pass
                for path in (done, quarantine):
                    try:
                        path.unlink()
                    except OSError:
                        pass

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                (status,) = queue_status(tmp_path)
                assert status.done in (0, 1)
                assert status.done + status.pending == status.tasks
                assert len(status.quarantined) in (0, 1)
        except Exception as error:  # pragma: no cover
            errors.append(error)
        finally:
            stop.set()
            thread.join()
        assert not errors
