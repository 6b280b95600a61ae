"""Durability tests: the ``--state-dir`` store, restart recovery, and
two servers sharing one state dir dispatching each job exactly once."""

import os
import socket
import threading
import time

import pytest

from repro.api import Client, ExecutionProfile, SweepSpec
from repro.fsproto import owner_id
from repro.service import JobStateStore, JobTable
from repro.service.jobs import JobRecord
from repro.simulation.sweep import execute_sweep

SPEC = SweepSpec("fig7-mutuality", seeds=[1], smoke=True)


def _seed_queued_job(store, job_id, spec=SPEC):
    """Journal a queued job the way a crashed server would have left it."""
    record = JobRecord(job_id, "sweep", [spec], None)
    store.save_job(record.to_persist_payload())
    return record


class _GateHandle:
    def __init__(self, client, spec):
        self.client = client
        self.spec = spec

    def result(self):
        with self.client.lock:
            self.client.started.append(self.spec)
        self.client.gate.wait(30.0)
        return self.client.outcome

    def cancel(self):
        return False


class _GateClient:
    """Deterministic client: ``result()`` parks on a shared gate."""

    def __init__(self, outcome, gate=None):
        self.profile = ExecutionProfile()
        self.outcome = outcome
        self.gate = gate if gate is not None else threading.Event()
        self.lock = threading.Lock()
        self.started = []

    def submit(self, spec, profile=None):
        return _GateHandle(self, spec)

    def submit_campaign(self, specs, profile=None):
        return _GateHandle(self, tuple(specs))


@pytest.fixture(scope="module")
def one_seed_sweep():
    return execute_sweep(SPEC, ExecutionProfile(no_cache=True))


class TestJobStateStore:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        payload = {"id": "job-000001", "state": "queued", "kind": "sweep"}
        store.save_job(payload)
        assert store.load_job("job-000001") == payload
        assert store.load_job("job-999999") is None

    def test_recover_jobs_sorted_and_garbage_tolerant(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        store.save_job({"id": "job-000002", "state": "queued"})
        store.save_job({"id": "job-000001", "state": "done"})
        # Corrupt JSON and an id-mismatched file must both be skipped.
        (tmp_path / "state" / "jobs" / "job-000003.json").write_text(
            "{not json"
        )
        store.save_job({"id": "job-000004", "state": "queued"})
        (tmp_path / "state" / "jobs" / "job-000004.json").rename(
            tmp_path / "state" / "jobs" / "job-000005.json"
        )
        recovered = store.recover_jobs()
        assert [entry["id"] for entry in recovered] == [
            "job-000001", "job-000002",
        ]

    def test_max_job_number_ignores_foreign_ids(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        assert store.max_job_number() == 0
        store.save_job({"id": "job-000007", "state": "queued"})
        store.save_job({"id": "task-000099", "state": "queued"})
        assert store.max_job_number() == 7

    def test_result_round_trip(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        store.save_result("job-000001", {"scenario": "fig7-mutuality"})
        assert store.load_result("job-000001") == {
            "scenario": "fig7-mutuality"
        }
        assert store.load_result("job-000002") is None

    def test_claim_is_exclusive_between_stores(self, tmp_path):
        first = JobStateStore(tmp_path / "state")
        second = JobStateStore(tmp_path / "state")
        assert first.claim("job-000001") is True
        # Same live process owns the lease: the second store loses.
        assert second.claim("job-000001") is False
        assert first.lease_owner("job-000001") == first.owner

    def test_claim_steals_a_dead_owners_lease(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        lease = tmp_path / "state" / "leases" / "job-000001.lease"
        # Same host, provably dead pid: dead evidence, stolen at once.
        lease.write_text(f"{socket.gethostname()}:999999999:gone")
        assert store.lease_live("job-000001") is False
        assert store.claim("job-000001") is True
        assert store.lease_owner("job-000001") == store.owner

    def test_cross_host_lease_lives_by_heartbeat_mtime(self, tmp_path):
        store = JobStateStore(tmp_path / "state", lease_ttl=5.0)
        lease = tmp_path / "state" / "leases" / "job-000001.lease"
        lease.write_text("elsewhere:1234:remote")
        # Fresh mtime: live, unclaimable.
        assert store.lease_live("job-000001") is True
        assert store.claim("job-000001") is False
        # Backdated past the steal threshold: dead, stealable.
        stale = lease.stat().st_mtime - 60.0
        os.utime(lease, (stale, stale))
        assert store.lease_live("job-000001") is False
        assert store.claim("job-000001") is True

    def test_touch_owned_leases_refreshes_only_our_mtimes(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        assert store.claim("job-000001") is True
        leases = tmp_path / "state" / "leases"
        ours = leases / "job-000001.lease"
        theirs = leases / "job-000002.lease"
        theirs.write_text("elsewhere:1234:remote")
        old = ours.stat().st_mtime - 60.0
        os.utime(ours, (old, old))
        os.utime(theirs, (old, old))
        store.touch_owned_leases()
        assert ours.stat().st_mtime > old + 30.0
        assert theirs.stat().st_mtime == pytest.approx(old)

    def test_missing_lease_is_not_live(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        assert store.lease_live("job-000001") is False

    def test_owner_identity_shape(self, tmp_path):
        owner = owner_id()
        host, pid, token = owner.split(":")
        assert host == socket.gethostname()
        assert int(pid) == os.getpid()
        assert token
        assert JobStateStore(tmp_path / "state").owner != owner
        store = JobStateStore(tmp_path / "state", owner="h:1:x")
        assert store.owner == "h:1:x"

    def test_rejects_non_positive_ttl(self, tmp_path):
        with pytest.raises(ValueError):
            JobStateStore(tmp_path / "state", lease_ttl=0)

    def test_reserve_job_id_is_exclusive_between_stores(self, tmp_path):
        first = JobStateStore(tmp_path / "state")
        second = JobStateStore(tmp_path / "state")
        assert first.reserve_job_id(1) == "job-000001"
        assert second.reserve_job_id(1) is None
        assert second.reserve_job_id(2) == "job-000002"
        # The placeholder counts for allocation but is not a job yet.
        assert first.max_job_number() == 2
        assert first.recover_jobs() == []


class TestLeaseHygiene:
    def test_steal_restores_a_displaced_live_lease(
        self, tmp_path, monkeypatch
    ):
        """The TOCTOU window: stealer B judges the lease dead, then a
        racing stealer A completes its steal (fresh live lease) before
        B's rename lands.  B must put A's lease back, not claim."""
        state = tmp_path / "state"
        a = JobStateStore(state)
        b = JobStateStore(state)
        assert a.claim("job-000001") is True
        # Freeze B's pre-rename verdict at "dead" to reproduce the
        # stale read; the post-rename tombstone check must still see
        # A's live lease and abort.
        monkeypatch.setattr(b, "lease_live", lambda job_id: False)
        assert b.claim("job-000001") is False
        assert a.lease_owner("job-000001") == a.owner
        assert list((state / "leases").glob("*.stale-*")) == []
        # The restored lease is the same inode: A's heartbeat works.
        old = (state / "leases" / "job-000001.lease").stat().st_mtime - 60
        os.utime(state / "leases" / "job-000001.lease", (old, old))
        a.touch_owned_leases()
        mtime = (state / "leases" / "job-000001.lease").stat().st_mtime
        assert mtime > old + 30.0

    def test_successful_steal_leaves_no_tombstone(self, tmp_path):
        store = JobStateStore(tmp_path / "state")
        lease = tmp_path / "state" / "leases" / "job-000001.lease"
        lease.write_text(f"{socket.gethostname()}:999999999:gone")
        assert store.claim("job-000001") is True
        assert list(
            (tmp_path / "state" / "leases").glob("*.stale-*")
        ) == []

    def test_release_unlinks_only_the_owned_lease(self, tmp_path):
        state = tmp_path / "state"
        a = JobStateStore(state)
        b = JobStateStore(state)
        assert a.claim("job-000001") is True
        lease = state / "leases" / "job-000001.lease"
        b.release("job-000001")  # not B's to drop
        assert lease.exists()
        a.release("job-000001")
        assert not lease.exists()
        a.release("job-000001")  # idempotent on a missing lease

    def test_discard_lease_drops_any_owner(self, tmp_path):
        state = tmp_path / "state"
        store = JobStateStore(state)
        lease = state / "leases" / "job-000001.lease"
        lease.write_text("elsewhere:1234:remote")
        store.discard_lease("job-000001")
        assert not lease.exists()

    def test_sweep_drops_terminal_leases_and_old_tombstones(
        self, tmp_path
    ):
        state = tmp_path / "state"
        store = JobStateStore(state)
        leases = state / "leases"
        (leases / "job-000001.lease").write_text("elsewhere:1:x")
        (leases / "job-000002.lease").write_text("elsewhere:2:y")
        old_stone = leases / "job-000003.lease.stale-dead"
        old_stone.write_text("elsewhere:3:z")
        stale = old_stone.stat().st_mtime - 120.0
        os.utime(old_stone, (stale, stale))
        fresh_stone = leases / "job-000004.lease.stale-racing"
        fresh_stone.write_text("elsewhere:4:w")

        store.sweep_stale_leases(["job-000001"])
        assert not (leases / "job-000001.lease").exists()
        assert (leases / "job-000002.lease").exists()  # not terminal
        assert not old_stone.exists()
        assert fresh_stone.exists()  # a steal could still be examining it


class TestRestartRecovery:
    def test_terminal_jobs_survive_and_ids_resume(self, tmp_path):
        state = tmp_path / "state"
        table = JobTable(
            Client(ExecutionProfile(no_cache=True)),
            store=JobStateStore(state),
        )
        record = table.submit_sweep(SPEC)
        assert record.wait(60.0)
        payload = record.result_payload()
        table.close(wait=True, timeout=5.0)

        revived = JobTable(
            Client(ExecutionProfile(no_cache=True)),
            store=JobStateStore(state),
        )
        try:
            jobs = revived.jobs()
            assert [job.job_id for job in jobs] == ["job-000001"]
            assert jobs[0].state() == "done"
            # done is journaled only after the result hits disk, so a
            # recovered terminal job always has its payload to serve.
            assert jobs[0].result_payload() == payload
            fresh = revived.submit_sweep(SPEC)
            assert fresh.job_id == "job-000002"
            assert fresh.wait(60.0)
        finally:
            revived.close(wait=True, timeout=5.0)

    def test_running_at_crash_becomes_server_restart_failure(
        self, tmp_path
    ):
        state = tmp_path / "state"
        store = JobStateStore(state)
        payload = JobRecord(
            "job-000001", "sweep", [SPEC], None
        ).to_persist_payload()
        payload["state"] = "running"
        store.save_job(payload)
        # The crashed server's lease: same host, dead pid.
        (state / "leases" / "job-000001.lease").write_text(
            f"{socket.gethostname()}:999999999:gone"
        )

        table = JobTable(
            Client(ExecutionProfile(no_cache=True)),
            store=JobStateStore(state),
        )
        try:
            record = table.get("job-000001")
            assert record is not None
            assert record.wait(5.0) is True
            assert record.state() == "failed"
            error = record.status_payload()["error"]
            assert error["reason"] == "server_restart"
            assert error["error_type"] == "ServerRestartError"
            assert record.result_payload() is None
            # The verdict is journaled, so a third restart agrees.
            assert store.load_job("job-000001")["state"] == "failed"
        finally:
            table.close(wait=True, timeout=5.0)

    def test_running_under_a_live_owner_is_watched_passively(
        self, tmp_path
    ):
        state = tmp_path / "state"
        store = JobStateStore(state)
        payload = JobRecord(
            "job-000001", "sweep", [SPEC], None
        ).to_persist_payload()
        payload["state"] = "running"
        store.save_job(payload)
        # A live owner: this very process.
        (state / "leases" / "job-000001.lease").write_text(
            f"{socket.gethostname()}:{os.getpid()}:peer"
        )

        table = JobTable(
            Client(ExecutionProfile(no_cache=True)),
            store=JobStateStore(state),
        )
        try:
            record = table.get("job-000001")
            assert record.state() == "running"
            assert record.wait(0.3) is False
            # Not ours to spare: the owning server's dispatcher runs it.
            assert record.cancel() is False
            # The owner finishes: result first, then the done journal.
            store.save_result("job-000001", {"scenario": "fig7-mutuality"})
            payload["state"] = "done"
            store.save_job(payload)
            assert record.wait(5.0) is True
            assert record.state() == "done"
            assert record.result_payload() == {
                "scenario": "fig7-mutuality"
            }
        finally:
            table.close(wait=True, timeout=5.0)

    def test_passive_record_fails_over_when_the_owner_dies(
        self, tmp_path
    ):
        """A lease winner crashing after journaling ``running`` must not
        leave the surviving server's waiters hanging forever."""
        state = tmp_path / "state"
        store = JobStateStore(state)
        payload = JobRecord(
            "job-000001", "sweep", [SPEC], None
        ).to_persist_payload()
        payload["state"] = "running"
        store.save_job(payload)
        lease = state / "leases" / "job-000001.lease"
        # A live owner at recovery time: watched passively.
        lease.write_text(f"{socket.gethostname()}:{os.getpid()}:peer")

        table = JobTable(
            Client(ExecutionProfile(no_cache=True)),
            store=JobStateStore(state),
        )
        try:
            record = table.get("job-000001")
            assert record.state() == "running"
            # The owner dies mid-run: same host, provably dead pid.
            lease.write_text(f"{socket.gethostname()}:999999999:gone")
            assert record.wait(5.0) is True
            assert record.state() == "failed"
            error = record.status_payload()["error"]
            assert error["reason"] == "server_restart"
            # The verdict is journaled and the dead lease reaped.
            assert store.load_job("job-000001")["state"] == "failed"
            assert not lease.exists()
        finally:
            table.close(wait=True, timeout=5.0)

    def test_terminal_jobs_release_their_dispatch_leases(
        self, tmp_path, one_seed_sweep
    ):
        state = tmp_path / "state"
        client = _GateClient(one_seed_sweep)
        client.gate.set()
        table = JobTable(client, store=JobStateStore(state))
        try:
            record = table.submit_sweep(SPEC)
            assert record.wait(30.0) is True
            deadline = time.monotonic() + 5.0
            leases = state / "leases"
            # The lease drops right after execution returns.
            while list(leases.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert list(leases.iterdir()) == []
        finally:
            table.close(wait=True, timeout=5.0)

    def test_recovery_sweeps_a_crashed_servers_leases(self, tmp_path):
        state = tmp_path / "state"
        store = JobStateStore(state)
        done = JobRecord(
            "job-000001", "sweep", [SPEC], None
        ).to_persist_payload()
        done["state"] = "done"
        store.save_job(done)
        store.save_result("job-000001", {"scenario": "fig7-mutuality"})
        leases = state / "leases"
        (leases / "job-000001.lease").write_text("elsewhere:1:x")
        stone = leases / "job-000001.lease.stale-crashed"
        stone.write_text("elsewhere:2:y")
        old = stone.stat().st_mtime - 120.0
        os.utime(stone, (old, old))

        table = JobTable(
            Client(ExecutionProfile(no_cache=True)),
            store=JobStateStore(state),
        )
        try:
            assert not (leases / "job-000001.lease").exists()
            assert not stone.exists()
        finally:
            table.close(wait=True, timeout=5.0)

    def test_queued_at_crash_is_redispatched(
        self, tmp_path, one_seed_sweep
    ):
        state = tmp_path / "state"
        _seed_queued_job(JobStateStore(state), "job-000001")
        client = _GateClient(one_seed_sweep)
        client.gate.set()
        table = JobTable(client, store=JobStateStore(state))
        try:
            record = table.get("job-000001")
            assert record is not None
            assert record.wait(30.0) is True
            assert record.state() == "done"
            # The spec round-tripped through the journal intact.
            assert client.started == [SPEC]
        finally:
            table.close(wait=True, timeout=5.0)

    def test_unloadable_journal_entries_never_block_startup(
        self, tmp_path, one_seed_sweep
    ):
        state = tmp_path / "state"
        store = JobStateStore(state)
        _seed_queued_job(store, "job-000001")
        store.save_job({"id": "job-000002", "kind": "sweep",
                        "state": "queued",
                        "specs": [{"scenario": "fig99-nope"}]})
        client = _GateClient(one_seed_sweep)
        client.gate.set()
        table = JobTable(client, store=JobStateStore(state))
        try:
            assert [job.job_id for job in table.jobs()] == ["job-000001"]
            # Id allocation still clears the unloadable entry's number.
            fresh = table.submit_sweep(SPEC)
            assert fresh.job_id == "job-000003"
            assert fresh.wait(30.0)
        finally:
            table.close(wait=True, timeout=5.0)

    @pytest.mark.parametrize(
        "removed, backend",
        [({"schedule": None}, "distributed"),
         ({"autoscale": False, "min_workers": None, "max_workers": None},
          "distributed"),
         ({"compute": "vectorized"}, "distributed"),
         ({"backend": "thread"}, "process")],
        ids=["schedule", "fleet-sizing", "compute", "thread-backend"],
    )
    def test_journal_with_removed_profile_fields_recovers(
        self, tmp_path, one_seed_sweep, removed, backend
    ):
        """Journal entries written by older releases, by hand: their
        profiles carry fields the profile no longer declares, or the
        removed thread pool, which recovers on the process pool.  Every
        job still recovers with its state, result and profile."""
        state = tmp_path / "state"
        store = JobStateStore(state)
        profile = {
            "workers": 2, "backend": "distributed", "chunk_size": None,
            "cache_dir": None, "no_cache": True, "queue_dir": None,
            "lease_ttl": None, "max_attempts": None, "on_error": None,
            **removed,
        }
        for job_id, job_state in (("job-000001", "done"),
                                  ("job-000002", "failed"),
                                  ("job-000003", "queued")):
            store.save_job({
                "id": job_id, "kind": "sweep", "name": "", "state": job_state,
                "specs": [SPEC.to_payload()], "profile": profile,
                "error": (
                    {"error_type": "ValueError", "message": "boom"}
                    if job_state == "failed" else None
                ),
                "created": 1.0, "updated": 2.0,
            })
        store.save_result("job-000001", {"scenario": SPEC.scenario})
        client = _GateClient(one_seed_sweep)
        client.gate.set()
        table = JobTable(client, store=JobStateStore(state))
        try:
            done, failed, queued = (
                table.get(f"job-00000{n}") for n in (1, 2, 3)
            )
            assert done.state() == "done"
            assert done.result_payload() == {"scenario": SPEC.scenario}
            assert failed.state() == "failed"
            assert failed.status_payload()["error"]["message"] == "boom"
            assert queued.wait(30.0) is True
            assert queued.state() == "done"
            assert client.started == [SPEC]
            assert queued.profile == ExecutionProfile(
                workers=2, backend=backend, no_cache=True,
            )
        finally:
            table.close(wait=True, timeout=5.0)


class TestMultiServer:
    def test_two_tables_dispatch_each_job_exactly_once(
        self, tmp_path, one_seed_sweep
    ):
        state = tmp_path / "state"
        seed_store = JobStateStore(state)
        specs = [
            SweepSpec("fig7-mutuality", seeds=[seed], smoke=True)
            for seed in range(1, 7)
        ]
        for index, spec in enumerate(specs, start=1):
            _seed_queued_job(seed_store, f"job-{index:06d}", spec)

        gate = threading.Event()
        client_a = _GateClient(one_seed_sweep, gate)
        client_b = _GateClient(one_seed_sweep, gate)
        # Both tables recover the same six queued jobs and race for
        # dispatch leases while the gate keeps every handle parked.
        table_a = JobTable(
            client_a, parallel_jobs=2, store=JobStateStore(state)
        )
        table_b = JobTable(
            client_b, parallel_jobs=2, store=JobStateStore(state)
        )
        try:
            gate.set()
            for table in (table_a, table_b):
                for record in table.jobs():
                    assert record.wait(30.0), record.job_id
                    assert record.state() == "done"
            started = client_a.started + client_b.started
            # Exactly once each: six starts total, all seeds distinct.
            assert len(started) == len(specs)
            assert sorted(
                spec.seeds[0] for spec in started
            ) == [1, 2, 3, 4, 5, 6]
        finally:
            gate.set()
            table_a.close(wait=True, timeout=5.0)
            table_b.close(wait=True, timeout=5.0)

    def test_two_live_tables_never_mint_the_same_id(
        self, tmp_path, one_seed_sweep
    ):
        """Both tables seed their counters at 1 on an empty state dir;
        the O_EXCL reservation must still keep fresh ids disjoint."""
        state = tmp_path / "state"
        client_a = _GateClient(one_seed_sweep)
        client_b = _GateClient(one_seed_sweep)
        client_a.gate.set()
        client_b.gate.set()
        table_a = JobTable(client_a, store=JobStateStore(state))
        table_b = JobTable(client_b, store=JobStateStore(state))
        try:
            first = table_a.submit_sweep(SPEC)
            second = table_b.submit_sweep(SPEC)
            assert {first.job_id, second.job_id} == {
                "job-000001", "job-000002",
            }
            assert first.wait(30.0) and second.wait(30.0)
            # Each journal belongs to exactly its own job.
            store = JobStateStore(state)
            for record in (first, second):
                assert store.load_job(record.job_id)["id"] == record.job_id
        finally:
            table_a.close(wait=True, timeout=5.0)
            table_b.close(wait=True, timeout=5.0)

    def test_a_finished_jobs_vacated_lease_is_not_rerun(
        self, tmp_path, one_seed_sweep
    ):
        """Terminal jobs release their leases, so a claim on a finished
        job *succeeds* — the dispatcher must adopt the terminal journal
        instead of running the job a second time."""
        state = tmp_path / "state"
        store = JobStateStore(state)
        client = _GateClient(one_seed_sweep)
        client.gate.set()
        table = JobTable(client, store=store)
        try:
            # A queued record this table believes is still its work...
            record = JobRecord("job-000001", "sweep", [SPEC], None)
            record.store = store
            # ...that a peer already ran to completion and released.
            done = record.to_persist_payload()
            done["state"] = "done"
            store.save_result("job-000001", {"scenario": "fig7-mutuality"})
            store.save_job(done)

            assert table._claim(record) is False
            assert record.state() == "done"
            assert client.started == []
            assert list((state / "leases").iterdir()) == []
        finally:
            table.close(wait=True, timeout=5.0)

    def test_a_journaled_cancel_is_recovered_as_terminal(self, tmp_path):
        """A cancel journaled by another server survives recovery —
        the job is never re-dispatched as phantom queued work."""
        state = tmp_path / "state"
        store = JobStateStore(state)
        record = _seed_queued_job(store, "job-000001")
        cancelled = record.to_persist_payload()
        cancelled["state"] = "cancelled"
        cancelled["error"] = {
            "error_type": "CancelledError",
            "message": "job cancelled before it ran",
        }
        store.save_job(cancelled)

        table = JobTable(
            Client(ExecutionProfile(no_cache=True)),
            store=JobStateStore(state),
        )
        try:
            revived = table.get("job-000001")
            assert revived.wait(5.0) is True
            assert revived.state() == "cancelled"
        finally:
            table.close(wait=True, timeout=5.0)


class TestWaitWakeups:
    def test_local_bounded_wait_parks_once(self, tmp_path):
        """A store-backed but locally-owned record must not wake ~10x a
        second while a long-poll handler is parked on it."""
        record = JobRecord("job-000001", "sweep", [SPEC], None)
        record.store = JobStateStore(tmp_path / "state")
        sleeps = []
        inner = record._changed.wait

        def counted(timeout=None):
            sleeps.append(timeout)
            return inner(timeout)

        record._changed.wait = counted
        assert record.wait(0.4) is False
        assert len(sleeps) == 1

    def test_waiter_wakes_on_a_mid_wait_passive_flip(self, tmp_path):
        """Losing the dispatch race while a waiter is parked must move
        that waiter onto the journal, not strand it until timeout."""
        state = tmp_path / "state"
        store = JobStateStore(state)
        record = JobRecord("job-000001", "sweep", [SPEC], None)
        record.store = store
        store.save_job(record.to_persist_payload())
        # The winning peer's live lease (this very process).
        (state / "leases" / "job-000001.lease").write_text(
            f"{socket.gethostname()}:{os.getpid()}:peer"
        )
        outcomes = []
        waiter = threading.Thread(
            target=lambda: outcomes.append(record.wait(30.0))
        )
        waiter.start()
        time.sleep(0.2)
        record._mark_passive()
        payload = record.to_persist_payload()
        payload["state"] = "done"
        store.save_result("job-000001", {"scenario": "fig7-mutuality"})
        store.save_job(payload)
        waiter.join(5.0)
        assert not waiter.is_alive()
        assert outcomes == [True]
        assert record.state() == "done"
