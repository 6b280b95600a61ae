"""The shared file protocols: liveness, exclusive creates, publishes and
the lease steal every shared directory in the repo is built on."""

import ast
import io
import json
import os
import socket
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import fsproto

TTL = 5.0
HOST = socket.gethostname()
STALE = fsproto.lease_steal_threshold(TTL) + 30.0


def _lease(path, owner, age=0.0):
    path.write_text(owner)
    mtime = time.time() - age
    os.utime(path, (mtime, mtime))
    return path


class TestLiveness:
    @pytest.mark.parametrize("owner, age, live", [
        # Same host, dead pid: dead at once, however fresh the mtime.
        pytest.param(f"{HOST}:999999999:gone", 0.0, False,
                     id="same-host-dead-pid"),
        pytest.param(f"{HOST}:999999999", 0.0, False,
                     id="same-host-dead-pid-no-token"),
        # Same host, live pid, stale mtime: a wedged owner (the
        # hang:<seed> chaos path) is dead once its heartbeat stops.
        pytest.param(f"{HOST}:{os.getpid()}:wedged", STALE, False,
                     id="same-host-live-pid-stale"),
        pytest.param(f"{HOST}:{os.getpid()}:busy", 0.0, True,
                     id="same-host-live-pid-fresh"),
        pytest.param(f"{HOST}:{os.getpid()}", 0.0, True,
                     id="same-host-live-pid-no-token"),
        # A non-numeric pid field is not probed: the mtime decides.
        pytest.param(f"{HOST}:main:x", 0.0, True,
                     id="same-host-no-pid-fresh"),
        pytest.param(f"{HOST}:main:x", STALE, False,
                     id="same-host-no-pid-stale"),
        # Another host: no pid probe, the mtime decides.
        pytest.param("elsewhere:999999999:remote", 0.0, True,
                     id="other-host-fresh"),
        pytest.param("elsewhere:999999999:remote", STALE, False,
                     id="other-host-stale"),
        # Free-text `repro worker --worker-id` owners: mtime only.
        pytest.param("worker-7", 0.0, True, id="free-text-fresh"),
        pytest.param("worker-7", STALE, False, id="free-text-stale"),
        pytest.param("", 0.0, True, id="empty-owner-fresh"),
        # An mtime in the future (clock skew) is a fresh heartbeat.
        pytest.param(f"{HOST}:{os.getpid()}:skewed", -3600.0, True,
                     id="same-host-future-mtime"),
        pytest.param("worker-7", -3600.0, True,
                     id="free-text-future-mtime"),
    ])
    def test_liveness_table(self, tmp_path, owner, age, live):
        lease = _lease(tmp_path / "task.lease", owner, age)
        mtime = lease.stat().st_mtime
        assert fsproto.owner_live(owner, mtime, TTL) is live
        assert fsproto.lease_live(lease, TTL) is live

    @pytest.mark.parametrize("ttl, threshold", [
        (0.5, 0.55),  # short TTLs keep a proportional 10% margin
        (5.0, 5.5),
        (10.0, 11.0),  # the margin reaches its cap ...
        (600.0, 601.0),  # ... and stays there
    ])
    def test_steal_threshold_margin(self, ttl, threshold):
        assert fsproto.lease_steal_threshold(ttl) == pytest.approx(threshold)

    @pytest.mark.parametrize("age, live", [
        # Past the TTL but inside the skew margin: still live.
        pytest.param(TTL + 0.25, True, id="inside-margin"),
        pytest.param(TTL + 1.0, False, id="beyond-margin"),
    ])
    def test_skew_margin_boundary(self, tmp_path, age, live):
        lease = _lease(tmp_path / "task.lease", "worker-7", age)
        assert fsproto.lease_live(lease, TTL) is live

    def test_missing_lease_is_not_live(self, tmp_path):
        assert fsproto.lease_live(tmp_path / "none.lease", TTL) is False

    def test_owner_id_names_this_host_and_pid(self):
        host, pid, token = fsproto.owner_id().split(":")
        assert host == HOST and int(pid) == os.getpid() and token
        assert fsproto.owner_id() != fsproto.owner_id()


class TestExclusiveCreate:
    def test_one_winner_among_racing_creators(self, tmp_path):
        target = tmp_path / "marker"
        barrier = threading.Barrier(8)
        wins = []

        def create(index):
            barrier.wait()
            if fsproto.create_exclusive(target, f"creator-{index}"):
                wins.append(index)

        threads = [
            threading.Thread(target=create, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert target.read_text() == f"creator-{wins[0]}"

    def test_missing_parent_raises_and_creates_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fsproto.create_exclusive(tmp_path / "gone" / "marker")
        assert not (tmp_path / "gone").exists()


class TestPublish:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "state.json"
        fsproto.publish_json(target, {"a": [1, 2.5]})
        fsproto.publish_json(target, {"a": [3]})
        assert fsproto.read_json(target) == {"a": [3]}
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_failed_publish_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "state.json"
        fsproto.publish_json(target, {"version": 1})
        with pytest.raises(TypeError):
            fsproto.publish_json(target, {"bad": object()})
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        assert fsproto.read_json(target) == {"version": 1}

    def test_readers_never_see_a_partial_file(self, tmp_path):
        target = tmp_path / "state.json"
        fsproto.publish_json(target, {"n": 0, "pad": "x" * 4096})
        done = threading.Event()
        torn = []

        def read():
            while not done.is_set():
                payload = fsproto.read_json(target)
                if payload is None or len(payload["pad"]) != 4096:
                    torn.append(payload)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for n in range(1, 200):
                fsproto.publish_json(target, {"n": n, "pad": "x" * 4096})
        finally:
            done.set()
            reader.join()
        assert torn == []
        assert fsproto.read_json(target)["n"] == 199

    @pytest.mark.parametrize("writer", [
        "cache-series-entry", "cache-rates-entry", "done-marker",
        "journal-record",
    ])
    def test_bytes_match_the_streaming_encoder(self, tmp_path, writer):
        # publish_json encodes in one json.dumps call; the files must be
        # byte for byte what json.dump(payload, handle) would write.
        from repro.api import SweepSpec
        from repro.service import JobStateStore
        from repro.service.jobs import JobRecord
        from repro.simulation import registry
        from repro.simulation.cache import SweepCache
        from repro.simulation.distributed import WorkQueue, worker_loop
        from repro.simulation.results import RateSummary, SeriesResult

        root = tmp_path
        if writer == "cache-series-entry":
            values = [(k * 0.37) % 1.0 - 0.5 for k in range(300)]
            SweepCache(tmp_path).put(
                "a" * 64, SeriesResult("curve", values), scenario="s",
                seed=3, runtime=0.25,
            )
        elif writer == "cache-rates-entry":
            SweepCache(tmp_path).put(
                "b" * 64, RateSummary(0.1 + 0.2, 1 / 3, 0.0, 9), seed=1,
            )
        elif writer == "done-marker":
            name = "fig15-environment"
            params = registry.get(name).params_key(smoke=True)
            queue = WorkQueue.create(tmp_path, name, params, [1, 2], [[1, 2]])
            worker_loop(tmp_path, None, drain=True)
            root = queue.sweep_dir / "done"
        else:
            spec = SweepSpec("fig7-mutuality", seeds=[1, 2], smoke=True)
            JobStateStore(tmp_path).save_job(
                JobRecord("job-000001", "sweep", [spec], None)
                .to_persist_payload()
            )
            root = tmp_path / "jobs"
        (path,) = root.rglob("*.json")
        written = path.read_bytes()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed)
        assert written == streamed.getvalue().encode()

    def test_never_creates_the_parent(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fsproto.publish_json(tmp_path / "gone" / "x.json", {})
        assert not (tmp_path / "gone").exists()

    def test_unreadable_or_non_object_reads_as_none(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[1, 2]")
        assert fsproto.read_json(tmp_path / "bad.json") is None
        assert fsproto.read_json(tmp_path / "list.json") is None
        assert fsproto.read_json(tmp_path / "missing.json") is None


class TestLease:
    def test_missing_directory_raises_and_creates_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fsproto.claim_lease(tmp_path / "gone" / "task.lease", "a", TTL)
        assert not (tmp_path / "gone").exists()

    def test_live_verdict_leaves_the_lease_alone(self, tmp_path):
        lease = _lease(tmp_path / "task.lease", "dead", STALE)
        inode = lease.stat().st_ino
        taken = fsproto.claim_lease(
            lease, "thief", TTL, live=lambda: True, keep_tombstone=True,
        )
        assert taken is None
        assert lease.stat().st_ino == inode
        assert fsproto.lease_owner(lease) == "dead"
        assert [p.name for p in tmp_path.iterdir()] == ["task.lease"]

    def test_rename_lost_to_a_vanished_lease_claims_nothing(self, tmp_path):
        """The lease disappears between the verdict and the rename (its
        owner released it, or another stealer's rename won)."""
        lease = _lease(tmp_path / "task.lease", "dead", STALE)

        def stale_then_gone():
            lease.unlink()
            return False

        assert fsproto.claim_lease(
            lease, "thief", TTL, live=stale_then_gone,
        ) is None
        assert list(tmp_path.iterdir()) == []

    def test_robbed_owner_loses_heartbeat_and_release(self, tmp_path):
        lease = _lease(tmp_path / "task.lease", "owner", STALE)
        assert fsproto.claim_lease(lease, "thief", TTL) == "stolen"
        assert fsproto.heartbeat_lease(lease, "owner") is False
        fsproto.release_lease(lease, "owner")
        assert fsproto.lease_owner(lease) == "thief"
        assert fsproto.heartbeat_lease(lease, "thief") is True

    def test_released_lease_is_claimed_fresh(self, tmp_path):
        lease = tmp_path / "task.lease"
        assert fsproto.claim_lease(lease, "a", TTL) == "fresh"
        fsproto.release_lease(lease, "a")
        assert fsproto.claim_lease(lease, "b", TTL) == "fresh"
        assert fsproto.lease_owner(lease) == "b"

    def test_fresh_claim_then_live_holder_blocks(self, tmp_path):
        lease = tmp_path / "job.lease"
        assert fsproto.claim_lease(lease, "a", TTL) == "fresh"
        assert fsproto.claim_lease(lease, "b", TTL) is None
        assert fsproto.lease_owner(lease) == "a"

    @pytest.mark.parametrize("keep", [True, False])
    def test_steal_keeps_a_tombstone_only_when_asked(self, tmp_path, keep):
        lease = _lease(tmp_path / "task-0000.lease", "dead", STALE)
        taken = fsproto.claim_lease(lease, "thief", TTL, keep_tombstone=keep)
        assert taken == "stolen"
        assert fsproto.lease_owner(lease) == "thief"
        stones = list(tmp_path.glob("task-0000.stale-*"))
        assert len(stones) == (1 if keep else 0)

    def test_displaced_live_lease_is_put_back(self, tmp_path):
        lease = tmp_path / "task.lease"
        assert fsproto.claim_lease(lease, "owner", TTL) == "fresh"
        inode = lease.stat().st_ino
        # A stale verdict taken before the owner's claim landed.
        taken = fsproto.claim_lease(
            lease, "thief", TTL, live=lambda: False, keep_tombstone=True,
        )
        assert taken is None
        assert lease.stat().st_ino == inode
        assert fsproto.heartbeat_lease(lease, "owner") is True
        assert list(tmp_path.glob("*.stale-*")) == []

    def test_one_winner_among_racing_stealers(self, tmp_path):
        lease = _lease(tmp_path / "task.lease", "dead", STALE)
        barrier = threading.Barrier(8)
        results = {}

        def steal(index):
            barrier.wait()
            results[index] = fsproto.claim_lease(
                lease, f"thief-{index}", TTL, keep_tombstone=True,
            )

        threads = [
            threading.Thread(target=steal, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [i for i, taken in results.items() if taken is not None]
        # Exactly one claimer still holds the lease: any other winner
        # (a fresh claim in a displaced lease's vacancy) sees it lost.
        holders = [
            i for i in winners
            if fsproto.heartbeat_lease(lease, f"thief-{i}")
        ]
        assert len(holders) == 1
        assert fsproto.lease_owner(lease) == f"thief-{holders[0]}"

    def test_heartbeat_and_release_are_owner_checked(self, tmp_path):
        lease = _lease(tmp_path / "task.lease", "owner", STALE)
        assert fsproto.heartbeat_lease(lease, "thief") is False
        assert time.time() - lease.stat().st_mtime > TTL
        assert fsproto.heartbeat_lease(lease, "owner") is True
        assert time.time() - lease.stat().st_mtime < TTL
        fsproto.release_lease(lease, "thief")
        assert lease.exists()
        fsproto.release_lease(lease, "owner")
        assert not lease.exists()
        assert fsproto.heartbeat_lease(lease, "owner") is False
        fsproto.release_lease(lease, "owner")  # idempotent


class TestOneImplementation:
    """Every atomic-rename, hard-link and exclusive-create primitive in
    the package goes through this module."""

    @pytest.mark.parametrize("module, name", [
        ("os", "rename"),
        ("os", "link"),
        ("os", "replace"),
        ("os", "O_EXCL"),
        ("tempfile", "NamedTemporaryFile"),
        ("tempfile", "mkstemp"),
    ])
    def test_primitive_used_only_in_fsproto(self, module, name):
        package = Path(repro.__file__).parent
        users = []
        for path in sorted(package.rglob("*.py")):
            if path.name == "fsproto.py" and path.parent == package:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and (
                    node.attr == name
                    and isinstance(node.value, ast.Name)
                    and node.value.id == module
                ):
                    users.append(f"{path.relative_to(package)}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) and (
                    node.module == module
                    and any(alias.name == name for alias in node.names)
                ):
                    users.append(f"{path.relative_to(package)}:{node.lineno}")
        assert users == []
