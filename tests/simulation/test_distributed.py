"""Unit tests for the shared-directory distributed sweep queue.

The lease protocol (exclusive claims, heartbeats, steals), the task
sharding, the worker loop and the coordinator are each pinned here at
the file level; the fault-injection suite and the equivalence suite
cover the end-to-end crash and bit-identity contracts.
"""

import base64
import json
import math
import os
import shutil
import socket
import struct
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.simulation import registry
from repro.simulation.cache import SweepCache
from repro.simulation.results import SeriesResult
from repro.fsproto import owner_id
from repro.simulation.distributed import (
    QueuedJob,
    WorkQueue,
    execute_queued,
    params_signature,
    worker_loop,
)
from repro.simulation.sweep import execute_sweep, seed_range

SCENARIO = "fig15-environment"


def _make_queue(tmp_path, seeds=(1, 2, 3, 4), chunk_size=2):
    spec = registry.get(SCENARIO)
    params = spec.params_key(smoke=True)
    return WorkQueue.create(
        tmp_path / "queue", SCENARIO, params, list(seeds), chunk_size
    )


class TestParamsSignature:
    def test_order_independent(self):
        a = params_signature({"x": 1, "y": [1, 2], "z": "s"})
        b = params_signature({"z": "s", "y": [1, 2], "x": 1})
        assert a == b

    def test_round_trips_through_json(self):
        spec = registry.get("fig16-light")
        params = spec.params_key(smoke=True)  # contains nested tuples
        wire = json.loads(json.dumps([[k, v] for k, v in params]))
        assert params_signature(wire) == params

    def test_rehydrated_params_key_cache_keys_match(self):
        for name in registry.names():
            spec = registry.get(name)
            params = spec.params_key(smoke=True)
            wire = json.loads(json.dumps([[k, v] for k, v in params]))
            assert SweepCache.key(name, params_signature(wire), 7) == (
                SweepCache.key(name, params, 7)
            )


class TestWorkQueueLayout:
    def test_create_shards_contiguous_chunks(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(5, 6, 7, 8, 9), chunk_size=2)
        chunks = queue.manifest["chunks"]
        assert list(chunks.values()) == [[5, 6], [7, 8], [9]]
        assert queue.task_ids() == sorted(chunks)
        for task_id in queue.task_ids():
            task = queue.read_task(task_id)
            assert task["scenario"] == SCENARIO
            assert task["seeds"] == chunks[task_id]

    def test_manifest_records_code_version(self, tmp_path):
        from repro.simulation.cache import code_version

        queue = _make_queue(tmp_path)
        assert queue.manifest["code_version"] == code_version()

    def test_discover_finds_created_sweeps(self, tmp_path):
        queue = _make_queue(tmp_path)
        found = WorkQueue.discover(tmp_path / "queue")
        assert [q.sweep_id for q in found] == [queue.sweep_id]

    def test_discover_skips_junk_entries(self, tmp_path):
        queue = _make_queue(tmp_path)
        (tmp_path / "queue" / "not-a-sweep").mkdir()
        (tmp_path / "queue" / "stray.txt").write_text("junk")
        # The scaling log an older version's elastic fleet left behind.
        (tmp_path / "queue" / "autoscale-events.jsonl").write_text(
            '{"tick": 0, "action": "spawn", "from": 0, "to": 3}\n'
        )
        assert len(WorkQueue.discover(tmp_path / "queue")) == 1
        # The junk never stops the queue from draining and collecting.
        stats = worker_loop(tmp_path / "queue", None, drain=True)
        assert stats.tasks_done == 2
        results, failures, _ = queue.collect()
        spec = registry.get(SCENARIO)
        assert results == {
            seed: spec.run(seed, smoke=True) for seed in (1, 2, 3, 4)
        }
        assert failures == {}

    def test_empty_seed_list_rejected(self, tmp_path):
        spec = registry.get(SCENARIO)
        with pytest.raises(ValueError, match="at least one seed"):
            WorkQueue.create(
                tmp_path, SCENARIO, spec.params_key(smoke=True), [], 1
            )


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        queue = _make_queue(tmp_path)
        first = queue.claim("task-0000", "alice")
        second = queue.claim("task-0000", "bob")
        assert first is not None and not first.stolen
        assert second is None

    def test_release_reopens_the_task(self, tmp_path):
        queue = _make_queue(tmp_path)
        claim = queue.claim("task-0000", "alice")
        queue.release(claim)
        again = queue.claim("task-0000", "bob")
        assert again is not None and not again.stolen

    def test_fresh_lease_cannot_be_stolen(self, tmp_path):
        queue = _make_queue(tmp_path)
        assert queue.claim("task-0000", "alice", lease_ttl=30.0)
        assert queue.claim("task-0000", "bob", lease_ttl=30.0) is None
        assert queue.counters().steals == 0

    def test_expired_lease_is_stolen_once(self, tmp_path):
        queue = _make_queue(tmp_path)
        claim = queue.claim("task-0000", "alice")
        # Back-date the heartbeat: the owner is presumed dead.
        past = time.time() - 3600
        os.utime(claim.lease_path, (past, past))
        stolen = queue.claim("task-0000", "bob", lease_ttl=1.0)
        assert stolen is not None and stolen.stolen
        assert stolen.lease_path.read_text() == "bob"
        # The new lease is fresh again; a third claimer is locked out.
        assert queue.claim("task-0000", "carol", lease_ttl=1.0) is None
        assert queue.counters().steals == 1

    def test_heartbeat_refreshes_and_detects_theft(self, tmp_path):
        queue = _make_queue(tmp_path)
        claim = queue.claim("task-0000", "alice")
        past = time.time() - 3600
        os.utime(claim.lease_path, (past, past))
        assert queue.heartbeat(claim)  # still ours: mtime refreshed
        assert time.time() - claim.lease_path.stat().st_mtime < 60
        stolen = queue.claim("task-0000", "bob", lease_ttl=1.0)
        assert stolen is None  # heartbeat revived it
        # Simulate an actual theft: someone else's owner id in the file.
        claim.lease_path.write_text("mallory")
        assert not queue.heartbeat(claim)

    def test_concurrent_claimers_one_winner(self, tmp_path):
        queue = _make_queue(tmp_path)
        barrier = threading.Barrier(8)
        wins = []

        def contend(name):
            barrier.wait()
            claim = queue.claim("task-0000", name)
            if claim is not None:
                wins.append(name)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1

    def test_racing_stealers_steal_a_dead_lease_once(
        self, tmp_path, monkeypatch
    ):
        """Stealer B judges the dead lease stale, then stealer A
        finishes its whole steal before B's rename lands.  B displaces
        A's fresh lease, must put it back and lose: A keeps heartbeating
        and the history records one steal for one dead worker."""
        queue = _make_queue(tmp_path)
        dead = queue.claim("task-0000", "dead-worker")
        past = time.time() - 3600
        os.utime(dead.lease_path, (past, past))
        a = WorkQueue.open(queue.sweep_dir)
        b = WorkQueue.open(queue.sweep_dir)
        real_rename = os.rename
        stolen_by_a = []

        def rename_after_a_steals(src, dst):
            # B's verdict is frozen at "stale": A steals in between.
            if not stolen_by_a:
                monkeypatch.setattr(os, "rename", real_rename)
                stolen_by_a.append(
                    a.claim("task-0000", "stealer-a", lease_ttl=5.0)
                )
                monkeypatch.setattr(os, "rename", rename_after_a_steals)
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", rename_after_a_steals)
        assert b.claim("task-0000", "stealer-b", lease_ttl=5.0) is None
        monkeypatch.setattr(os, "rename", real_rename)
        [claim_a] = stolen_by_a
        assert claim_a is not None and claim_a.stolen
        assert a.heartbeat(claim_a) is True
        assert queue.counters().steals == 1

    def test_dead_same_host_worker_is_stolen_at_once(self, tmp_path):
        """A worker on this host whose pid is gone loses its lease even
        while the lease mtime is fresh; a live one keeps it."""
        queue = _make_queue(tmp_path)
        live = queue.claim("task-0000", owner_id(), lease_ttl=30.0)
        assert queue.claim("task-0000", "bob", lease_ttl=30.0) is None
        queue.release(live)
        dead = f"{socket.gethostname()}:999999999:gone"
        assert queue.claim("task-0000", dead, lease_ttl=30.0)
        stolen = queue.claim("task-0000", "bob", lease_ttl=30.0)
        assert stolen is not None and stolen.stolen
        assert queue.counters().steals == 1

    def test_claim_of_done_task_is_refused(self, tmp_path):
        queue = _make_queue(tmp_path)
        queue.mark_done("task-0000", {"results": {}})
        assert queue.claim("task-0000", "alice") is None
        # And the probe lease did not linger.
        assert not (queue.sweep_dir / "leases" / "task-0000.lease").exists()


class TestRepair:
    def test_corrupt_task_file_rewritten_from_manifest(self, tmp_path):
        queue = _make_queue(tmp_path)
        path = queue.sweep_dir / "tasks" / "task-0001.json"
        original = queue.read_task("task-0001")
        path.write_text("{definitely not json")
        assert queue.read_task("task-0001") is None
        assert queue.repair() == 1
        assert queue.read_task("task-0001") == original
        assert queue.counters().repairs == 1
        assert queue.counters().requeues == 1

    def test_missing_task_file_rewritten(self, tmp_path):
        queue = _make_queue(tmp_path)
        (queue.sweep_dir / "tasks" / "task-0000.json").unlink()
        assert queue.repair() == 1
        assert queue.read_task("task-0000") is not None

    def test_identical_corruption_repaired_concurrently_counts_once(
        self, tmp_path
    ):
        queue = _make_queue(tmp_path)
        path = queue.sweep_dir / "tasks" / "task-0000.json"
        path.write_text("garbage")
        assert queue.repair() == 1
        # A second repairer that raced on the same corrupt bytes finds
        # the content-keyed marker and does not double-count.
        path.write_text("garbage")
        assert queue.repair() == 0
        assert queue.counters().repairs == 1

    def test_done_tasks_never_repaired(self, tmp_path):
        queue = _make_queue(tmp_path)
        queue.mark_done("task-0000", {"results": {}})
        (queue.sweep_dir / "tasks" / "task-0000.json").write_text("junk")
        assert queue.repair() == 0

    def test_sweep_dir_removed_after_discover_is_left_alone(
        self, tmp_path
    ):
        """The coordinator's cleanup (or another job's) may remove a
        sweep dir any worker already discovered: repair must neither
        raise nor recreate anything inside it."""
        _make_queue(tmp_path)
        [queue] = WorkQueue.discover(tmp_path / "queue")
        shutil.rmtree(queue.sweep_dir)
        assert queue.repair() == 0
        assert not queue.sweep_dir.exists()


class TestVanishedSweepDir:
    """Every write into a removed sweep dir fails loudly and recreates
    nothing: the worker pass reads the FileNotFoundError as "gone"."""

    @pytest.mark.parametrize("write", [
        pytest.param(lambda q: q.claim("task-0000", "alice"), id="claim"),
        pytest.param(lambda q: q.mark_done("task-0000", {"results": {}}),
                     id="mark_done"),
        pytest.param(lambda q: q.record_attempt("task-0000", 1),
                     id="record_attempt"),
        pytest.param(lambda q: q.quarantine_seed("task-0000", 1, {}),
                     id="quarantine_seed"),
    ])
    def test_write_raises_and_recreates_nothing(self, tmp_path, write):
        queue = _make_queue(tmp_path)
        shutil.rmtree(queue.sweep_dir)
        with pytest.raises(FileNotFoundError):
            write(queue)
        assert not queue.sweep_dir.exists()

    def test_attempt_failure_record_is_best_effort(self, tmp_path):
        queue = _make_queue(tmp_path)
        shutil.rmtree(queue.sweep_dir)
        queue.record_attempt_failure("task-0000", 1, 1, {"error": "x"})
        assert not queue.sweep_dir.exists()


class TestWorkerLoop:
    def test_drain_completes_queue_with_oracle_results(self, tmp_path):
        spec = registry.get(SCENARIO)
        queue = _make_queue(tmp_path, seeds=(1, 2, 3), chunk_size=2)
        stats = worker_loop(
            tmp_path / "queue", tmp_path / "cache", drain=True
        )
        assert stats.tasks_done == 2
        assert stats.seeds_run == 3
        assert queue.is_complete()
        results, _, totals = queue.collect()
        for seed in (1, 2, 3):
            assert results[seed] == spec.run(seed, smoke=True)
        assert totals.cache_misses == 3
        # Leases are all released once their done markers landed.
        assert not list((queue.sweep_dir / "leases").glob("*.lease"))

    def test_second_drain_replays_from_cache(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(1, 2), chunk_size=1)
        worker_loop(tmp_path / "queue", tmp_path / "cache", drain=True)
        first, _, _ = queue.collect()
        # A fresh sweep over the same seeds: all hits, same bits.
        queue2 = _make_queue(tmp_path, seeds=(1, 2), chunk_size=1)
        stats = worker_loop(
            tmp_path / "queue", tmp_path / "cache", drain=True
        )
        second, _, totals = queue2.collect()
        assert stats.cache_hits == 2 and stats.cache_misses == 0
        assert totals.cache_hits == 2
        assert second == first

    def test_without_cache_results_come_from_done_markers(self, tmp_path):
        spec = registry.get(SCENARIO)
        queue = _make_queue(tmp_path, seeds=(4,), chunk_size=1)
        worker_loop(tmp_path / "queue", None, drain=True)
        results, _, _ = queue.collect()
        assert results[4] == spec.run(4, smoke=True)

    def test_version_skew_sweep_is_skipped(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(1,), chunk_size=1)
        manifest = dict(queue.manifest)
        manifest["code_version"] = "0" * 16
        (queue.sweep_dir / "manifest.json").write_text(
            json.dumps(manifest)
        )
        with pytest.warns(RuntimeWarning, match="code version"):
            stats = worker_loop(tmp_path / "queue", None, drain=True)
        assert stats.tasks_done == 0
        assert not queue.is_complete()

    def test_max_tasks_stops_early(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(1, 2, 3, 4), chunk_size=1)
        stats = worker_loop(
            tmp_path / "queue", None, drain=True, max_tasks=2
        )
        assert stats.tasks_done == 2
        assert len(queue.pending()) == 2

    def test_stop_callable_breaks_the_daemon_loop(self, tmp_path):
        _make_queue(tmp_path, seeds=(1,), chunk_size=1)
        calls = []

        def stop():
            calls.append(None)
            return len(calls) > 2

        stats = worker_loop(tmp_path / "queue", None, stop=stop)
        assert stats.tasks_done <= 1  # terminated, not hung

    def test_worker_pass_treats_a_vanished_sweep_dir_as_gone(
        self, tmp_path, monkeypatch
    ):
        _make_queue(tmp_path)
        discovered = WorkQueue.discover(tmp_path / "queue")
        shutil.rmtree(discovered[0].sweep_dir)
        monkeypatch.setattr(
            WorkQueue, "discover", classmethod(lambda cls, _: discovered),
        )
        stats = worker_loop(tmp_path / "queue", None, drain=True)
        assert stats.tasks_done == 0 and stats.repairs == 0
        assert not discovered[0].sweep_dir.exists()

    def test_on_task_done_fires_once_per_completed_task(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(1, 2, 3), chunk_size=1)
        calls = []
        stats = worker_loop(
            tmp_path / "queue", None, drain=True,
            on_task_done=lambda: calls.append(None),
        )
        assert stats.tasks_done == 3 and len(calls) == 3
        assert queue.is_complete()
        # A pass that finds nothing claimable never fires it.
        worker_loop(
            tmp_path / "queue", None, drain=True,
            on_task_done=lambda: calls.append(None),
        )
        assert len(calls) == 3

    def test_collect_refuses_incomplete_queue(self, tmp_path):
        queue = _make_queue(tmp_path)
        with pytest.raises(RuntimeError, match="pending"):
            queue.collect()


class TestExecuteQueued:
    def test_inline_drain_matches_oracle(self, tmp_path):
        spec = registry.get(SCENARIO)
        params = spec.params_key(smoke=True)
        [outcome] = execute_queued(
            [QueuedJob(SCENARIO, params, (1, 2, 3))], workers=0,
            queue_dir=tmp_path / "q", cache_root=tmp_path / "c",
        )
        for seed in (1, 2, 3):
            assert outcome.results[seed] == spec.run(seed, smoke=True)
        assert outcome.tasks == 3
        assert outcome.steals == 0 and outcome.requeues == 0
        # The sweep directory is cleaned up after collection.
        assert not list((tmp_path / "q").iterdir())

    def test_forked_workers_inherit_the_warm_arena(
        self, tmp_path, monkeypatch
    ):
        name = "fig7-mutuality"
        spec = registry.get(name)
        builds = tmp_path / "builds.log"

        def spy_build(params):
            with open(builds, "a") as log:
                log.write(f"{os.getpid()}\n")
            return spec._build(params)

        registry.clear_arenas()
        monkeypatch.setitem(
            registry._REGISTRY, name, replace(spec, _build=spy_build)
        )
        try:
            [outcome] = execute_queued(
                [QueuedJob(name, spec.params_key(smoke=True), (1, 2, 3, 4))],
                workers=2, chunk_size=1, queue_dir=tmp_path / "q",
            )
        finally:
            registry.clear_arenas()
        pids = builds.read_text().split()
        # One build, by the coordinator: the forked fleet inherited it.
        assert pids == [str(os.getpid())]
        assert outcome.tasks == 4
        for seed in (1, 2, 3, 4):
            assert outcome.results[seed] == spec.run(seed, smoke=True)

    def test_local_workers_wake_the_coordinator(self, tmp_path):
        # With a 5 s poll the coordinator's first idle wait alone would
        # outlast the whole job; each finished task cuts it short.
        spec = registry.get(SCENARIO)
        poll = 5.0
        began = time.monotonic()
        [outcome] = execute_queued(
            [QueuedJob(SCENARIO, spec.params_key(smoke=True), (1, 2, 3, 4))],
            workers=2, chunk_size=1, poll=poll, queue_dir=tmp_path,
        )
        assert time.monotonic() - began < poll / 2
        for seed in (1, 2, 3, 4):
            assert outcome.results[seed] == spec.run(seed, smoke=True)

    def test_a_build_that_raises_quarantines_its_seeds(self, tmp_path):
        # The coordinator's warm-up build fails too, but the failure
        # surfaces per seed through the workers' error boundary.
        spec = registry.get("fig7-mutuality")
        [outcome] = execute_queued(
            [QueuedJob(
                "fig7-mutuality", spec.params_key(smoke=True, network="nope"),
                (1, 2),
            )],
            workers=2, chunk_size=1, max_attempts=1, queue_dir=tmp_path,
        )
        assert outcome.results == {}
        assert sorted(outcome.failed_seeds) == [1, 2]

    def test_negative_workers_rejected(self, tmp_path):
        spec = registry.get(SCENARIO)
        with pytest.raises(ValueError, match="workers"):
            execute_queued(
                [QueuedJob(SCENARIO, spec.params_key(smoke=True), (1,))],
                workers=-1, queue_dir=tmp_path,
            )

    def test_bad_lease_ttl_rejected(self, tmp_path):
        spec = registry.get(SCENARIO)
        with pytest.raises(ValueError, match="lease_ttl"):
            execute_queued(
                [QueuedJob(SCENARIO, spec.params_key(smoke=True), (1,))],
                workers=0, queue_dir=tmp_path, lease_ttl=0.0,
            )


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


class TestPackedDoneMarkers:
    """Done markers inline the cache's packed float64 series payloads."""

    SPECIAL = [
        -0.0, math.inf, -math.inf, math.nan, 5e-324,
        1.7976931348623157e308, 0.1 + 0.2,
    ]

    def test_special_doubles_survive_the_done_marker(
        self, tmp_path, monkeypatch
    ):
        series = {1: SeriesResult("edge", self.SPECIAL),
                  2: SeriesResult("edge", [])}
        monkeypatch.setattr(
            registry, "run_reduced",
            lambda scenario, params, seed: series[seed],
        )
        spec = registry.get(SCENARIO)
        [outcome] = execute_queued(
            [QueuedJob(SCENARIO, spec.params_key(smoke=True), (1, 2))],
            workers=0, chunk_size=2, queue_dir=tmp_path / "q",
            cache_root=tmp_path / "c",
        )
        for seed, expected in series.items():
            collected = outcome.results[seed]
            assert collected.label == "edge"
            assert _bits(collected.values) == _bits(expected.values)

    @pytest.mark.parametrize("corrupt", [
        pytest.param({"label": "s", "f64": "not base64!"}, id="bad-base64"),
        pytest.param(
            {"label": "s", "f64": base64.b64encode(b"\0" * 12).decode()},
            id="partial-double",
        ),
        pytest.param(
            {"f64": base64.b64encode(_bits([1.0])).decode()},
            id="no-label",
        ),
    ])
    def test_corrupt_packed_series_fails_the_collect(
        self, tmp_path, corrupt
    ):
        queue = _make_queue(tmp_path, seeds=(1, 2), chunk_size=2)
        worker_loop(tmp_path / "queue", None, drain=True)
        done = queue.sweep_dir / "done" / "task-0000.json"
        marker = json.loads(done.read_text())
        marker["results"]["2"] = {"kind": "series", **corrupt}
        done.write_text(json.dumps(marker))
        with pytest.raises(
            RuntimeError, match="lacks a valid result for seed 2",
        ):
            queue.collect()


class TestRunSweepDistributed:
    def test_local_workers_bit_identical_with_counters(self, tmp_path):
        seeds = seed_range(4)
        sequential = execute_sweep(
            SweepSpec(SCENARIO, seeds, smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        distributed = execute_sweep(
            SweepSpec(SCENARIO, seeds, smoke=True),
            ExecutionProfile(
                workers=2, backend="distributed", cache_dir=tmp_path / "c",
                queue_dir=tmp_path / "q",
            ),
        )
        assert distributed.per_seed == sequential.per_seed
        assert distributed.mean == sequential.mean
        assert distributed.variance == sequential.variance
        assert distributed.timing.backend == "distributed"
        assert distributed.timing.workers == 2
        assert distributed.tasks_total == len(seeds)
        assert distributed.steals == 0 and distributed.requeues == 0
        assert distributed.cache_misses == len(seeds)

    def test_warm_cache_skips_the_queue_entirely(self, tmp_path):
        seeds = seed_range(3)
        cold = execute_sweep(
            SweepSpec(SCENARIO, seeds, smoke=True),
            ExecutionProfile(
                workers=0, backend="distributed", cache_dir=tmp_path / "c",
                queue_dir=tmp_path / "q",
            ),
        )
        warm = execute_sweep(
            SweepSpec(SCENARIO, seeds, smoke=True),
            ExecutionProfile(
                workers=0, backend="distributed", cache_dir=tmp_path / "c",
                queue_dir=tmp_path / "q",
            ),
        )
        assert warm.cache_hits == len(seeds)
        assert warm.tasks_total == 0  # nothing was enqueued
        assert warm.timing.backend == "cache"
        assert warm.per_seed == cold.per_seed

    def test_external_worker_thread_joins_a_zero_worker_sweep(
        self, tmp_path
    ):
        """A daemon pointed at the queue dir picks up coordinator tasks."""
        queue_dir = tmp_path / "q"
        queue_dir.mkdir()
        done = threading.Event()
        stats_box = {}

        def external():
            stats_box["stats"] = worker_loop(
                queue_dir, tmp_path / "c", owner="external-1",
                poll=0.01, stop=done.is_set,
            )

        thread = threading.Thread(target=external)
        thread.start()
        try:
            sequential = execute_sweep(
                SweepSpec(SCENARIO, seed_range(4), smoke=True),
                ExecutionProfile(workers=1, no_cache=True),
            )
            distributed = execute_sweep(
                SweepSpec(SCENARIO, seed_range(4), smoke=True),
                ExecutionProfile(
                    workers=0, backend="distributed",
                    cache_dir=tmp_path / "c", queue_dir=queue_dir,
                ),
            )
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert distributed.mean == sequential.mean
        assert distributed.per_seed == sequential.per_seed

    def test_queue_dir_kwargs_rejected_for_pool_backends(self):
        with pytest.raises(ValueError, match="distributed"):
            execute_sweep(
                SweepSpec(SCENARIO, [1], smoke=True),
                ExecutionProfile(
                    workers=1, backend="process", no_cache=True,
                    queue_dir="/tmp/nope",
                ),
            )
        with pytest.raises(ValueError, match="distributed"):
            execute_sweep(
                SweepSpec(SCENARIO, [1], smoke=True),
                ExecutionProfile(
                    workers=1, backend="process", no_cache=True, lease_ttl=5.0,
                ),
            )

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            execute_sweep(
                SweepSpec(SCENARIO, [1], smoke=True),
                ExecutionProfile(
                    workers=-1, backend="distributed", no_cache=True,
                ),
            )

    def test_bad_lease_ttl_rejected_even_on_warm_cache(self, tmp_path):
        """Validation must not depend on cache state: an all-hits
        replay rejects a bad lease_ttl exactly like a cold run."""
        execute_sweep(
            SweepSpec(SCENARIO, [1], smoke=True),
            ExecutionProfile(
                workers=0, backend="distributed", cache_dir=tmp_path,
                queue_dir=tmp_path / "q",
            ),
        )
        with pytest.raises(ValueError, match="lease_ttl"):
            execute_sweep(
                SweepSpec(SCENARIO, [1], smoke=True),
                ExecutionProfile(
                    workers=0, backend="distributed", cache_dir=tmp_path,
                    queue_dir=tmp_path / "q", lease_ttl=-1.0,
                ),
            )


class TestWorkerIdentity:
    def test_owner_id_names_host_and_pid(self):
        owner = owner_id()
        assert str(os.getpid()) in owner
