"""Tests for the ``repro worker`` and ``repro cache`` subcommands, and
the ``repro sweep --distributed`` wiring that ties them together."""

import json

import pytest

from repro.analysis.export import load_sweep
from repro.api import ExecutionProfile, SweepSpec
from repro.cli import main
from repro.simulation import registry
from repro.simulation.cache import SweepCache
from repro.simulation.distributed import WorkQueue
from repro.simulation.results import RateSummary
from repro.simulation.sweep import execute_sweep, seed_range

SCENARIO = "fig15-environment"


def _stage_queue(queue_dir, seeds=(1, 2, 3), chunk_size=1, **kwargs):
    spec = registry.get(SCENARIO)
    return WorkQueue.create(
        queue_dir, SCENARIO, spec.params_key(smoke=True),
        list(seeds), chunk_size, **kwargs,
    )


class TestWorkerCli:
    def test_drain_completes_a_staged_queue(self, tmp_path, capsys):
        queue = _stage_queue(tmp_path / "q")
        assert main([
            "worker", str(tmp_path / "q"), "--drain",
            "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        out = capsys.readouterr().out
        assert "3 task(s)" in out
        assert "3 seed(s)" in out
        assert queue.is_complete()
        results, _, _ = queue.collect()
        spec = registry.get(SCENARIO)
        assert results[2] == spec.run(2, smoke=True)

    def test_drain_on_empty_queue_exits_cleanly(self, tmp_path, capsys):
        assert main(["worker", str(tmp_path), "--drain"]) == 0
        assert "0 task(s)" in capsys.readouterr().out

    def test_max_tasks_bounds_the_session(self, tmp_path, capsys):
        queue = _stage_queue(tmp_path / "q", seeds=(1, 2, 3, 4))
        assert main([
            "worker", str(tmp_path / "q"), "--drain", "--no-cache",
            "--max-tasks", "2", "--worker-id", "bounded",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker bounded" in out
        assert "2 task(s)" in out
        assert len(queue.pending()) == 2

    @pytest.mark.parametrize(
        "flag",
        [["--lease-ttl", "-1"], ["--lease-ttl", "nan"],
         ["--lease-ttl", "inf"], ["--poll", "-1"], ["--max-tasks", "0"],
         ["--max-attempts", "2"]],
        ids=["negative-lease-ttl", "nan-lease-ttl", "inf-lease-ttl",
             "negative-poll", "zero-max-tasks", "removed-max-attempts"],
    )
    def test_bad_worker_flags_exit_2(self, tmp_path, capsys, flag):
        # Rejected before the worker serves anything.  The retry budget
        # is pinned in each sweep's manifest, so a worker takes none.
        queue = _stage_queue(tmp_path / "q")
        try:
            code = main(["worker", str(tmp_path / "q"), "--drain"] + flag)
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert len(queue.pending()) == 3

    def test_worker_results_replay_into_a_sweep(self, tmp_path):
        """Seeds computed by a CLI worker are cache hits for the next
        ``execute_sweep`` over the same scenario."""
        _stage_queue(tmp_path / "q", seeds=(1, 2))
        assert main([
            "worker", str(tmp_path / "q"), "--drain",
            "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        sweep = execute_sweep(
            SweepSpec(SCENARIO, seed_range(2), smoke=True),
            ExecutionProfile(cache_dir=tmp_path / "c"),
        )
        assert sweep.cache_hits == 2
        assert sweep.cache_misses == 0


class TestSweepDistributedCli:
    def test_distributed_sweep_prints_queue_counters(
        self, tmp_path, capsys
    ):
        json_path = tmp_path / "out.json"
        assert main([
            "sweep", SCENARIO, "--seeds", "3", "--smoke",
            "--distributed", "--workers", "0",
            "--queue-dir", str(tmp_path / "q"),
            "--cache-dir", str(tmp_path / "c"),
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "distributed" in out
        assert "queue: 3 task(s), 0 steal(s), 0 requeue(s)" in out
        payload = load_sweep(json_path.read_text())
        assert payload["timing"]["backend"] == "distributed"
        assert payload["distributed"]["tasks"] == 3

    def test_distributed_matches_plain_sweep_bitwise(self, tmp_path):
        plain = execute_sweep(
            SweepSpec(SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        assert main([
            "sweep", SCENARIO, "--seeds", "3", "--smoke",
            "--distributed", "--workers", "2", "--no-cache",
            "--queue-dir", str(tmp_path / "q"),
            "--json", str(tmp_path / "out.json"),
        ]) == 0
        payload = load_sweep((tmp_path / "out.json").read_text())
        assert payload["mean"] == plain.mean.to_payload()

    def test_queue_dir_without_distributed_rejected(self, capsys):
        assert main([
            "sweep", SCENARIO, "--smoke",
            "--queue-dir", "/tmp/somewhere",
        ]) == 2
        assert "--distributed" in capsys.readouterr().err

    def test_lease_ttl_without_distributed_rejected(self, capsys):
        assert main([
            "sweep", SCENARIO, "--smoke", "--lease-ttl", "5",
        ]) == 2
        err = capsys.readouterr().err
        assert "--lease-ttl" in err and "--distributed" in err

    def test_negative_workers_rejected(self, capsys):
        assert main([
            "sweep", SCENARIO, "--smoke", "--distributed",
            "--workers", "-1",
        ]) == 2
        assert "workers" in capsys.readouterr().err


class TestFaultToleranceCli:
    def test_worker_max_attempts_quarantines_and_reports(
        self, tmp_path, capsys, monkeypatch
    ):
        queue = _stage_queue(tmp_path / "q", seeds=(1, 2), max_attempts=2)
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        assert main([
            "worker", str(tmp_path / "q"), "--drain", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 seed failure(s), 1 quarantined" in out
        assert queue.is_complete()  # quarantine still drains the sweep
        assert queue.attempt_count("task-0001", 2) == 2

    def test_queue_status_then_requeue_releases_the_seed(
        self, tmp_path, capsys, monkeypatch
    ):
        queue = _stage_queue(tmp_path / "q", seeds=(1, 2), max_attempts=1)
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        assert main([
            "worker", str(tmp_path / "q"), "--drain", "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert main(["queue", "status", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "quarantine: 1 seed(s)" in out
        assert "seed 2 (task-0001): InjectedFaultError" in out
        assert main([
            "queue", "requeue", str(tmp_path / "q"), "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "requeued 1 quarantined seed(s)" in out
        assert queue.sweep_id in out
        # The task is claimable again; a healthy drain finishes it.
        monkeypatch.delenv("REPRO_WORKER_FAULT")
        assert main([
            "worker", str(tmp_path / "q"), "--drain", "--no-cache",
        ]) == 0
        results, failures, _ = queue.collect()
        assert set(results) == {1, 2} and not failures

    def test_requeue_unknown_seed_says_so(self, tmp_path, capsys):
        _stage_queue(tmp_path / "q", seeds=(1,))
        assert main([
            "queue", "requeue", str(tmp_path / "q"), "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "requeued 0 quarantined seed(s)" in out
        assert "seed 9 is not quarantined" in out

    def test_sweep_collect_mode_reports_failed_seeds(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        json_path = tmp_path / "out.json"
        assert main([
            "sweep", SCENARIO, "--seeds", "3", "--smoke",
            "--distributed", "--workers", "0", "--no-cache",
            "--queue-dir", str(tmp_path / "q"),
            "--max-attempts", "2",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "failed: 1 seed(s) quarantined" in out
        assert "seed 2: InjectedFaultError after 2 attempt(s)" in out
        payload = load_sweep(json_path.read_text())
        assert [r["seed"] for r in payload["failed_seeds"]] == [2]

    def test_sweep_on_error_raise_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        assert main([
            "sweep", SCENARIO, "--seeds", "3", "--smoke",
            "--distributed", "--workers", "0", "--no-cache",
            "--queue-dir", str(tmp_path / "q"),
            "--max-attempts", "1", "--on-error", "raise",
        ]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "seed" in err


class TestCacheCli:
    def _put(self, root, seed, version=None):
        cache = SweepCache(root)
        key = SweepCache.key("cli", (("p", 1),), seed,
                             version=version or "k")
        cache.put(key, RateSummary(0.1, 0.2, 0.3), scenario="cli",
                  seed=seed, version=version)

    def test_stats_reports_entries_and_versions(self, tmp_path, capsys):
        self._put(tmp_path, 1)
        self._put(tmp_path, 2, version="00ld00ld00ld00ld")
        json_path = tmp_path / "stats.json"
        assert main([
            "cache", "stats", "--cache-dir", str(tmp_path),
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert "stale entries: 1" in out
        payload = json.loads(json_path.read_text())
        assert payload["entries"] == 2
        assert payload["versions"]["00ld00ld00ld00ld"] == 1

    def test_prune_dry_run_then_real(self, tmp_path, capsys):
        self._put(tmp_path, 1)
        self._put(tmp_path, 2, version="00ld00ld00ld00ld")
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path), "--dry-run",
        ]) == 0
        assert "[dry run]" in capsys.readouterr().out
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--json", str(tmp_path / "prune.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale" in out
        payload = json.loads((tmp_path / "prune.json").read_text())
        assert payload["removed"] == 1
        assert payload["kept"] == 1
        # Idempotent: a second prune finds nothing stale.
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
        ]) == 0
        assert "pruned 0 stale" in capsys.readouterr().out

    def test_stats_on_empty_cache(self, tmp_path, capsys):
        assert main([
            "cache", "stats", "--cache-dir", str(tmp_path / "empty"),
        ]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_respects_env_default(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        execute_sweep(
            SweepSpec(SCENARIO, seed_range(2), smoke=True),
            ExecutionProfile(cache_dir=tmp_path / "env-cache"),
        )
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert str(tmp_path / "env-cache") in out


class TestListMentionsNewCommands:
    def test_top_level_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "worker" in out
        assert "cache" in out
