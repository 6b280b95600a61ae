"""Tests for the persistent cross-process sweep result cache."""

import json
from pathlib import Path

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.simulation.cache import (
    CacheStats,
    SweepCache,
    code_version,
    default_cache_dir,
)
from repro.simulation.results import RateSummary, SeriesResult
from repro.simulation.sweep import execute_sweep, seed_range

PARAMS = (("network", "twitter"), ("threshold", 0.3))


def _cache_files(root: Path):
    return sorted(root.rglob("*.json"))


class TestKey:
    def test_key_is_stable(self):
        assert SweepCache.key("fig7", PARAMS, 1) == SweepCache.key(
            "fig7", PARAMS, 1
        )

    def test_key_varies_with_every_component(self):
        base = SweepCache.key("fig7", PARAMS, 1, version="v1")
        assert SweepCache.key("fig9", PARAMS, 1, version="v1") != base
        assert SweepCache.key(
            "fig7", (("network", "gplus"),), 1, version="v1"
        ) != base
        assert SweepCache.key("fig7", PARAMS, 2, version="v1") != base
        assert SweepCache.key("fig7", PARAMS, 1, version="v2") != base

    def test_default_version_is_code_version(self):
        assert SweepCache.key("fig7", PARAMS, 1) == SweepCache.key(
            "fig7", PARAMS, 1, version=code_version()
        )

    def test_code_version_is_short_hex_and_cached(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)  # hex
        assert code_version() == version


class TestRoundTrip:
    def test_rates_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        result = RateSummary(0.5, 0.25, 0.125, total_requests=7)
        cache.put("a" * 64, result, scenario="s", seed=1)
        assert cache.get("a" * 64) == result

    def test_series_round_trip_bit_identical(self, tmp_path):
        cache = SweepCache(tmp_path)
        values = [0.1 + 0.2, 1.0 / 3.0, 1e-17, 123456.789]
        result = SeriesResult("curve", values)
        cache.put("b" * 64, result)
        replayed = cache.get("b" * 64)
        assert replayed == result
        assert replayed.values == values  # exact float equality

    def test_failed_put_keeps_the_old_entry_and_no_temp_file(
        self, tmp_path
    ):
        cache = SweepCache(tmp_path)
        old = SeriesResult("curve", [1.0])
        cache.put("d" * 64, old)
        with pytest.raises(TypeError):
            cache.put("d" * 64, old, runtime=0.5, version=object())
        assert cache.get("d" * 64) == old
        assert [p.suffix for p in tmp_path.rglob("*") if p.is_file()] == [
            ".json"
        ]

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("c" * 64) is None
        assert cache.stats == CacheStats(hits=0, misses=1)

    def test_hit_miss_accounting(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("d" * 64, SeriesResult("s", [1.0]))
        cache.get("d" * 64)
        cache.get("e" * 64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("f" * 64, SeriesResult("s", [1.0]))
        (path,) = _cache_files(tmp_path)
        path.write_text("{ not json")
        assert cache.get("f" * 64) is None
        assert cache.stats.misses == 1

    def test_wrong_shape_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("0" * 64, SeriesResult("s", [1.0]))
        (path,) = _cache_files(tmp_path)
        path.write_text(json.dumps({"result": {"kind": "histogram"}}))
        assert cache.get("0" * 64) is None


class TestDefaultDir:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_tilde_expands_everywhere(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "~/env-cache")
        assert default_cache_dir() == Path.home() / "env-cache"
        assert SweepCache("~/lib-cache").root == Path.home() / "lib-cache"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "sweeps"


class TestRunSweepWithCache:
    SCENARIO = "fig15-environment"

    def test_cold_run_is_all_misses(self, tmp_path):
        sweep = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert sweep.cache_enabled
        assert sweep.cache_hits == 0
        assert sweep.cache_misses == 3
        assert len(_cache_files(tmp_path)) == 3

    def test_warm_rerun_is_all_hits_and_bit_identical(self, tmp_path):
        cold = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        warm = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert warm.cache_hits == 3
        assert warm.cache_misses == 0
        assert warm.per_seed == cold.per_seed
        assert warm.mean == cold.mean
        assert warm.variance == cold.variance
        assert warm.timing.backend == "cache"

    def test_incremental_seed_growth_reuses_prior_seeds(self, tmp_path):
        small = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(4), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        grown = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(8), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert grown.cache_hits == 4
        assert grown.cache_misses == 4
        # Timing describes the whole invocation, not just the 4
        # recomputed seeds.
        assert grown.timing.seeds == 8
        # The first four per-seed results are replays of the small sweep.
        assert grown.per_seed[:4] == small.per_seed
        # And identical to computing the eight seeds from scratch.
        fresh = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(8), smoke=True),
            ExecutionProfile(no_cache=True),
        )
        assert grown.per_seed == fresh.per_seed
        assert grown.mean == fresh.mean

    def test_different_params_do_not_collide(self, tmp_path):
        execute_sweep(
            SweepSpec("fig7-mutuality", seed_range(2), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        other = execute_sweep(
            SweepSpec(
                "fig7-mutuality", seed_range(2), smoke=True,
                overrides={"threshold": 0.6},
            ),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert other.cache_hits == 0
        assert other.cache_misses == 2

    def test_no_cache_dir_bypasses_reads_and_writes(self, tmp_path):
        sweep = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(2), smoke=True),
            ExecutionProfile(no_cache=True),
        )
        assert not sweep.cache_enabled
        assert sweep.cache_hits == 0
        assert sweep.cache_misses == 0
        assert _cache_files(tmp_path) == []

    def test_corrupt_cache_file_recomputes(self, tmp_path):
        clean = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        victim = _cache_files(tmp_path)[1]
        victim.write_text("truncated garbage")
        recovered = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert recovered.cache_hits == 2
        assert recovered.cache_misses == 1
        assert recovered.per_seed == clean.per_seed
        assert recovered.mean == clean.mean
        # The corrupt entry was rewritten; a third run is all hits.
        third = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert third.cache_hits == 3

    def test_cache_shared_across_worker_counts(self, tmp_path):
        sequential = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(4), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        parallel = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(4), smoke=True),
            ExecutionProfile(workers=2, cache_dir=tmp_path),
        )
        assert parallel.cache_hits == 4
        assert parallel.per_seed == sequential.per_seed

    def test_empty_seed_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            execute_sweep(
                SweepSpec(self.SCENARIO, [], smoke=True),
                ExecutionProfile(cache_dir=tmp_path),
            )

    def test_runner_args_validated_even_on_warm_cache(self, tmp_path):
        execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(2), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        # An all-hits replay must reject bad arguments exactly like a
        # cold run would.
        with pytest.raises(ValueError, match="chunk_size"):
            execute_sweep(
                SweepSpec(self.SCENARIO, seed_range(2), smoke=True),
                ExecutionProfile(chunk_size=0, cache_dir=tmp_path),
            )
        with pytest.raises(ValueError, match="workers"):
            execute_sweep(
                SweepSpec(self.SCENARIO, seed_range(2), smoke=True),
                ExecutionProfile(workers=-5, cache_dir=tmp_path),
            )
        with pytest.raises(ValueError, match="backend"):
            execute_sweep(
                SweepSpec(self.SCENARIO, seed_range(2), smoke=True),
                ExecutionProfile(backend="bogus", cache_dir=tmp_path),
            )

    def test_unwritable_cache_warns_but_returns_results(
        self, tmp_path, monkeypatch
    ):
        def refuse(self, key, result, scenario="", seed=None,
                   runtime=None):
            raise OSError("disk full")

        monkeypatch.setattr(SweepCache, "put", refuse)
        with pytest.warns(RuntimeWarning, match="cache write.*failed"):
            sweep = execute_sweep(
                SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
                ExecutionProfile(cache_dir=tmp_path),
            )
        # The computed results survive the failed persist...
        clean = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(no_cache=True),
        )
        assert sweep.per_seed == clean.per_seed
        assert sweep.mean == clean.mean
        # ...and nothing was written.
        monkeypatch.undo()
        assert _cache_files(tmp_path) == []


class TestCacheErrorsSurfaced:
    """Regression: an unwritable cache used to warn and then silently
    report the affected seeds as plain misses; the error count now
    rides through ``SweepResult`` and the JSON export."""

    SCENARIO = "fig15-environment"

    def test_unwritable_cache_dir_counts_every_failed_persist(
        self, tmp_path
    ):
        # A path whose parent is a regular file: every mkdir/put fails
        # with OSError regardless of the uid running the suite (a
        # chmod-based read-only dir would not stop root).
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        bad_dir = blocker / "cache"
        with pytest.warns(RuntimeWarning, match="cache write.*failed"):
            sweep = execute_sweep(
                SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
                ExecutionProfile(cache_dir=bad_dir),
            )
        assert sweep.cache_errors == 3
        assert sweep.cache_misses == 3
        assert sweep.cache_hits == 0
        # The results themselves are unharmed.
        clean = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(no_cache=True),
        )
        assert sweep.per_seed == clean.per_seed

    def test_error_count_reaches_the_json_export(self, tmp_path):
        from repro.analysis.export import load_sweep, sweep_to_json

        blocker = tmp_path / "blocker"
        blocker.write_text("still a file")
        with pytest.warns(RuntimeWarning):
            sweep = execute_sweep(
                SweepSpec(self.SCENARIO, seed_range(2), smoke=True),
                ExecutionProfile(cache_dir=blocker / "cache"),
            )
        payload = load_sweep(sweep_to_json(sweep))
        assert payload["cache"] == {
            "enabled": True, "hits": 0, "misses": 2, "errors": 2,
        }

    def test_distributed_worker_put_errors_surface_too(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file again")
        with pytest.warns(RuntimeWarning, match="cache write"):
            sweep = execute_sweep(
                SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
                ExecutionProfile(
                    workers=0, backend="distributed",
                    cache_dir=blocker / "cache", queue_dir=tmp_path / "q",
                ),
            )
        # The done markers carried the results despite the dead cache.
        assert sweep.cache_errors == 3
        clean = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(3), smoke=True),
            ExecutionProfile(no_cache=True),
        )
        assert sweep.per_seed == clean.per_seed

    def test_healthy_cache_reports_zero_errors(self, tmp_path):
        sweep = execute_sweep(
            SweepSpec(self.SCENARIO, seed_range(2), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert sweep.cache_errors == 0


class TestUsageAndPrune:
    """`repro cache` backing: the census and the prune pass."""

    def _seed_entries(self, root, count, version=None):
        cache = SweepCache(root)
        for index in range(count):
            key = SweepCache.key("census", PARAMS, index, version="fixed")
            cache.put(key, RateSummary(0.1, 0.2, 0.3, total_requests=1),
                      scenario="census", seed=index, version=version)

    def test_usage_counts_entries_and_versions(self, tmp_path):
        from repro.simulation.cache import cache_usage

        self._seed_entries(tmp_path, 3)
        self._seed_entries(tmp_path / "old", 2, version="feedface")
        usage = cache_usage(tmp_path)
        assert usage.entries == 3
        assert usage.total_bytes > 0
        assert usage.versions == {code_version(): 3}
        assert usage.stale_entries == 0
        old = cache_usage(tmp_path / "old")
        assert old.versions == {"feedface": 2}
        assert old.stale_entries == 2

    def test_usage_of_missing_dir_is_empty(self, tmp_path):
        from repro.simulation.cache import cache_usage

        usage = cache_usage(tmp_path / "never-created")
        assert usage.entries == 0
        assert usage.versions == {}

    def test_prune_removes_only_stale_versions(self, tmp_path):
        from repro.simulation.cache import cache_usage, prune_stale

        cache = SweepCache(tmp_path)
        current_key = SweepCache.key("keep", PARAMS, 1)
        cache.put(current_key, RateSummary(0.5, 0.25, 0.25),
                  scenario="keep", seed=1)
        stale_key = SweepCache.key("drop", PARAMS, 1, version="old")
        cache.put(stale_key, RateSummary(0.5, 0.25, 0.25),
                  scenario="drop", seed=1, version="0123456789abcdef")

        report = prune_stale(tmp_path)
        assert report.examined == 2
        assert report.removed == 1
        assert report.kept == 1
        assert report.freed_bytes > 0
        assert cache.get(current_key) is not None
        assert cache_usage(tmp_path).entries == 1

    def test_prune_dry_run_deletes_nothing(self, tmp_path):
        from repro.simulation.cache import cache_usage, prune_stale

        self._seed_entries(tmp_path, 2, version="0ldc0de0ldc0de00")
        report = prune_stale(tmp_path, dry_run=True)
        assert report.dry_run
        assert report.removed == 2
        assert cache_usage(tmp_path).entries == 2

    def test_prune_drops_versionless_and_corrupt_entries(self, tmp_path):
        import os
        import time

        from repro.simulation.cache import prune_stale

        fanout = tmp_path / "ab"
        fanout.mkdir(parents=True)
        (fanout / ("a" * 64 + ".json")).write_text(
            json.dumps({"result": {"kind": "rates"}})  # pre-PR4: no version
        )
        (fanout / ("b" * 64 + ".json")).write_text("{corrupt")
        orphan = fanout / "leftover.tmp"
        orphan.write_text("crashed writer")
        past = time.time() - 7200  # old enough to be a crashed writer's
        os.utime(orphan, (past, past))
        report = prune_stale(tmp_path)
        assert report.removed == 3
        assert list(tmp_path.rglob("*")) == []  # fanout dir swept too

    def test_prune_spares_a_live_writers_tmp_file(self, tmp_path):
        from repro.simulation.cache import prune_stale

        fanout = tmp_path / "cd"
        fanout.mkdir(parents=True)
        in_flight = fanout / "being-written.tmp"
        in_flight.write_text("a concurrent put() owns this")
        report = prune_stale(tmp_path)
        assert report.removed == 0
        assert in_flight.exists()

    def test_prune_keeps_entries_written_by_execute_sweep(
        self, tmp_path
    ):
        from repro.simulation.cache import prune_stale

        execute_sweep(
            SweepSpec("fig15-environment", seed_range(2), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        report = prune_stale(tmp_path)
        assert report.removed == 0 and report.kept == 2
        warm = execute_sweep(
            SweepSpec("fig15-environment", seed_range(2), smoke=True),
            ExecutionProfile(cache_dir=tmp_path),
        )
        assert warm.cache_hits == 2
