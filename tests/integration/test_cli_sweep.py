"""Tests for the ``repro sweep`` subcommand."""

import pytest

from repro.analysis.export import load_sweep
from repro.api import ExecutionProfile, SweepSpec
from repro.cli import main
from repro.simulation.sweep import execute_sweep, seed_range


class TestSweepCli:
    def test_list_scenarios(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7-mutuality" in out
        assert "fig15-environment" in out

    def test_no_scenario_lists(self, capsys):
        assert main(["sweep"]) == 0
        assert "registered scenarios" in capsys.readouterr().out

    def test_unknown_scenario_exits_cleanly(self, capsys):
        assert main(["sweep", "fig99-nope", "--smoke"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "fig7-mutuality" in err

    def test_zero_seeds_exits_cleanly(self, capsys):
        assert main(["sweep", "fig7-mutuality", "--seeds", "0"]) == 2
        assert "at least one seed" in capsys.readouterr().err

    def test_zero_workers_exits_cleanly(self, capsys):
        assert main([
            "sweep", "fig7-mutuality", "--workers", "0", "--smoke",
        ]) == 2
        assert "workers" in capsys.readouterr().err

    def test_rates_sweep_prints_mean_variance_timing(self, capsys):
        assert main([
            "sweep", "fig7-mutuality", "--seeds", "3", "--smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert "success" in out and "variance" in out
        assert "seeds/s" in out
        assert "sequential" in out

    def test_series_sweep_process_pool(self, capsys):
        assert main([
            "sweep", "fig15-environment", "--seeds", "4",
            "--workers", "2", "--smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert "series" in out
        assert "2 workers (process, chunks of" in out

    def test_json_export_is_loadable_and_matches_library(
        self, capsys, tmp_path
    ):
        path = tmp_path / "sweep.json"
        assert main([
            "sweep", "fig15-environment", "--seeds", "3",
            "--first-seed", "5", "--smoke", "--json", str(path),
        ]) == 0
        payload = load_sweep(path.read_text())
        assert payload["scenario"] == "fig15-environment"
        assert payload["seeds"] == [5, 6, 7]

        library = execute_sweep(
            SweepSpec("fig15-environment", seed_range(3, first=5), smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        assert payload["mean"]["values"] == library.mean.values
        assert payload["timing"]["wall_seconds"] > 0.0

    @pytest.mark.parametrize(
        "command",
        [["sweep", "fig7-mutuality", "--distributed"],
         ["campaign", "manifest.json"],
         ["serve", "127.0.0.1:0"]],
        ids=["sweep", "campaign", "serve"],
    )
    @pytest.mark.parametrize(
        "flag",
        [["--autoscale"], ["--min-workers", "1"], ["--max-workers", "4"],
         ["--schedule", "cost"], ["--compute", "vectorized"],
         ["--backend", "process"], ["--backend", "thread"],
         ["--chunk-size", "2"]],
        ids=["autoscale", "min-workers", "max-workers", "schedule",
             "compute", "backend-process", "backend-thread", "chunk-size"],
    )
    def test_removed_fleet_sizing_flag_exits_2(self, capsys, command, flag):
        # Rejected while parsing: nothing runs, nothing starts serving.
        with pytest.raises(SystemExit) as exit_info:
            main(command + flag)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_chosen_chunk_size_reported(self, capsys):
        # 9 seeds on 2 workers: the code cuts ceil(9 / 8) = 2 per chunk.
        assert main([
            "sweep", "fig15-environment", "--seeds", "9", "--workers", "2",
            "--smoke",
        ]) == 0
        assert "chunks of 2" in capsys.readouterr().out


class TestSweepCacheCli:
    def test_default_cache_reports_misses_then_hits(self, capsys):
        args = ["sweep", "fig15-environment", "--seeds", "3", "--smoke"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache: 0 hit(s), 3 miss(es)" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache: 3 hit(s), 0 miss(es)" in second

    def test_cache_dir_flag_is_honoured(self, capsys, tmp_path):
        cache_dir = tmp_path / "explicit-cache"
        args = [
            "sweep", "fig15-environment", "--seeds", "2", "--smoke",
            "--cache-dir", str(cache_dir),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert str(cache_dir) in out
        assert list(cache_dir.rglob("*.json"))

    def test_no_cache_bypasses_and_hides_cache_line(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
        assert main([
            "sweep", "fig15-environment", "--seeds", "2", "--smoke",
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out
        assert not (tmp_path / "never").exists()

    def test_json_export_carries_cache_counts(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        args = [
            "sweep", "fig15-environment", "--seeds", "3", "--smoke",
            "--json", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        cold = load_sweep(path.read_text())
        assert cold["cache"] == {
            "enabled": True, "hits": 0, "misses": 3, "errors": 0,
        }
        assert main(args) == 0
        warm = load_sweep(path.read_text())
        assert warm["cache"] == {
            "enabled": True, "hits": 3, "misses": 0, "errors": 0,
        }
        assert warm["mean"] == cold["mean"]
        assert warm["per_seed"] == cold["per_seed"]
        assert warm["timing"]["backend"] == "cache"
