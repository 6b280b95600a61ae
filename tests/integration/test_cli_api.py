"""CLI tests for the job-API surface: --all-scenarios, campaign, queue."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.export import load_sweep
from repro.api import ExecutionProfile, SweepSpec
from repro.cli import main
from repro.simulation import registry
from repro.simulation.distributed import WorkQueue
from repro.simulation.sweep import execute_sweep, seed_range

SCENARIO = "fig15-environment"


def _write_manifest(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestSweepAllScenarios:
    @pytest.mark.slow
    def test_all_scenarios_runs_the_whole_registry(self, capsys, tmp_path):
        out_json = tmp_path / "campaign.json"
        assert main([
            "sweep", "--all-scenarios", "--seeds", "2", "--smoke",
            "--no-cache", "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert f"campaign: {len(registry.names())} sweep(s)" in out
        payload = json.loads(out_json.read_text())
        assert set(payload) == set(registry.names())
        # Spot-check one export against the oracle, bit for bit.
        oracle = execute_sweep(
            SweepSpec(SCENARIO, seed_range(2), smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        assert payload[SCENARIO]["mean"]["values"] == oracle.mean.values

    def test_scenario_and_all_scenarios_conflict(self, capsys):
        assert main([
            "sweep", SCENARIO, "--all-scenarios", "--smoke",
        ]) == 2
        assert "not both" in capsys.readouterr().err

    def test_distributed_zero_workers_without_queue_dir_rejected(
        self, capsys
    ):
        assert main([
            "sweep", SCENARIO, "--smoke", "--distributed",
            "--workers", "0",
        ]) == 2
        assert "queue_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep", SCENARIO, "--seeds", "2", "--smoke"],
        ["serve", "127.0.0.1:0"],
    ])
    def test_no_cache_with_cache_dir_is_rejected(
        self, capsys, tmp_path, command
    ):
        # The same validator as ExecutionProfile, manifests and HTTP.
        assert main(command + [
            "--no-cache", "--cache-dir", str(tmp_path / "never"),
        ]) == 2
        err = capsys.readouterr().err
        assert "no_cache conflicts with an explicit cache_dir" in err
        assert not (tmp_path / "never").exists()


class TestCampaignCli:
    def test_campaign_collects_per_scenario_exports(
        self, capsys, tmp_path
    ):
        manifest = _write_manifest(tmp_path / "m.json", {
            "name": "pair",
            "profile": {"no_cache": True},
            "sweeps": [
                {"scenario": SCENARIO, "seeds": [1, 2], "smoke": True},
                {"scenario": "fig7-mutuality", "seed_count": 2,
                 "smoke": True},
            ],
        })
        out_dir = tmp_path / "exports"
        assert main([
            "campaign", manifest, "--out-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign 'pair'" in out
        assert "2 sweep(s)" in out
        exports = sorted(p.name for p in out_dir.glob("*.json"))
        assert exports == ["fig15-environment.json", "fig7-mutuality.json"]
        # Each collected export equals the per-scenario oracle.
        for name, seeds in ((SCENARIO, [1, 2]),
                            ("fig7-mutuality", [1, 2])):
            payload = load_sweep((out_dir / f"{name}.json").read_text())
            oracle = execute_sweep(
                SweepSpec(name, seeds, smoke=True),
                ExecutionProfile(workers=1, no_cache=True),
            )
            assert payload["mean"] == oracle.mean.to_payload()
            assert payload["spec"]["scenario"] == name

    def test_campaign_combined_json(self, capsys, tmp_path):
        manifest = _write_manifest(tmp_path / "m.json", {
            "profile": {"no_cache": True},
            "sweeps": [
                {"scenario": SCENARIO, "seeds": [1], "smoke": True},
                {"scenario": SCENARIO, "seeds": [2], "smoke": True},
            ],
        })
        out_json = tmp_path / "combined.json"
        assert main(["campaign", manifest, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        # Repeated scenarios get deduplicated labels.
        assert set(payload) == {SCENARIO, f"{SCENARIO}#2"}

    def test_missing_manifest_exits_cleanly(self, capsys, tmp_path):
        assert main(["campaign", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_manifest_exits_cleanly(self, capsys, tmp_path):
        manifest = _write_manifest(tmp_path / "m.json", {
            "sweeps": [{"scenario": "fig99-nope", "seeds": [1]}],
        })
        assert main(["campaign", manifest]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_conflicting_manifest_profile_exits_cleanly(
        self, capsys, tmp_path
    ):
        manifest = _write_manifest(tmp_path / "m.json", {
            "profile": {"no_cache": True, "cache_dir": "/tmp/x"},
            "sweeps": [{"scenario": SCENARIO, "seeds": [1],
                        "smoke": True}],
        })
        assert main(["campaign", manifest]) == 2
        assert "no_cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile, message",
        [({"workers": "4"}, "workers"),
         ({"workers": 2, "backend": "thread"}, "backend must be one of"),
         ({"workers": 1, "backend": "distributed",
           "lease_ttl": float("nan")}, "lease_ttl")],
        ids=["mistyped-workers", "removed-thread-backend", "nan-lease-ttl"],
    )
    def test_mistyped_manifest_profile_exits_cleanly(
        self, capsys, tmp_path, profile, message
    ):
        manifest = _write_manifest(tmp_path / "m.json", {
            "profile": profile,
            "sweeps": [{"scenario": SCENARIO, "seeds": [1],
                        "smoke": True}],
        })
        assert main(["campaign", manifest]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        ["autoscale", "min_workers", "max_workers", "schedule", "compute"],
    )
    def test_removed_fleet_sizing_manifest_field_exits_cleanly(
        self, capsys, tmp_path, field
    ):
        # A manifest written for the elastic fleet, the queue serving
        # order or the profile-wide kernel switch of older versions.
        manifest = _write_manifest(tmp_path / "m.json", {
            "profile": {"workers": 2, "backend": "distributed",
                        field: 1},
            "sweeps": [{"scenario": SCENARIO, "seeds": [1],
                        "smoke": True}],
        })
        assert main(["campaign", manifest]) == 2
        err = capsys.readouterr().err
        assert "unknown execution profile field" in err
        assert field in err
        assert list(tmp_path.iterdir()) == [tmp_path / "m.json"]


class TestQueueCli:
    @pytest.mark.parametrize("stale_event_log", [False, True])
    def test_status_on_empty_dir(self, capsys, tmp_path, stale_event_log):
        if stale_event_log:
            # Left by an older version with an elastic fleet.
            (tmp_path / "autoscale-events.jsonl").write_text(
                '{"tick": 0, "action": "spawn", "from": 0, "to": 2}\n'
            )
        json_path = tmp_path / "status.json"
        assert main([
            "queue", "status", str(tmp_path), "--json", str(json_path),
        ]) == 0
        assert "no sweeps" in capsys.readouterr().out
        assert json.loads(json_path.read_text()) == {"sweeps": []}

    def test_status_reports_progress_and_leases(self, capsys, tmp_path):
        spec = registry.get(SCENARIO)
        queue = WorkQueue.create(
            tmp_path, SCENARIO, spec.params_key(smoke=True), [1, 2, 3], 1,
        )
        queue.claim("task-0001", "worker-xyz")
        json_path = tmp_path / "status.json"
        assert main([
            "queue", "status", str(tmp_path), "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert SCENARIO in out
        assert "0/3 done" in out
        assert "2 pending" in out
        assert "task-0001 held by worker-xyz" in out
        payload = json.loads(json_path.read_text())
        assert list(payload) == ["sweeps"]
        sweeps = payload["sweeps"]
        assert sweeps[0]["pending"] == 2
        assert sweeps[0]["leased"][0]["owner"] == "worker-xyz"

    def test_top_level_list_mentions_campaign_and_queue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "queue" in out


class TestCampaignExample:
    def test_campaign_example_runs(self, capsys):
        path = (
            Path(__file__).resolve().parents[2] / "examples"
            / "campaign.py"
        )
        spec = importlib.util.spec_from_file_location(
            "example_campaign", path
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert "submitted 3 sweeps" in out
        assert "campaign finished: 3/3" in out
        assert "fig7-mutuality#2" in out
        assert "exports: 3 file(s)" in out
