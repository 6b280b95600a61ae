"""Scheduling observability: cost/ETA in ``repro queue status``, and
the ranked sweep-directory naming the scheduler relies on for serving
order."""

import json

from repro.cli import main
from repro.simulation import registry
from repro.simulation.distributed import WorkQueue, queue_status

SCENARIO = "fig15-environment"


def _stage(queue_dir, seeds=(1, 2, 3), chunks=None, **kwargs):
    spec = registry.get(SCENARIO)
    return WorkQueue.create(
        queue_dir, SCENARIO, spec.params_key(smoke=True), list(seeds),
        [[seed] for seed in seeds] if chunks is None else chunks, **kwargs,
    )


class TestCostInQueueStatus:
    def test_estimate_rides_the_manifest_into_status(self, tmp_path):
        queue = _stage(tmp_path, est_seconds_per_seed=0.5)
        (status,) = queue_status(tmp_path)
        assert status.est_seconds_per_seed == 0.5
        assert status.est_remaining_seconds == 1.5  # 3 pending seeds
        payload = json.loads(json.dumps(status.to_payload()))
        assert payload["est_seconds_per_seed"] == 0.5
        assert payload["est_remaining_seconds"] == 1.5

        # Finishing a task reprices the remainder from done markers.
        (queue.sweep_dir / "done" / "task-0000.json").write_text(
            json.dumps({"task": "task-0000", "results": {"1": []}})
        )
        (status,) = queue_status(tmp_path)
        assert status.est_remaining_seconds == 1.0

    def test_uncosted_sweep_reports_none(self, tmp_path):
        _stage(tmp_path)
        (status,) = queue_status(tmp_path)
        assert status.est_seconds_per_seed is None
        assert status.est_remaining_seconds is None

    def test_corrupt_estimate_is_ignored_not_fatal(self, tmp_path):
        queue = _stage(tmp_path)
        manifest_path = queue.sweep_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["est_seconds_per_seed"] = "cheap"
        manifest_path.write_text(json.dumps(manifest))
        (status,) = queue_status(tmp_path)
        assert status.est_seconds_per_seed is None


class TestRankedSweepDirs:
    def test_rank_prefix_orders_discovery(self, tmp_path):
        # Ranks 2, 0, 1 submitted out of order: workers scan sorted, so
        # serving order is rank order, not creation order.
        created = [
            _stage(tmp_path, seeds=(seed,), rank=rank)
            for seed, rank in ((1, 2), (2, 0), (3, 1))
        ]
        discovered = WorkQueue.discover(tmp_path)
        assert [q.sweep_dir for q in discovered] == [
            created[1].sweep_dir, created[2].sweep_dir,
            created[0].sweep_dir,
        ]
        manifest = json.loads(
            (created[0].sweep_dir / "manifest.json").read_text()
        )
        assert manifest["rank"] == 2

    def test_explicit_chunks_must_reproduce_the_seeds(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="chunks"):
            _stage(tmp_path, seeds=(1, 2, 3), chunks=[(1, 2), (4,)])
        queue = _stage(
            tmp_path, seeds=(1, 2, 3), chunks=[(1, 2), (3,)],
        )
        manifest = json.loads(
            (queue.sweep_dir / "manifest.json").read_text()
        )
        assert sorted(manifest["chunks"].values()) == [[1, 2], [3]]


class TestQueueStatusCli:
    def test_cost_and_eta_lines(self, capsys, tmp_path):
        _stage(tmp_path, est_seconds_per_seed=0.25)
        assert main(["queue", "status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cost: ~0.250s/seed, ~0.75s remaining" in out
        assert "estimated remaining: ~0.75s across 1 costed sweep(s)" in out
