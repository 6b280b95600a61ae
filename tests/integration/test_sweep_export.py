"""Round-trip tests for the sweep JSON export (timing + variance fields)."""

import json

import pytest

from repro.analysis.export import load_sweep, sweep_to_json, sweep_to_payload
from repro.api import ExecutionProfile, SweepSpec
from repro.simulation.sweep import (
    execute_sweep,
    seed_range,
    sweep_result_from_payload,
)


@pytest.fixture(scope="module")
def rates_sweep():
    return execute_sweep(
        SweepSpec("fig7-mutuality", seed_range(3), smoke=True),
        ExecutionProfile(workers=1, no_cache=True),
    )


@pytest.fixture(scope="module")
def series_sweep():
    return execute_sweep(
        SweepSpec("fig15-environment", seed_range(3), smoke=True),
        ExecutionProfile(workers=2, backend="thread", no_cache=True),
    )


class TestRoundTrip:
    def test_rates_write_read_equal(self, rates_sweep):
        text = sweep_to_json(rates_sweep)
        assert load_sweep(text) == sweep_to_payload(rates_sweep)

    def test_series_write_read_equal(self, series_sweep):
        text = sweep_to_json(series_sweep)
        assert load_sweep(text) == sweep_to_payload(series_sweep)

    def test_timing_fields_survive(self, series_sweep):
        payload = load_sweep(sweep_to_json(series_sweep))
        timing = payload["timing"]
        assert timing["wall_seconds"] > 0.0
        assert timing["seeds"] == 3
        assert timing["workers"] == 2
        assert timing["backend"] == "thread"
        assert timing["chunk_size"] >= 1

    def test_cache_fields_survive(self, rates_sweep, series_sweep):
        # These sweeps ran without a cache_dir: accounting says so.
        payload = load_sweep(sweep_to_json(rates_sweep))
        assert payload["cache"] == {
            "enabled": False, "hits": 0, "misses": 0, "errors": 0,
        }
        assert load_sweep(sweep_to_json(series_sweep))["cache"][
            "enabled"
        ] is False

    def test_distributed_fields_survive(self, rates_sweep, tmp_path):
        # Pool sweeps carry an all-zero queue block...
        payload = load_sweep(sweep_to_json(rates_sweep))
        assert payload["distributed"] == {
            "tasks": 0, "steals": 0, "requeues": 0,
        }
        # ...while a distributed sweep exports its task count.
        sweep = execute_sweep(
            SweepSpec("fig15-environment", seed_range(3), smoke=True),
            ExecutionProfile(
                workers=0, backend="distributed", no_cache=True,
                queue_dir=tmp_path,
            ),
        )
        distributed = load_sweep(sweep_to_json(sweep))["distributed"]
        assert distributed["tasks"] == 3
        assert distributed["steals"] == 0
        assert distributed["requeues"] == 0

    def test_variance_fields_survive(self, rates_sweep, series_sweep):
        rates_payload = load_sweep(sweep_to_json(rates_sweep))
        assert set(rates_payload["variance"]) == {
            "success_rate", "unavailable_rate", "abuse_rate",
        }
        assert all(v >= 0.0 for v in rates_payload["variance"].values())

        series_payload = load_sweep(sweep_to_json(series_sweep))
        assert len(series_payload["variance"]) == len(
            series_payload["mean"]["values"]
        )

    def test_per_seed_results_survive_exactly(self, rates_sweep):
        payload = load_sweep(sweep_to_json(rates_sweep))
        assert len(payload["per_seed"]) == 3
        for exported, original in zip(
            payload["per_seed"], rates_sweep.per_seed
        ):
            assert exported["success_rate"] == original.success_rate
            assert exported["total_requests"] == original.total_requests


class TestResultFromPayload:
    """``sweep_result_from_payload`` is the exact inverse of the export
    — it is what lets ``RemoteClient`` hand back real ``SweepResult``
    objects instead of dicts."""

    def test_rates_round_trip(self, rates_sweep):
        rebuilt = sweep_result_from_payload(sweep_to_payload(rates_sweep))
        assert sweep_to_payload(rebuilt) == sweep_to_payload(rates_sweep)
        assert rebuilt.mean == rates_sweep.mean
        assert rebuilt.per_seed == rates_sweep.per_seed
        assert rebuilt.variance == rates_sweep.variance
        assert rebuilt.timing.backend == rates_sweep.timing.backend

    def test_series_round_trip(self, series_sweep):
        rebuilt = sweep_result_from_payload(
            sweep_to_payload(series_sweep)
        )
        assert sweep_to_payload(rebuilt) == sweep_to_payload(series_sweep)
        assert rebuilt.mean.label == series_sweep.mean.label
        assert rebuilt.mean.values == series_sweep.mean.values

    def test_round_trip_through_json_text(self, rates_sweep):
        payload = load_sweep(sweep_to_json(rates_sweep))
        rebuilt = sweep_result_from_payload(payload)
        assert sweep_to_payload(rebuilt) == sweep_to_payload(rates_sweep)


class TestValidation:
    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            load_sweep("[1, 2, 3]")

    def test_missing_keys_rejected(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        del payload["timing"]
        with pytest.raises(ValueError, match="missing keys.*timing"):
            load_sweep(json.dumps(payload))

    def test_bad_kind_rejected(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        payload["kind"] = "histogram"
        with pytest.raises(ValueError, match="bad sweep kind"):
            load_sweep(json.dumps(payload))

    def test_timing_without_wall_seconds_rejected(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        payload["timing"] = {"workers": 2}
        with pytest.raises(ValueError, match="wall_seconds"):
            load_sweep(json.dumps(payload))

    def test_per_seed_count_mismatch_rejected(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        payload["per_seed"] = payload["per_seed"][:-1]
        with pytest.raises(ValueError, match="per_seed"):
            load_sweep(json.dumps(payload))

    def test_missing_cache_block_defaults(self, rates_sweep):
        # Exports written before the cache existed must stay loadable.
        payload = sweep_to_payload(rates_sweep)
        del payload["cache"]
        loaded = load_sweep(json.dumps(payload))
        assert loaded["cache"] == {
            "enabled": False, "hits": 0, "misses": 0, "errors": 0,
        }

    def test_missing_errors_and_distributed_blocks_default(
        self, rates_sweep
    ):
        # Exports written before PR 4 lack the error count and the
        # queue block; both default so old artifacts stay comparable.
        payload = sweep_to_payload(rates_sweep)
        del payload["cache"]["errors"]
        del payload["distributed"]
        loaded = load_sweep(json.dumps(payload))
        assert loaded["cache"]["errors"] == 0
        assert loaded["distributed"] == {
            "tasks": 0, "steals": 0, "requeues": 0,
        }

    def test_missing_failed_seeds_defaults_to_empty(self, rates_sweep):
        # Exports written before the fault-tolerance layer carry no
        # failed_seeds; they load as a fully-healthy sweep.
        payload = sweep_to_payload(rates_sweep)
        del payload["failed_seeds"]
        loaded = load_sweep(json.dumps(payload))
        assert loaded["failed_seeds"] == []

    def test_failed_seeds_round_trip(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        payload["failed_seeds"] = [{
            "seed": 7, "error_type": "RuntimeError",
            "message": "boom", "attempts": 3,
            "traceback_digest": "0123456789abcdef",
        }]
        loaded = load_sweep(json.dumps(payload))
        assert loaded["failed_seeds"][0]["seed"] == 7
        assert loaded["failed_seeds"][0]["attempts"] == 3

    def test_non_list_failed_seeds_rejected(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        payload["failed_seeds"] = {"seed": 7}
        with pytest.raises(ValueError, match="failed_seeds"):
            load_sweep(json.dumps(payload))

    def test_cache_block_without_counts_rejected(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        payload["cache"] = {"enabled": True}
        with pytest.raises(ValueError, match="hits/misses"):
            load_sweep(json.dumps(payload))

    def test_distributed_block_without_counts_rejected(self, rates_sweep):
        payload = sweep_to_payload(rates_sweep)
        payload["distributed"] = {"tasks": 1}
        with pytest.raises(ValueError, match="steals/requeues"):
            load_sweep(json.dumps(payload))
