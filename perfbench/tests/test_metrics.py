"""The benchmark's own metric code: percentiles, names, error counting."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import metrics, tracing, workloads
from repro.simulation.results import RateSummary

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles -------------------------------------------------------------

def test_p90_needs_one_hundred_samples_for_ten_beyond_it():
    assert metrics.min_samples(90) == 100
    assert metrics.samples_beyond(100, 90) == 10
    assert metrics.samples_beyond(99, 90) == 9
    assert metrics.min_samples(50, beyond=10) == 20


def test_tail_summary_reports_the_nearest_rank_and_the_sample_count():
    values = [float(value) for value in range(1, 101)]  # 1..100
    summary = metrics.tail_summary(list(reversed(values)), 90)
    assert summary.value == 90.0  # ten samples (91..100) lie beyond it
    assert summary.count == 100
    assert summary.median == 50.5


def test_tail_summary_refuses_too_few_samples():
    with pytest.raises(ValueError, match="needs 100 samples"):
        metrics.tail_summary([1.0] * 99, 90)


def test_summarize_gives_median_quartiles_and_count():
    summary = metrics.summarize([4.0, 1.0, 3.0, 2.0])
    assert (summary.value, summary.count) == (2.5, 4)
    assert summary.q1 < summary.median < summary.q3
    single = metrics.summarize([7.0])
    assert (single.q1, single.median, single.q3, single.count) == (
        7.0, 7.0, 7.0, 1,
    )


# -- names -------------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "setup_s", "cache.put.failed", "campaign-cold", "p90", "9lives",
    "a" * 64,
])
def test_valid_names(name):
    assert metrics.valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_leading", ".dot", "-dash", "has space", "slash/name", "a" * 65,
    "ünicode", "name!",
])
def test_invalid_names(name):
    assert not metrics.valid_name(name)


def test_benchmark_json_names_match_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        [entry["name"] for entry in bench["workloads"]]
        + [entry["name"] for entry in bench["end_to_end"]]
        + [entry["name"] for entry in bench["per_layer"]]
    )
    assert all(metrics.valid_name(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(tracing.WORKLOADS)
    assert set(workloads.WORKLOAD_TYPES) == set(tracing.WORKLOADS)
    assert {
        entry["name"]: entry["unit"] for entry in bench["end_to_end"]
    } == workloads.END_TO_END
    assert [
        (entry["name"], entry["unit"]) for entry in bench["per_layer"]
    ] == [(metric.name, metric.unit) for metric in tracing.LAYER_METRICS]
    units = [entry["unit"] for entry in bench["end_to_end"]] + [
        entry["unit"] for entry in bench["per_layer"]
    ]
    assert all(metrics.valid_unit(unit) for unit in units)


def test_every_bypass_expectation_names_known_workloads():
    for metric in tracing.LAYER_METRICS:
        assert set(metric.moves) <= set(tracing.WORKLOADS)
        assert set(metric.bypassed) <= set(tracing.WORKLOADS)
        assert not set(metric.moves) & set(metric.bypassed)


def test_bypass_violations_flag_zero_movers_and_nonzero_bypasses():
    values = {metric.name: 1.0 for metric in tracing.LAYER_METRICS}
    problems = tracing.bypass_violations(tracing.WARM, values)
    assert "core.rank.count: 1.0, expected 0" in problems
    values = {metric.name: 0.0 for metric in tracing.LAYER_METRICS}
    problems = tracing.bypass_violations(tracing.WARM, values)
    assert "cache.get.count: 0, expected non-zero" in problems
    del values["cache.hit_ratio"]
    assert "cache.hit_ratio: not reported" in tracing.bypass_violations(
        tracing.COLD, values
    )


# -- error counting ----------------------------------------------------------

def _rates(value):
    return RateSummary(
        success_rate=value, unavailable_rate=0.0, abuse_rate=0.0,
        total_requests=10,
    )


def _sweep(per_seed, seeds=(1, 2, 3), mean=None, failed=()):
    from repro.simulation.runner import combine_rates

    return SimpleNamespace(
        scenario="fig7-mutuality", kind="rates", seeds=list(seeds),
        per_seed=list(per_seed), failed_seeds=list(failed),
        mean=combine_rates(per_seed) if mean is None else mean,
    )


EXPECTED = {("fig7-mutuality", seed): _rates(seed / 10) for seed in (1, 2, 3)}


def test_matching_sweep_has_no_errors():
    sweep = _sweep([_rates(0.1), _rates(0.2), _rates(0.3)])
    assert workloads.sweep_errors(
        sweep, "fig7-mutuality", (1, 2, 3), EXPECTED) == 0


def test_each_wrong_seed_is_one_error():
    sweep = _sweep([_rates(0.1), _rates(0.9), _rates(0.3)])
    assert workloads.sweep_errors(
        sweep, "fig7-mutuality", (1, 2, 3), EXPECTED) == 1


def test_a_wrong_mean_failed_seed_or_seed_list_fails_the_whole_sweep():
    good = [_rates(0.1), _rates(0.2), _rates(0.3)]
    cases = [
        _sweep(good, mean=_rates(0.5)),
        _sweep(good, failed=[{"seed": 2}]),
        _sweep(good[:2], seeds=(1, 2)),
    ]
    for sweep in cases:
        assert workloads.sweep_errors(
            sweep, "fig7-mutuality", (1, 2, 3), EXPECTED) == 3


def test_error_rate():
    assert metrics.error_rate(100, 0) == 0.0
    assert metrics.error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        metrics.error_rate(0, 0)
    with pytest.raises(ValueError):
        metrics.error_rate(3, 4)
