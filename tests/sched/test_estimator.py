"""Cost-estimator provenance and scaling.

The estimator's contract is a strict source priority — the sweep's own
measured runtimes beat the family prior — plus linear workload scaling
so a ``runs=800`` override cannot hide a long pole.  Estimates only
steer the queue, so the tests check provenance and ordering, not
wall-clock accuracy.  The end-to-end path (cache entry metadata to
queue rank) is covered in ``test_queue_layout.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import estimate_sweep_cost, prior_seconds_per_seed

SCENARIO = "fig15-environment"


class TestPriors:
    def test_families_are_ordering_accurate(self):
        # The structural spread the planner relies on: the heavy table
        # scenarios dwarf the cheap single-run figures.
        assert (prior_seconds_per_seed("table1-connectivity")
                > prior_seconds_per_seed("fig7-mutuality")
                > prior_seconds_per_seed("fig15-environment"))

    def test_unknown_family_gets_the_default(self):
        assert prior_seconds_per_seed("fig99-nope") == pytest.approx(0.05)

    def test_workload_params_scale_linearly(self):
        base = prior_seconds_per_seed(SCENARIO)
        scaled = prior_seconds_per_seed(SCENARIO, (("runs", 800),))
        assert scaled == pytest.approx(base * 800)

    def test_non_numeric_and_bool_values_are_ignored(self):
        base = prior_seconds_per_seed(SCENARIO)
        assert prior_seconds_per_seed(
            SCENARIO, (("runs", "lots"), ("iterations", True))
        ) == pytest.approx(base)

    def test_non_positive_values_are_ignored(self):
        base = prior_seconds_per_seed(SCENARIO)
        assert prior_seconds_per_seed(
            SCENARIO, (("runs", 0), ("rounds", -5))
        ) == pytest.approx(base)

    @given(runs=st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=50)
    def test_scaling_is_monotone(self, runs):
        assert (prior_seconds_per_seed(SCENARIO, (("runs", runs + 1),))
                > prior_seconds_per_seed(SCENARIO, (("runs", runs),)))


class TestSourcePriority:
    def test_full_telemetry_is_observed(self):
        est = estimate_sweep_cost(
            SCENARIO, (), [1, 2], runtimes={1: 2.0, 2: 4.0},
        )
        assert est.source == "observed"
        assert est.observed_seeds == 2
        assert est.seconds_per_seed == pytest.approx(3.0)
        assert est.total_seconds == pytest.approx(6.0)

    def test_partial_telemetry_is_mixed_and_uses_observed_mean(self):
        # The sweep's own telemetry predicts its unobserved seeds, not
        # the family prior: same machine, same code, same params.
        est = estimate_sweep_cost(
            SCENARIO, (), [1, 2, 3, 4], runtimes={1: 8.0},
        )
        assert est.source == "mixed"
        assert est.observed_seeds == 1
        assert est.seconds_per_seed == pytest.approx(8.0)

    def test_sibling_seed_runtimes_price_the_queued_seeds(self):
        # A partially cached sweep queues only its missing seeds; the
        # cached seeds' runtimes price them, not the family prior.
        est = estimate_sweep_cost(
            SCENARIO, (), [5, 6, 7, 8],
            runtimes={1: 4.0, 2: 6.0, 3: 5.0, 4: 5.0},
        )
        assert est.source == "mixed"
        assert est.observed_seeds == 4
        assert est.seconds_per_seed == pytest.approx(5.0)
        assert est.total_seconds == pytest.approx(20.0)

    def test_no_signal_falls_back_to_prior(self):
        est = estimate_sweep_cost(SCENARIO, (("runs", 10),), [1, 2, 3])
        assert est.source == "prior"
        assert est.seconds_per_seed == pytest.approx(
            prior_seconds_per_seed(SCENARIO, (("runs", 10),))
        )

    def test_garbage_runtimes_are_ignored(self):
        est = estimate_sweep_cost(
            SCENARIO, (), [1, 2],
            runtimes={1: "soon", 2: -3.0, 99: None, 100: float("nan")},
        )
        assert est.source == "prior"

    def test_garbage_runtimes_do_not_dilute_the_observed_mean(self):
        est = estimate_sweep_cost(
            SCENARIO, (), [1, 2],
            runtimes={1: "soon", 2: -3.0, 99: 1.0},
        )
        assert est.source == "mixed"
        assert est.observed_seeds == 1
        assert est.seconds_per_seed == pytest.approx(1.0)

    def test_empty_seed_list_costs_nothing(self):
        est = estimate_sweep_cost(SCENARIO, (), [])
        assert est.seeds == 0
        assert est.total_seconds == 0.0


class TestTelemetryBeatsPrior:
    def test_runtimes_win_even_below_the_prior(self):
        # The prior is only a fallback: a measurement cheaper than the
        # family table still wins.
        params = (("runs", 1000),)
        assert prior_seconds_per_seed(SCENARIO, params) > 0.5
        est = estimate_sweep_cost(SCENARIO, params, [1], runtimes={1: 0.5})
        assert est.source == "observed"
        assert est.seconds_per_seed == pytest.approx(0.5)

    def test_one_estimate_per_sweep_orders_long_poles_first(self):
        heavy = estimate_sweep_cost("table1-connectivity", (), [1, 2])
        light = estimate_sweep_cost(SCENARIO, (), [3])
        assert heavy.total_seconds > light.total_seconds
        measured = estimate_sweep_cost(
            SCENARIO, (), [3], runtimes={1: 100.0},
        )
        assert measured.total_seconds > heavy.total_seconds
