"""Tests for the Fig. 15 dynamic-environment simulation."""

import pytest

from repro.simulation.config import EnvironmentConfig
from repro.simulation.environment import EnvironmentSimulation


CONFIG = EnvironmentConfig(runs=60)


@pytest.fixture(scope="module")
def result():
    return EnvironmentSimulation(CONFIG, seed=7).run()


class TestCurves:
    def test_lengths_match_schedule(self, result):
        for series in result.curves().values():
            assert len(series.values) == 300

    def test_control_converges_to_actual(self, result):
        tail = result.no_influence.values[80:100]
        assert sum(tail) / len(tail) == pytest.approx(0.8, abs=0.05)

    def test_traditional_follows_degraded_rate(self, result):
        # During the hostile phase the raw tracker approaches 0.8*0.4.
        tail = result.traditional.values[180:200]
        assert sum(tail) / len(tail) == pytest.approx(0.32, abs=0.06)

    def test_proposed_recovers_intrinsic_competence(self, result):
        # The de-biased tracker stays near the actual 0.8 in all phases.
        for window in ((80, 100), (170, 200), (280, 300)):
            tail = result.proposed.values[window[0]:window[1]]
            assert sum(tail) / len(tail) == pytest.approx(0.8, abs=0.12)

    def test_effective_rate_reflects_schedule(self, result):
        values = result.effective_rate.values
        assert values[50] == pytest.approx(0.8)
        assert values[150] == pytest.approx(0.32)
        assert values[250] == pytest.approx(0.56)

    def test_traditional_shows_delay_after_step(self, result):
        # Just after the environment drops, the traditional tracker is
        # still far from its new level — the "delay" the paper annotates.
        value_at_step = result.traditional.values[102]
        assert value_at_step > 0.5


class TestErrors:
    def test_proposed_tracks_better_than_traditional(self, result):
        errors = result.tracking_errors(CONFIG.actual_success_rate)
        assert errors["proposed"] < 0.5 * errors["traditional"]

    def test_control_error_small(self, result):
        errors = result.tracking_errors(CONFIG.actual_success_rate)
        assert errors["no_influence"] < 0.05


class TestMechanics:
    def test_deterministic(self):
        config = EnvironmentConfig(runs=5)
        a = EnvironmentSimulation(config, seed=2).run()
        b = EnvironmentSimulation(config, seed=2).run()
        assert a.proposed.values == b.proposed.values

    def test_custom_schedule(self):
        config = EnvironmentConfig(
            runs=3, schedule=((10, 1.0), (10, 0.5))
        )
        result = EnvironmentSimulation(config, seed=1).run()
        assert len(result.proposed.values) == 20
