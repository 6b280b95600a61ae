"""Tests for the three IoT experiments (Figs. 8, 14, 16 shapes)."""

import pytest

from repro.iotnet.experiments import (
    ActiveTimeExperiment,
    InferenceExperiment,
    LightingExperiment,
)
from repro.iotnet.network import ExperimentalNetwork
from repro.iotnet.sensors import LightEnvironment, LightPhase


class TestInferenceExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return InferenceExperiment(runs=30, seed=11).run()

    def test_series_lengths(self, result):
        assert len(result.with_model) == 30
        assert len(result.without_model) == 30

    def test_with_model_beats_without(self, result):
        # Fig. 8's headline: inference finds the honest devices.
        assert result.mean_with() > result.mean_without() + 20.0

    def test_without_model_is_near_chance(self, result):
        # Blind choice among 2 honest + 2 dishonest -> ~50%.
        assert 30.0 <= result.mean_without() <= 70.0

    def test_with_model_high(self, result):
        assert result.mean_with() >= 85.0

    def test_percentages_in_range(self, result):
        for value in result.with_model + result.without_model:
            assert 0.0 <= value <= 100.0

    def test_reports_reach_coordinator(self):
        network = ExperimentalNetwork(seed=5)
        experiment = InferenceExperiment(network=network, runs=2, seed=5)
        experiment.run()
        # 10 trustors x 2 runs reports collected.
        assert len(network.coordinator.collected_reports) == 20

    def test_deterministic(self):
        a = InferenceExperiment(runs=5, seed=9).run()
        b = InferenceExperiment(runs=5, seed=9).run()
        assert a.with_model == b.with_model


class TestActiveTimeExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return ActiveTimeExperiment(tasks_per_trustor=40, seed=11).run()

    def test_series_lengths(self, result):
        assert len(result.with_model) == 40
        assert len(result.without_model) == 40

    def test_without_model_stays_high(self, result):
        head = sum(result.without_model[:5]) / 5
        tail = sum(result.without_model[-5:]) / 5
        assert tail >= 0.8 * head

    def test_with_model_detects_attack(self, result):
        # Fig. 14: active time shortens once costs are evaluated.
        head = sum(result.with_model[:3]) / 3
        tail = sum(result.with_model[-10:]) / 10
        assert tail < 0.4 * head

    def test_with_model_ends_below_without(self, result):
        assert result.with_model[-1] < 0.5 * result.without_model[-1]

    def test_active_times_positive(self, result):
        for value in result.with_model + result.without_model:
            assert value > 0.0


class TestLightingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return LightingExperiment(seed=11).run()

    def test_series_cover_schedule(self, result):
        assert len(result.with_model) == 50
        assert len(result.labels) == 50

    def test_final_light_phase_recovery(self, result):
        # Fig. 16: with the environment factor the net profit returns to
        # a high level after the dark period; without it, it does not.
        with_mean = result.final_phase_mean(result.with_model)
        without_mean = result.final_phase_mean(result.without_model)
        assert with_mean > without_mean

    def test_first_light_phase_similar(self, result):
        # Before the dark period both policies behave alike.
        first_with = sum(result.with_model[:15]) / 15
        first_without = sum(result.without_model[:15]) / 15
        assert first_with == pytest.approx(first_without, rel=0.35)

    def test_dark_phase_is_depressed(self, result):
        dark = [
            value for value, label in zip(result.with_model, result.labels)
            if label == "DARK"
        ]
        light_first = result.with_model[:15]
        assert max(dark) < sum(light_first) / len(light_first)

    def test_custom_schedule(self):
        schedule = LightEnvironment([
            LightPhase(5, 500.0, "LIGHT"),
            LightPhase(5, 10.0, "DARK"),
            LightPhase(5, 500.0, "LIGHT"),
        ])
        result = LightingExperiment(schedule=schedule, seed=2).run()
        assert len(result.with_model) == 15

    def test_reports_reach_coordinator(self):
        """Fig. 16 exchanges real report frames with the coordinator."""
        network = ExperimentalNetwork(seed=2)
        schedule = LightEnvironment([
            LightPhase(4, 500.0, "LIGHT"),
            LightPhase(4, 15.0, "DARK"),
            LightPhase(4, 500.0, "LIGHT"),
        ])
        LightingExperiment(network=network, schedule=schedule, seed=2).run()
        # 10 trustors x 12 experiments x 2 policies.
        assert len(network.coordinator.collected_reports) == 240
