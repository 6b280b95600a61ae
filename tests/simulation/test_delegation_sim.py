"""Tests for the Fig. 13 delegation-results simulation."""

import pickle

import pytest

from repro.core.policy import NetProfitPolicy, SuccessRatePolicy
from repro.simulation.config import DelegationConfig
from repro.simulation.delegation import DelegationSimulation
from repro.socialnet.datasets import twitter


@pytest.fixture(scope="module")
def both_series():
    graph = twitter(seed=0)
    simulation = DelegationSimulation(
        graph, DelegationConfig(iterations=800), seed=3
    )
    return _both_strategies(simulation)


def _both_strategies(simulation):
    """(strategy 1, strategy 2) series: the two curves of Fig. 13."""
    return (
        simulation.run(SuccessRatePolicy(), "first strategy"),
        simulation.run(NetProfitPolicy(), "second strategy"),
    )


class TestShapes:
    def test_series_lengths(self, both_series):
        first, second = both_series
        assert len(first.series.values) == 800
        assert len(second.series.values) == 800

    def test_second_strategy_converges_higher(self, both_series):
        # Fig. 13's headline: evaluating gain/damage/cost beats success
        # rate alone.
        first, second = both_series
        assert second.converged_profit(200) > first.converged_profit(200)

    def test_second_strategy_profit_positive(self, both_series):
        _, second = both_series
        assert second.converged_profit(200) > 0.05

    def test_first_strategy_no_better_than_breakeven(self, both_series):
        first, _ = both_series
        assert first.converged_profit(200) < 0.05

    def test_second_strategy_improves_over_time(self, both_series):
        _, second = both_series
        head = sum(second.series.values[:50]) / 50
        tail = second.converged_profit(200)
        assert tail > head

    def test_labels(self, both_series):
        first, second = both_series
        assert "first" in first.strategy
        assert "second" in second.strategy


class TestMechanics:
    def test_deterministic(self):
        graph = twitter(seed=0)
        config = DelegationConfig(iterations=50)
        a = _both_strategies(DelegationSimulation(graph, config, seed=5))
        b = _both_strategies(DelegationSimulation(graph, config, seed=5))
        assert a[1].series.values == b[1].series.values

    def test_profit_bounded_by_stakes(self):
        # Realized per-iteration profit averages within [-2, 1] since all
        # stakes are in [0, 1].
        graph = twitter(seed=0)
        simulation = DelegationSimulation(
            graph, DelegationConfig(iterations=50), seed=5
        )
        series = simulation.run(NetProfitPolicy(), "probe")
        for value in series.series.values:
            assert -2.0 <= value <= 1.0

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_strategies_on_one_simulation_equal_fresh_ones(self, seed):
        # ``run`` leaves its simulation as it found it, so the
        # ``fig13-delegation`` scenario may build one per strategy.
        graph = twitter(seed=0)
        config = DelegationConfig(iterations=40)
        fresh = (
            DelegationSimulation(graph, config, seed=seed).run(
                SuccessRatePolicy(), "first strategy"),
            DelegationSimulation(graph, config, seed=seed).run(
                NetProfitPolicy(), "second strategy"),
        )
        shared = DelegationSimulation(graph, config, seed=seed)
        before = pickle.dumps(shared.__dict__)
        assert _both_strategies(shared) == fresh
        assert pickle.dumps(shared.__dict__) == before
        second = shared.run(NetProfitPolicy(), "second strategy")
        first = shared.run(SuccessRatePolicy(), "first strategy")
        assert (first, second) == fresh
        assert pickle.dumps(shared.__dict__) == before
