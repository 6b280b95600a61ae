"""Tests for the Fig. 13 delegation-results simulation."""

import pickle
from dataclasses import dataclass

import pytest

from repro.core.policy import (
    NetProfitPolicy,
    SelectionPolicy,
    SuccessRatePolicy,
)
from repro.core.records import OutcomeFactors
from repro.core.update import ForgettingUpdater
from repro.simulation import registry
from repro.simulation.config import DelegationConfig
from repro.simulation.delegation import DelegationSimulation
from repro.simulation.rng import spawn
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


@dataclass(frozen=True)
class _CoarsePolicy(SelectionPolicy):
    """Net profit rounded to one decimal: most rows hold ties."""

    def score(self, factors):
        return round(factors.net_profit(), 1)


def _rescore_every_iteration(simulation, policy, label):
    """The Fig. 13 loop as first written: every delegation re-ranks all
    of the trustor's candidates through ``policy.select``."""
    updater = ForgettingUpdater.uniform(simulation.config.beta)
    graph = simulation.graph.name
    rng = spawn(simulation.seed, "delegation", "run", graph, label)
    init_rng = spawn(simulation.seed, "delegation", "init", graph)
    expected = {
        key: OutcomeFactors(
            success_rate=init_rng.random(), gain=init_rng.random(),
            damage=init_rng.random(), cost=init_rng.random(),
        )
        for key in simulation._truth
    }
    active = [
        trustor for trustor in simulation.scenario.trustors
        if simulation._candidates[trustor]
    ]
    values = []
    for _ in range(simulation.config.iterations):
        total = 0.0
        for trustor in active:
            trustee, _score = policy.select(
                (cand, expected[(trustor, cand)])
                for cand in simulation._candidates[trustor]
            )
            truth = simulation._truth[(trustor, trustee)]
            succeeded = rng.random() < truth.success_rate
            gain = truth.gain if succeeded else 0.0
            damage = 0.0 if succeeded else truth.damage
            total += gain - damage - truth.cost
            previous = expected[(trustor, trustee)]
            expected[(trustor, trustee)] = updater.update(
                previous,
                OutcomeFactors(
                    success_rate=1.0 if succeeded else 0.0,
                    gain=gain if succeeded else previous.gain,
                    damage=previous.damage if succeeded else damage,
                    cost=truth.cost,
                ),
            )
        values.append(total / len(active) if active else 0.0)
    return values


class TestIncrementalArgmax:
    """``run`` re-scores only the updated candidate and takes the row's
    first maximum; that must pick what a full re-ranking picks."""

    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize(
        "policy", [SuccessRatePolicy(), NetProfitPolicy(), _CoarsePolicy()],
        ids=lambda policy: type(policy).__name__,
    )
    def test_equals_full_rescoring(self, seed, policy):
        simulation = DelegationSimulation(
            twitter(seed=0), DelegationConfig(iterations=60), seed=seed
        )
        got = simulation.run(policy, "probe").series.values
        assert got == _rescore_every_iteration(simulation, policy, "probe")

    def test_ties_break_toward_the_first_candidate(self):
        # Every candidate scores the same: both paths must keep choosing
        # the first one, so ties are actually exercised.
        class Flat(SelectionPolicy):
            def score(self, factors):
                return 0.0

        simulation = DelegationSimulation(
            twitter(seed=0), DelegationConfig(iterations=20), seed=2
        )
        assert simulation.run(Flat(), "flat").series.values == (
            _rescore_every_iteration(simulation, Flat(), "flat")
        )


class TestHoods:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_arena_hoods_give_the_bfs_candidates(self, seed):
        graph = twitter(seed=0)
        config = DelegationConfig(iterations=30)
        bfs = DelegationSimulation(graph, config, seed=seed)
        hooded = DelegationSimulation(
            graph, config, seed=seed, hoods=registry._hoods(graph, 2)
        )
        assert hooded._candidates == bfs._candidates
        assert hooded._truth == bfs._truth
        policy = NetProfitPolicy()
        assert hooded.run(policy, "x") == bfs.run(policy, "x")
