"""Tests for the Eq. 24 self-delegation simulation."""

import pytest

from repro.simulation import registry
from repro.simulation.selfdelegation import SelfDelegationSimulation
from repro.socialnet.datasets import twitter


@pytest.fixture(scope="module")
def result():
    return SelfDelegationSimulation(
        twitter(seed=0), tasks_per_trustor=60, seed=1
    ).run()


class TestEq24Rule:
    def test_eq24_at_least_always_self(self, result):
        assert result.eq24 >= result.always_self - 0.02

    def test_eq24_at_least_always_delegate(self, result):
        assert result.eq24 >= result.always_delegate - 0.02

    def test_mix_of_modes(self, result):
        # With heterogeneous self-competence, Eq. 24 sends some tasks
        # out and keeps others.
        assert 0.05 < result.eq24_delegation_share < 0.95

    def test_as_row_keys(self, result):
        row = result.as_row()
        assert set(row) == {
            "always-self", "always-delegate", "eq24",
            "eq24 delegation share",
        }


class TestMechanics:
    def test_deterministic(self):
        graph = twitter(seed=0)
        a = SelfDelegationSimulation(graph, tasks_per_trustor=10,
                                     seed=4).run()
        b = SelfDelegationSimulation(graph, tasks_per_trustor=10,
                                     seed=4).run()
        assert a == b

    def test_self_execution_has_no_delegation_cost(self):
        simulation = SelfDelegationSimulation(
            twitter(seed=0), tasks_per_trustor=1, seed=2
        )
        for factors in simulation.self_factors.values():
            assert factors.cost == 0.0
            assert factors.success_rate >= 0.5

    def test_candidates_are_one_hop_capped(self):
        simulation = SelfDelegationSimulation(
            twitter(seed=0), tasks_per_trustor=1, seed=2
        )
        for candidates in simulation.candidate_factors.values():
            assert len(candidates) <= 5


class TestHoods:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_arena_hoods_give_the_bfs_candidates(self, seed):
        graph = twitter(seed=0)
        bfs = SelfDelegationSimulation(graph, tasks_per_trustor=5, seed=seed)
        hooded = SelfDelegationSimulation(
            graph, tasks_per_trustor=5, seed=seed,
            hoods=registry._hoods(graph, 1),
        )
        assert hooded.candidate_factors == bfs.candidate_factors
        assert hooded.self_factors == bfs.self_factors
        assert hooded.run() == bfs.run()
