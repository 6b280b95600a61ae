"""Tests for the Figs. 9-12 / Table 2 transitivity simulation."""

import pickle

import pytest

from repro.core.transitivity import TransitivityMode
from repro.simulation.config import TransitivityConfig
from repro.simulation.transitivity import TransitivitySimulation
from repro.socialnet.datasets import twitter


@pytest.fixture(scope="module")
def graph():
    return twitter(seed=0)


@pytest.fixture(scope="module")
def simulation(graph):
    return TransitivitySimulation(
        graph, TransitivityConfig(num_characteristics=4), seed=3
    )


@pytest.fixture(scope="module")
def by_mode(simulation):
    return {mode: simulation.run(mode) for mode in TransitivityMode}


class TestShapes:
    def test_rates_in_range(self, by_mode):
        for result in by_mode.values():
            assert 0.0 <= result.success_rate <= 1.0
            assert 0.0 <= result.unavailable_rate <= 1.0
            assert result.avg_potential_trustees >= 0.0

    def test_proposed_methods_beat_traditional_on_success(self, by_mode):
        traditional = by_mode[TransitivityMode.TRADITIONAL]
        for mode in (TransitivityMode.CONSERVATIVE,
                     TransitivityMode.AGGRESSIVE):
            assert by_mode[mode].success_rate > traditional.success_rate

    def test_proposed_methods_lower_unavailability(self, by_mode):
        traditional = by_mode[TransitivityMode.TRADITIONAL]
        for mode in (TransitivityMode.CONSERVATIVE,
                     TransitivityMode.AGGRESSIVE):
            assert by_mode[mode].unavailable_rate < \
                traditional.unavailable_rate

    def test_more_potential_trustees_found(self, by_mode):
        counts = {
            mode: result.avg_potential_trustees
            for mode, result in by_mode.items()
        }
        assert counts[TransitivityMode.AGGRESSIVE] > \
            counts[TransitivityMode.TRADITIONAL]
        assert counts[TransitivityMode.CONSERVATIVE] > \
            counts[TransitivityMode.TRADITIONAL]

    def test_aggressive_has_largest_search_overhead(self, by_mode):
        def mean_inquiries(result):
            counts = result.inquiry_counts
            return sum(counts) / len(counts)

        assert mean_inquiries(by_mode[TransitivityMode.AGGRESSIVE]) > \
            mean_inquiries(by_mode[TransitivityMode.CONSERVATIVE]) > \
            mean_inquiries(by_mode[TransitivityMode.TRADITIONAL])

    def test_inquiry_counts_sorted_for_fig12(self, by_mode):
        for result in by_mode.values():
            assert list(result.inquiry_counts) == sorted(result.inquiry_counts)


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self, graph):
        return [
            TransitivitySimulation(
                graph, TransitivityConfig(num_characteristics=count), seed=3
            ).run(TransitivityMode.AGGRESSIVE)
            for count in (4, 7)
        ]

    def test_success_decreases_with_more_characteristics(self, sweep):
        # The Fig. 9 trend: a larger task-type space starves the search.
        by_k = {r.num_characteristics: r for r in sweep}
        assert by_k[7].success_rate < by_k[4].success_rate

    def test_unavailability_increases_with_more_characteristics(self, sweep):
        by_k = {r.num_characteristics: r for r in sweep}
        assert by_k[7].unavailable_rate > by_k[4].unavailable_rate


class TestPropertyBasedVariant:
    def test_property_tasks_build_and_run(self, graph):
        simulation = TransitivitySimulation(
            graph, TransitivityConfig(num_characteristics=4), seed=3,
            property_based_tasks=True,
        )
        result = simulation.run(TransitivityMode.CONSERVATIVE)
        assert result.network == "twitter"
        assert all(
            task.name.startswith("ptask-") for task in simulation.catalog
        )

    def test_property_catalog_limits_characteristics(self, graph):
        simulation = TransitivitySimulation(
            graph, TransitivityConfig(num_characteristics=4), seed=3,
            property_based_tasks=True,
        )
        universe = set()
        for task in simulation.catalog:
            universe.update(task.characteristics)
        assert len(universe) <= 4


class TestDeterminism:
    def test_same_seed_same_result(self, graph):
        config = TransitivityConfig(num_characteristics=5)
        a = TransitivitySimulation(graph, config, seed=8).run(
            TransitivityMode.CONSERVATIVE
        )
        b = TransitivitySimulation(graph, config, seed=8).run(
            TransitivityMode.CONSERVATIVE
        )
        assert a == b


class TestSharedSimulation:
    """``run`` leaves its simulation as it found it, so the three methods
    may share one simulation: what ``fig12-overhead`` (and through it
    ``repro fig9`` and the Fig. 10/11 benches) relies on."""

    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("property_based_tasks", [False, True])
    def test_modes_on_one_simulation_equal_fresh_ones(
        self, graph, seed, property_based_tasks
    ):
        config = TransitivityConfig(num_characteristics=5)

        def simulation():
            return TransitivitySimulation(
                graph, config, seed=seed,
                property_based_tasks=property_based_tasks,
            )

        fresh = {mode: simulation().run(mode) for mode in TransitivityMode}
        shared = simulation()
        before = pickle.dumps(shared.__dict__)
        for order in (list(TransitivityMode), reversed(TransitivityMode)):
            for mode in order:
                assert shared.run(mode) == fresh[mode]
                assert pickle.dumps(shared.__dict__) == before
