"""Tests for the named scenario registry."""

import ast
import pickle
from pathlib import Path

import pytest

import repro
from repro.simulation import registry
from repro.simulation.results import RateSummary, SeriesResult
from repro.simulation.scenario import build_scenario
from repro.socialnet.datasets import NETWORK_PROFILES

EXPECTED_SCENARIOS = {
    "fig7-mutuality",
    "fig9-transitivity",
    "table2-properties",
    "fig13-delegation",
    "fig15-environment",
    "eq24-selfdelegation",
    "fig8-inference",
    "fig14-activetime",
    "fig16-light",
    # The remaining bench families, folded in so `repro sweep` can drive
    # every bench through a named spec.
    "table1-connectivity",
    "fig12-overhead",
    "ablation-attacks",
    "ablation-beta",
    "ablation-combiner",
    "ablation-energy",
    "ablation-timedecay",
    "ablation-whitewashing",
}


class TestLookup:
    def test_every_bench_family_registered(self):
        assert EXPECTED_SCENARIOS <= set(registry.names())

    def test_names_sorted(self):
        assert registry.names() == sorted(registry.names())

    def test_specs_align_with_names(self):
        assert [spec.name for spec in registry.specs()] == registry.names()

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(KeyError, match="fig7-mutuality"):
            registry.get("fig99-nope")

    def test_kinds_valid(self):
        assert all(
            spec.kind in ("rates", "series") for spec in registry.specs()
        )


class TestParams:
    def test_defaults_then_smoke_then_overrides(self):
        spec = registry.get("fig7-mutuality")
        params = spec.params(smoke=True, threshold=0.6)
        assert params["network"] == "twitter"  # smoke override
        assert params["threshold"] == 0.6  # explicit override
        assert params["warmup_interactions"] == 5  # smoke override

    def test_unknown_override_rejected(self):
        spec = registry.get("fig7-mutuality")
        with pytest.raises(ValueError, match="unknown parameter"):
            spec.params(warp_factor=9)

    def test_smoke_keys_are_subset_of_defaults(self):
        for spec in registry.specs():
            assert set(spec.smoke) <= set(spec.defaults), spec.name


class TestRun:
    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_reduced_type_matches_kind(self, name):
        spec = registry.get(name)
        result = spec.run(seed=1, smoke=True)
        expected = RateSummary if spec.kind == "rates" else SeriesResult
        assert isinstance(result, expected)

    def test_bound_is_picklable(self):
        for spec in registry.specs():
            pickle.dumps(spec.bound(smoke=True))

    def test_bound_equals_run(self):
        spec = registry.get("fig15-environment")
        assert spec.bound(smoke=True)(4) == spec.run(seed=4, smoke=True)

    def test_run_is_deterministic_per_seed(self):
        spec = registry.get("fig7-mutuality")
        assert spec.run(seed=2, smoke=True) == spec.run(seed=2, smoke=True)
        assert spec.run(seed=2, smoke=True) != spec.run(seed=3, smoke=True)


@pytest.fixture
def builds(monkeypatch):
    """The ``(network, seed)`` of every network load, starting from an
    empty arena store (emptied again afterwards)."""
    from repro.socialnet import datasets

    calls = []
    original = datasets.load_network

    def spy_load(name, seed=0):
        calls.append((name, seed))
        return original(name, seed=seed)

    monkeypatch.setattr(datasets, "load_network", spy_load)
    registry.clear_arenas()
    yield calls
    registry.clear_arenas()


# The 25 twitter smoke runs that used to hold 25 arenas: 20 Fig. 7
# thresholds, both Fig. 13 strategies and the three transitivity specs.
_ONE_NETWORK_RUNS = (
    [("fig7-mutuality", {"threshold": index / 20}) for index in range(20)]
    + [("fig13-delegation", {"strategy": "first"}),
       ("fig13-delegation", {"strategy": "second"}),
       ("fig9-transitivity", {}), ("table2-properties", {}),
       ("fig12-overhead", {})]
)


class TestArenas:
    def test_network_arena_is_shared_across_seeds(self, builds):
        spec = registry.get("fig7-mutuality")
        spec.run_full(seed=1, smoke=True)
        spec.run_full(seed=2, smoke=True)
        assert builds == [("twitter", 0)]
        assert registry.arena_store_size() == 1

    def test_one_arena_per_network_across_scenarios_and_params(self, builds):
        for name, overrides in _ONE_NETWORK_RUNS:
            registry.get(name).run(seed=1, smoke=True, **overrides)
        assert len(_ONE_NETWORK_RUNS) == 25
        assert registry.arena_store_size() == 1
        assert builds == [("twitter", 0)]

    def test_each_network_and_graph_seed_gets_its_own_arena(self, builds):
        spec = registry.get("eq24-selfdelegation")
        spec.run(seed=1, smoke=True)
        spec.run(seed=1, smoke=True, graph_seed=1)
        spec.run(seed=2, smoke=True, graph_seed=1)
        assert builds == [("twitter", 0), ("twitter", 1)]
        assert registry.arena_store_size() == 2

    def test_warm_arena_prebuilds(self, builds):
        spec = registry.get("fig13-delegation")
        registry.warm_arena(spec.name, spec.params_key(smoke=True))
        assert builds == [("twitter", 0)]
        spec.run(seed=5, smoke=True, strategy="first")
        assert builds == [("twitter", 0)]

    @pytest.mark.parametrize(
        "name", ["no-such-scenario", "fig15-environment",
                 "table1-connectivity"],
    )
    def test_warm_arena_builds_nothing_without_a_network(self, builds, name):
        params = (
            registry.get(name).params_key(smoke=True)
            if name in registry.names()
            else (("graph_seed", 0), ("network", "twitter"))
        )
        registry.warm_arena(name, params)
        assert builds == []
        assert registry.arena_store_size() == 0

    def test_warm_arena_builds_what_the_first_seed_builds(self, builds):
        """A scenario has an arena iff its params carry ``graph_seed``,
        and a warmed scenario's seed builds nothing more."""
        for spec in registry.specs():
            registry.clear_arenas()
            registry.warm_arena(spec.name, spec.params_key(smoke=True))
            warmed = registry.arena_store_size()
            assert warmed == ("graph_seed" in spec.params()), spec.name
            spec.run(seed=1, smoke=True)
            assert registry.arena_store_size() == warmed, spec.name

    def test_clear_arenas_forces_rebuild(self, builds):
        spec = registry.get("fig7-mutuality")
        spec.run(seed=1, smoke=True)
        registry.clear_arenas()
        spec.run(seed=1, smoke=True)
        assert builds == [("twitter", 0)] * 2

    def test_vectorized_twin_shares_the_base_arena(self):
        names = ("fig7-mutuality", "fig7-mutuality-vectorized")
        fresh = {}
        for name in names:
            registry.clear_arenas()
            fresh[name] = registry.get(name).run(seed=1, smoke=True)
        registry.clear_arenas()
        try:
            shared = {
                name: registry.get(name).run(seed=1, smoke=True)
                for name in names
            }
            assert registry.arena_store_size() == 1
        finally:
            registry.clear_arenas()
        assert shared == fresh

    def test_unhashable_override_values_are_normalized(self):
        # A list override must work (hash into the cache key) exactly
        # like the equivalent tuple.
        spec = registry.get("ablation-beta")
        as_list = spec.params_key(smoke=True, betas=[0.5, 0.9])
        as_tuple = spec.params_key(smoke=True, betas=(0.5, 0.9))
        assert as_list == as_tuple
        hash(as_list)
        result = spec.run(seed=1, smoke=True, betas=[0.5, 0.9])
        assert result == spec.run(seed=1, smoke=True, betas=(0.5, 0.9))

    def test_container_overrides_identical_across_paths(self):
        # params() normalizes once, so the direct path (run_full) and
        # the pool path (bound) see byte-identical parameters even for
        # a set-valued override.
        spec = registry.get("ablation-beta")
        betas = {0.9, 0.5, 0.98, 0.8}
        direct = spec.run(seed=1, smoke=True, betas=betas)
        pooled = spec.bound(smoke=True, betas=betas)(1)
        assert direct == pooled
        assert spec.params(smoke=True, betas=betas)["betas"] == (
            0.5, 0.8, 0.9, 0.98,
        )


class TestHoods:
    """The arena's presorted neighbourhoods, filtered by a seed's trustee
    set, are exactly ``Scenario.trustee_neighbors``: the BFS per trustor
    the Fig. 7, Fig. 13 and Eq. 24 seeds no longer run."""

    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("network", sorted(NETWORK_PROFILES))
    def test_filtered_hoods_equal_trustee_neighbors(self, network, hops):
        arena = registry._arena(network, 0)
        graph, hoods = arena["graph"], arena["hoods"][hops]
        assert hoods == registry._hoods(graph, hops)
        for seed in (1, 2):
            scenario = build_scenario(graph, seed)
            trustee_set = scenario.trustee_set
            for node in graph.nodes():
                filtered = [n for n in hoods[node] if n in trustee_set]
                assert filtered == scenario.trustee_neighbors(node, hops)

    @pytest.mark.parametrize(
        "name, simulation, hops",
        [("fig7-mutuality", "MutualitySimulation", 2),
         ("fig13-delegation", "DelegationSimulation", 2),
         ("eq24-selfdelegation", "SelfDelegationSimulation", 1)],
    )
    def test_seeds_filter_the_hoods_of_their_hop_count(
        self, monkeypatch, name, simulation, hops
    ):
        given = []
        base = getattr(registry, simulation)

        class Spy(base):
            def __init__(self, *args, hoods, **kwargs):
                given.append(hoods)
                super().__init__(*args, hoods=hoods, **kwargs)

        monkeypatch.setattr(registry, simulation, Spy)
        registry.get(name).run(seed=1, smoke=True)
        arena = registry._arena("twitter", 0)
        assert len(given) == 1
        assert given[0] is arena["hoods"][hops]


_ROOT = Path(__file__).resolve().parents[2]
_SIMULATION_DIR = Path(repro.__file__).parent / "simulation"


def _experiment_sweeps():
    """The ``sweep_*`` helpers of the simulation modules (the modules
    that define a ``*Simulation`` class)."""
    names = set()
    for path in sorted(_SIMULATION_DIR.glob("*.py")):
        body = ast.parse(path.read_text()).body
        if any(
            isinstance(node, ast.ClassDef)
            and node.name.endswith("Simulation")
            for node in body
        ):
            names.update(
                node.name for node in body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("sweep_")
            )
    return names


class TestOnePath:
    """The artifact commands and the benches build every experiment
    through the registry: neither instantiates a ``*Simulation`` or
    ``*Experiment`` class, loads a network, reports connectivity or
    calls a simulation module's ``sweep_*`` helper.  Constants and core
    formulas stay free to use."""

    @pytest.mark.parametrize("path", [
        _ROOT / "src" / "repro" / "cli.py",
        *sorted((_ROOT / "benchmarks").glob("bench_*.py")),
    ], ids=lambda path: path.name)
    def test_builds_no_experiment_outside_the_registry(self, path):
        helpers = {"load_network", "connectivity_report"}
        helpers |= _experiment_sweeps()
        builds = []
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name is not None and (
                name.endswith(("Simulation", "Experiment"))
                or name in helpers
            ):
                builds.append(f"{path.name}:{node.lineno} {name}")
        assert builds == []

    def test_the_sweep_helpers_are_found(self):
        assert "sweep_thresholds" in _experiment_sweeps()
