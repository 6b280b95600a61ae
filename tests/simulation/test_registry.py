"""Tests for the named scenario registry."""

import ast
import pickle
from dataclasses import replace
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


def _build_counting(params):
    _BUILD_CALLS.append(dict(params))
    return {"token": object()}


def _seed_identity(arena, params, seed):
    return arena


def _reduce_noop(result):
    from repro.simulation.results import SeriesResult

    return SeriesResult("noop", [0.0])


_BUILD_CALLS = []


@pytest.fixture
def synthetic_spec(request):
    """Register a throwaway spec (cleaned up afterwards)."""
    def make(name, reusable):
        spec = registry.ScenarioSpec(
            name=name,
            kind="series",
            description="synthetic arena test spec",
            defaults={"knob": 1},
            _build=_build_counting,
            _seed_run=_seed_identity,
            _reduce=_reduce_noop,
            reusable=reusable,
        )
        registry._register(spec)
        request.addfinalizer(lambda: registry._REGISTRY.pop(name, None))
        return spec

    _BUILD_CALLS.clear()
    registry.clear_arenas()
    return make


class TestArenas:
    def test_build_once_is_shared_across_seeds(self, synthetic_spec):
        spec = synthetic_spec("synthetic-reusable", reusable=True)
        first = spec.build_once()
        second = spec.build_once()
        assert first is second
        assert len(_BUILD_CALLS) == 1
        # run_full goes through the same store: still no rebuild.
        spec.run_full(seed=1)
        spec.run_full(seed=2)
        assert len(_BUILD_CALLS) == 1

    def test_different_params_get_different_arenas(self, synthetic_spec):
        spec = synthetic_spec("synthetic-params", reusable=True)
        assert spec.build_once() is not spec.build_once(knob=2)
        assert len(_BUILD_CALLS) == 2

    def test_non_reusable_spec_rebuilds_per_seed(self, synthetic_spec):
        spec = synthetic_spec("synthetic-fresh", reusable=False)
        assert spec.build_once() is not spec.build_once()
        spec.run_full(seed=1)
        spec.run_full(seed=1)
        assert len(_BUILD_CALLS) == 4
        assert registry.arena_store_size() == 0

    def test_warm_arena_prebuilds(self, synthetic_spec):
        spec = synthetic_spec("synthetic-warm", reusable=True)
        registry.warm_arena(spec.name, spec.params_key())
        assert len(_BUILD_CALLS) == 1
        spec.run_full(seed=5)
        assert len(_BUILD_CALLS) == 1

    def test_warm_arena_ignores_unknown_and_non_reusable(self, synthetic_spec):
        registry.warm_arena("no-such-scenario", ())
        spec = synthetic_spec("synthetic-skip", reusable=False)
        registry.warm_arena(spec.name, spec.params_key())
        assert _BUILD_CALLS == []

    def test_clear_arenas_forces_rebuild(self, synthetic_spec):
        spec = synthetic_spec("synthetic-clear", reusable=True)
        spec.build_once()
        registry.clear_arenas()
        spec.build_once()
        assert len(_BUILD_CALLS) == 2

    def test_vectorized_twin_shares_the_base_arena(self, monkeypatch):
        names = ("fig7-mutuality", "fig7-mutuality-vectorized")
        fresh = {}
        for name in names:
            registry.clear_arenas()
            fresh[name] = registry.get(name).run(seed=1, smoke=True)
        builds = []

        def spy_build(params):
            builds.append(dict(params))
            return registry._build_fig7(params)

        for name in names:
            monkeypatch.setitem(registry._REGISTRY, name, replace(
                registry.get(name), _build=spy_build,
            ))
        registry.clear_arenas()
        try:
            shared = {
                name: registry.get(name).run(seed=1, smoke=True)
                for name in names
            }
            assert registry.arena_store_size() == 1
        finally:
            registry.clear_arenas()
        assert len(builds) == 1
        assert "compute" not in builds[0]
        assert shared == fresh

    def test_run_with_seed_uses_the_given_arena(self, synthetic_spec):
        spec = synthetic_spec("synthetic-explicit", reusable=True)
        arena = spec.build_once()
        assert spec.run_with_seed(arena, seed=3) is arena

    def test_unhashable_override_values_are_normalized(self):
        # A list override must work (hash into the arena store / cache
        # key) exactly like the equivalent tuple.
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

    def test_every_registered_spec_builds_an_arena(self):
        registry.clear_arenas()
        for spec in registry.specs():
            arena = spec.build_once(smoke=True)
            assert isinstance(arena, dict)
        registry.clear_arenas()


class TestHoods:
    """The arena's presorted neighbourhoods, filtered by a seed's trustee
    set, are exactly ``Scenario.trustee_neighbors``: the BFS per trustor
    the Fig. 7, Fig. 13 and Eq. 24 seeds no longer run."""

    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("network", sorted(NETWORK_PROFILES))
    def test_filtered_hoods_equal_trustee_neighbors(self, network, hops):
        graph = registry._graph(network, 0)
        hoods = registry._hoods(graph, hops)
        for seed in (1, 2):
            scenario = build_scenario(graph, seed)
            trustee_set = scenario.trustee_set
            for node in graph.nodes():
                filtered = [n for n in hoods[node] if n in trustee_set]
                assert filtered == scenario.trustee_neighbors(node, hops)

    @pytest.mark.parametrize(
        "name, hops",
        [("fig7-mutuality", 2), ("fig13-delegation", 2),
         ("eq24-selfdelegation", 1)],
    )
    def test_arena_holds_the_hoods_its_seeds_filter(self, name, hops):
        arena = registry.get(name).build_once(smoke=True)
        assert arena["hoods"] == registry._hoods(arena["graph"], hops)


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
