"""Python-vs-vectorized kernel equivalence: bit-identity, not closeness.

The ``*-vectorized`` registry variants already ride the generic
sequential-vs-parallel equivalence suite (every execution mode must
reproduce their sequential bits); this suite closes the remaining gap by
comparing the vectorized scenarios *against their python-backend base
scenario* — the cross-backend direction no generic harness covers —
through the registry and through ``execute_sweep``.
"""

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.core.kernels import HAVE_NUMPY
from repro.simulation import registry
from repro.simulation.sweep import execute_sweep

SEEDS = [11, 12, 13]
VECTORIZED = [
    name for name in registry.names() if name.endswith("-vectorized")
]
BASES = [name[: -len("-vectorized")] for name in VECTORIZED]


class TestRegistryVariants:
    def test_all_vectorized_variants_registered(self):
        assert VECTORIZED == [
            "ablation-beta-vectorized",
            "ablation-combiner-vectorized",
            "fig15-environment-vectorized",
            "fig7-mutuality-vectorized",
        ]

    @pytest.mark.parametrize("name", VECTORIZED)
    def test_variant_mirrors_base(self, name):
        base = registry.get(name[: -len("-vectorized")])
        variant = registry.get(name)
        assert variant.kind == base.kind
        assert dict(variant.defaults) == {
            **dict(base.defaults), "compute": "vectorized",
        }

    @pytest.mark.parametrize("base", BASES)
    def test_reduced_results_bit_identical(self, base):
        python_spec = registry.get(base)
        vector_spec = registry.get(base + "-vectorized")
        for seed in SEEDS:
            assert vector_spec.run(seed, smoke=True) == python_spec.run(
                seed, smoke=True
            )

    @pytest.mark.parametrize("base", BASES)
    def test_full_results_bit_identical(self, base):
        """The native result objects — every curve/field, not just the
        reduced shape — must match."""
        python_spec = registry.get(base)
        vector_spec = registry.get(base + "-vectorized")
        seed = SEEDS[0]
        assert vector_spec.run_full(seed, smoke=True) == python_spec.run_full(
            seed, smoke=True
        )

    @pytest.mark.parametrize("base", BASES)
    def test_compute_override_on_base_scenario(self, base):
        """compute="vectorized" as a plain parameter override on the
        base scenario is the same switch the variant bakes in."""
        spec = registry.get(base)
        seed = SEEDS[0]
        assert spec.run(
            seed, smoke=True, compute="vectorized"
        ) == spec.run(seed, smoke=True)

    def test_sweep_results_identical_across_compute_profiles(self):
        profile = ExecutionProfile(no_cache=True)
        python_result = execute_sweep(
            SweepSpec("fig15-environment", SEEDS, smoke=True), profile
        )
        vector_result = execute_sweep(
            SweepSpec("fig15-environment-vectorized", SEEDS, smoke=True),
            profile,
        )
        assert vector_result.per_seed == python_result.per_seed
        assert vector_result.mean == python_result.mean
        assert vector_result.variance == python_result.variance


class TestSimulationBackends:
    def test_environment_simulation_backends_agree(self):
        from repro.simulation.config import EnvironmentConfig
        from repro.simulation.environment import EnvironmentSimulation

        config = EnvironmentConfig(runs=3)
        for seed in SEEDS:
            python_run = EnvironmentSimulation(config, seed=seed).run()
            vector_run = EnvironmentSimulation(
                config, seed=seed, compute="vectorized"
            ).run()
            assert vector_run == python_run

    def test_mutuality_simulation_backends_agree(self):
        from repro.simulation.config import MutualityConfig
        from repro.socialnet.datasets import load_network

        from repro.simulation.mutuality import MutualitySimulation

        graph = load_network("twitter", seed=0)
        config = MutualityConfig(
            threshold=0.3, warmup_interactions=8, requests_per_trustor=3
        )
        for seed in SEEDS:
            python_run = MutualitySimulation(graph, config, seed=seed).run()
            vector_run = MutualitySimulation(
                graph, config, seed=seed, compute="vectorized"
            ).run()
            assert vector_run == python_run

    def test_mutuality_zero_warmup_edge(self):
        """W=0 draws nothing in either backend; stats stay empty and
        fraction() falls back to benefit-of-the-doubt 1.0 both ways."""
        from repro.simulation.config import MutualityConfig
        from repro.socialnet.datasets import load_network

        from repro.simulation.mutuality import MutualitySimulation

        graph = load_network("twitter", seed=0)
        config = MutualityConfig(
            threshold=0.3, warmup_interactions=0, requests_per_trustor=2
        )
        assert MutualitySimulation(
            graph, config, seed=5, compute="vectorized"
        ).run() == MutualitySimulation(graph, config, seed=5).run()

    def test_private_logs_fall_back_to_python_warmup(self):
        """The vectorized warm-up only covers shared logs; private logs
        interleave choice() draws and must take the oracle path."""
        from repro.simulation.config import MutualityConfig
        from repro.socialnet.datasets import load_network

        from repro.simulation.mutuality import MutualitySimulation

        graph = load_network("twitter", seed=0)
        config = MutualityConfig(
            threshold=0.3, warmup_interactions=5,
            requests_per_trustor=2, shared_logs=False,
        )
        assert MutualitySimulation(
            graph, config, seed=7, compute="vectorized"
        ).run() == MutualitySimulation(graph, config, seed=7).run()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_resolve_compute_rejects_unknown(self):
        from repro.core.kernels import resolve_compute

        with pytest.raises(ValueError):
            resolve_compute("gpu")
        assert resolve_compute("python") == "python"
        assert resolve_compute("vectorized") == "vectorized"
