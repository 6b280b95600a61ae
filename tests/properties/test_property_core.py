"""Property-based tests on core trust-model invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.environment import EnvironmentReading, cannikin_debias
from repro.core.inference import CharacteristicInferrer
from repro.core.records import OutcomeFactors
from repro.core.task import Task
from repro.core.transitivity import (
    combine_chain,
    combine_two_sided,
    traditional_chain,
)
from repro.core.trustworthiness import clamp01, normalize_net_profit
from repro.core.update import ForgettingUpdater, forget

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
env = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


class TestCombinerProperties:
    @given(unit, unit)
    def test_range(self, a, b):
        assert 0.0 <= combine_two_sided(a, b) <= 1.0

    @given(unit, unit)
    def test_symmetry(self, a, b):
        assert abs(
            combine_two_sided(a, b) - combine_two_sided(b, a)
        ) < 1e-12

    @given(unit)
    def test_identity_element(self, t):
        assert abs(combine_two_sided(1.0, t) - t) < 1e-12

    @given(unit, unit)
    def test_dominates_product(self, a, b):
        # Eq. 7 >= Eq. 5 pointwise (the neglected term is non-negative).
        assert combine_two_sided(a, b) >= a * b - 1e-12

    @given(st.lists(unit, max_size=6))
    def test_chain_range(self, hops):
        assert 0.0 <= combine_chain(hops) <= 1.0
        assert 0.0 <= traditional_chain(hops) <= 1.0

    @given(st.lists(unit, min_size=1, max_size=6))
    def test_chain_folds_from_its_prefix(self, hops):
        # Path search extends a prefix's chain trust by one hop instead
        # of refolding the whole path; that must be bit-identical.
        assert combine_chain(hops) == combine_chain(
            (combine_chain(hops[:-1]), hops[-1])
        )

    @given(st.lists(unit, min_size=1, max_size=6))
    def test_traditional_chain_never_grows(self, hops):
        # The product can only shrink as the path lengthens.
        assert traditional_chain(hops) <= min(hops) + 1e-12


class TestNormalizationProperties:
    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_output_in_unit_interval(self, raw):
        assert 0.0 <= normalize_net_profit(raw) <= 1.0

    @given(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_monotone(self, a, b):
        low, high = sorted((a, b))
        assert normalize_net_profit(low) <= normalize_net_profit(high) + 1e-12

    @given(unit, unit, unit, unit)
    def test_factors_raw_profit_within_normalization_range(self, s, g, d, c):
        factors = OutcomeFactors(success_rate=s, gain=g, damage=d, cost=c)
        raw = factors.net_profit()
        assert -2.0 - 1e-9 <= raw <= 1.0 + 1e-9
        value = normalize_net_profit(raw)
        assert 0.0 <= value <= 1.0


class TestForgettingProperties:
    @given(unit, unit, unit)
    def test_blend_between_inputs(self, old, observed, beta):
        new = forget(old, observed, beta)
        low, high = sorted((old, observed))
        assert low - 1e-12 <= new <= high + 1e-12

    @given(unit, unit, unit)
    def test_contraction(self, old, observed, beta):
        new = forget(old, observed, beta)
        assert abs(new - observed) <= beta * abs(old - observed) + 1e-12

    @given(unit, unit, unit, unit, unit, unit, unit, unit, unit)
    def test_updater_preserves_validity(self, s1, g1, d1, c1,
                                        s2, g2, d2, c2, beta):
        updater = ForgettingUpdater.uniform(beta)
        expected = OutcomeFactors(success_rate=s1, gain=g1, damage=d1,
                                  cost=c1)
        observed = OutcomeFactors(success_rate=s2, gain=g2, damage=d2,
                                  cost=c2)
        updated = updater.update(expected, observed)
        assert 0.0 <= updated.success_rate <= 1.0
        assert updated.gain >= 0.0
        assert updated.damage >= 0.0
        assert updated.cost >= 0.0


class TestInferenceProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), unit),
            min_size=1, max_size=6,
        )
    )
    def test_inference_bounded_by_inputs(self, experience):
        inferrer = CharacteristicInferrer()
        tasks = [
            (Task(f"t{i}", characteristics=(char,)), trust)
            for i, (char, trust) in enumerate(experience)
        ]
        covered = {char for char, _ in experience}
        new_task = Task("new", characteristics=tuple(sorted(covered)))
        inferred = inferrer.infer(new_task, tasks)
        trusts = [trust for _, trust in experience]
        assert min(trusts) - 1e-9 <= inferred.value <= max(trusts) + 1e-9

    @given(unit)
    def test_single_source_identity(self, trust):
        inferrer = CharacteristicInferrer()
        source = Task("src", characteristics=("a",))
        new = Task("new", characteristics=("a",))
        inferred = inferrer.infer(new, [(source, trust)])
        assert abs(inferred.value - trust) < 1e-12


class TestEnvironmentProperties:
    @given(unit, env, env)
    def test_debias_never_reduces_positive_observation(self, observed,
                                                       e1, e2):
        reading = EnvironmentReading(trustor_env=e1, trustee_env=e2)
        assert cannikin_debias(observed, reading) >= observed - 1e-12

    @given(env, env, st.lists(env, max_size=4))
    def test_worst_is_minimum(self, e1, e2, intermediates):
        reading = EnvironmentReading(
            trustor_env=e1, trustee_env=e2,
            intermediate_envs=tuple(intermediates),
        )
        assert reading.worst() == min([e1, e2] + intermediates)

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_clamp_idempotent(self, value):
        assert clamp01(clamp01(value)) == clamp01(value)
