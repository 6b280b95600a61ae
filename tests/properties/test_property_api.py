"""Property tests for the job API (Hypothesis).

The contracts that must hold for *any* valid job description:

* **Spec JSON stability** — ``SweepSpec.from_json(spec.to_json())``
  is the identity, for any registered scenario, any seed list, any
  JSON-native override values (including containers that detour
  through JSON lists).
* **Profile JSON stability** — same for ``ExecutionProfile`` over its
  whole valid configuration space.
* **Label uniqueness** — campaign labels are unique and order-stable
  however scenarios repeat.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionProfile, SweepSpec, campaign_labels
from repro.simulation import registry

_SEEDS = st.lists(
    st.integers(min_value=-10**6, max_value=10**6),
    min_size=1, max_size=8,
)

# JSON-native override values; containers normalize to tuples on both
# sides of the round trip, so equality must still hold.
_SCALARS = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.booleans(),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4))


@st.composite
def sweep_specs(draw):
    """Any valid spec: real scenario, real override names, any values.

    Override *names* must be parameters the scenario declares (the spec
    validates that); values are unconstrained JSON-native data — spec
    validation is deliberately shape-only.
    """
    scenario = draw(st.sampled_from(registry.names()))
    declared = sorted(registry.get(scenario).defaults)
    names = draw(st.sets(st.sampled_from(declared), max_size=3)) \
        if declared else set()
    overrides = {name: draw(_VALUES) for name in sorted(names)}
    return SweepSpec(
        scenario,
        draw(_SEEDS),
        smoke=draw(st.booleans()),
        overrides=overrides,
    )


class TestSpecRoundTrip:
    @settings(max_examples=60)
    @given(spec=sweep_specs())
    def test_json_round_trip_is_identity(self, spec):
        rebuilt = SweepSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert hash(rebuilt) == hash(spec)
        # Stability: serializing the rebuilt spec is byte-identical.
        assert rebuilt.to_json() == spec.to_json()

    @settings(max_examples=60)
    @given(spec=sweep_specs())
    def test_params_key_survives_the_round_trip(self, spec):
        assert SweepSpec.from_json(spec.to_json()).params_key() \
            == spec.params_key()


@st.composite
def execution_profiles(draw):
    """Any profile the strict validator accepts."""
    backend = draw(st.sampled_from(("process", "distributed")))
    if backend == "distributed":
        queue_dir = draw(st.one_of(
            st.none(), st.just("/tmp/hypothesis-queue"),
        ))
        min_workers = 1 if queue_dir is None else 0
        workers = draw(st.integers(min_value=min_workers, max_value=8))
        lease_ttl = draw(st.one_of(
            st.none(),
            st.floats(min_value=0.1, max_value=600.0,
                      allow_nan=False, allow_infinity=False),
        ))
    else:
        queue_dir = None
        lease_ttl = None
        workers = draw(st.integers(min_value=1, max_value=8))
    no_cache = draw(st.booleans())
    cache_dir = None if no_cache else draw(st.one_of(
        st.none(), st.just("/tmp/hypothesis-cache"),
    ))
    return ExecutionProfile(
        workers=workers,
        backend=backend,
        chunk_size=draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=16),
        )),
        cache_dir=cache_dir,
        no_cache=no_cache,
        queue_dir=queue_dir,
        lease_ttl=lease_ttl,
    )


class TestProfileRoundTrip:
    @settings(max_examples=60)
    @given(profile=execution_profiles())
    def test_payload_round_trip_is_identity(self, profile):
        assert ExecutionProfile.from_payload(profile.to_payload()) \
            == profile


class TestCampaignLabels:
    @settings(max_examples=40)
    @given(scenarios=st.lists(
        st.sampled_from(registry.names()), min_size=1, max_size=12,
    ))
    def test_labels_are_unique_and_prefix_stable(self, scenarios):
        specs = [SweepSpec(name, [1]) for name in scenarios]
        labels = campaign_labels(specs)
        assert len(set(labels)) == len(labels) == len(specs)
        # Every label starts with its spec's scenario name, so exports
        # stay greppable by scenario.
        for label, spec in zip(labels, specs):
            assert label == spec.scenario or label.startswith(
                spec.scenario + "#"
            )
