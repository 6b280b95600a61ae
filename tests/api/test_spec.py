"""Unit tests for SweepSpec / ExecutionProfile / campaign manifests."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import (
    ExecutionProfile,
    SweepSpec,
    campaign_labels,
    load_campaign_manifest,
    validate_execution,
)
from repro.simulation import registry
from repro.simulation.cache import default_cache_dir


class TestSweepSpecValidation:
    def test_unknown_scenario_names_the_known_set(self):
        with pytest.raises(KeyError, match="fig7-mutuality"):
            SweepSpec("fig99-nope", [1])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            SweepSpec("fig7-mutuality", [])

    def test_non_integer_seeds_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            SweepSpec("fig7-mutuality", ["one", "two"])

    def test_string_seeds_rejected_not_iterated(self):
        # "12" must not silently become seeds (1, 2).
        with pytest.raises(ValueError, match="integers"):
            SweepSpec("fig7-mutuality", "12")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            SweepSpec("fig7-mutuality", [1], overrides={"nope": 3})

    def test_duplicate_override_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(
                "fig7-mutuality", [1],
                overrides=[("threshold", 0.1), ("threshold", 0.2)],
            )

    def test_frozen(self):
        spec = SweepSpec("fig7-mutuality", [1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.scenario = "other"

    def test_seed_iterables_normalize_to_int_tuples(self):
        assert SweepSpec("fig7-mutuality", range(1, 4)).seeds == (1, 2, 3)


class TestSweepSpecNormalization:
    def test_override_order_does_not_matter(self):
        first = SweepSpec(
            "fig7-mutuality", [1],
            overrides={"threshold": 0.4, "warmup_interactions": 5},
        )
        second = SweepSpec(
            "fig7-mutuality", [1],
            overrides=[("warmup_interactions", 5), ("threshold", 0.4)],
        )
        assert first == second
        assert hash(first) == hash(second)

    def test_container_overrides_normalize_like_registry_params(self):
        spec = SweepSpec(
            "ablation-beta", [1], overrides={"betas": [0.5, 0.9]},
        )
        assert spec.overrides == (("betas", (0.5, 0.9)),)

    def test_params_key_matches_registry(self):
        spec = SweepSpec(
            "fig7-mutuality", [1, 2], smoke=True,
            overrides={"threshold": 0.4},
        )
        expected = registry.get("fig7-mutuality").params_key(
            smoke=True, threshold=0.4
        )
        assert spec.params_key() == expected

    def test_kind_reports_the_scenario_shape(self):
        assert SweepSpec("fig7-mutuality", [1]).kind == "rates"
        assert SweepSpec("fig15-environment", [1]).kind == "series"


class TestSweepSpecSerialization:
    def test_json_round_trip_is_identity(self):
        spec = SweepSpec(
            "fig7-mutuality", [3, 1, 2], smoke=True,
            overrides={"threshold": 0.4, "requests_per_trustor": 3},
        )
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_tuple_overrides_survive_the_json_list_detour(self):
        spec = SweepSpec(
            "ablation-beta", [1], overrides={"betas": (0.5, 0.9)},
        )
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec"):
            SweepSpec.from_payload({
                "scenario": "fig7-mutuality", "seeds": [1], "workers": 4,
            })

    def test_payload_needs_scenario_and_seeds(self):
        with pytest.raises(ValueError, match="scenario and seeds"):
            SweepSpec.from_payload({"scenario": "fig7-mutuality"})

    def test_payload_is_json_safe(self):
        spec = SweepSpec("ablation-beta", [1], overrides={"betas": [0.5]})
        json.dumps(spec.to_payload())  # must not raise


class TestExecutionProfileValidation:
    def test_defaults_are_valid(self):
        profile = ExecutionProfile()
        assert profile.workers == 1
        assert not profile.distributed

    def test_no_cache_with_cache_dir_conflicts(self):
        with pytest.raises(ValueError, match="no_cache"):
            ExecutionProfile(no_cache=True, cache_dir="/tmp/x")

    def test_queue_dir_requires_distributed(self):
        with pytest.raises(ValueError, match="distributed"):
            ExecutionProfile(queue_dir="/tmp/q")

    def test_lease_ttl_requires_distributed(self):
        with pytest.raises(ValueError, match="distributed"):
            ExecutionProfile(lease_ttl=5.0)

    def test_distributed_zero_workers_needs_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            ExecutionProfile(workers=0, backend="distributed")

    def test_distributed_zero_workers_with_queue_dir_is_fine(self):
        profile = ExecutionProfile(
            workers=0, backend="distributed", queue_dir="/tmp/q"
        )
        assert profile.distributed

    def test_negative_workers_rejected_everywhere(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionProfile(workers=0)
        with pytest.raises(ValueError, match="workers"):
            ExecutionProfile(workers=-1, backend="distributed")

    @pytest.mark.parametrize("backend", ["carrier-pigeon", "thread"])
    def test_bad_backend_rejected(self, backend):
        # "thread" named a thread pool that no longer exists.
        with pytest.raises(ValueError, match="backend must be one of"):
            ExecutionProfile(backend=backend)

    def test_bad_chunk_size_and_lease_ttl_rejected(self):
        # The code sizes every chunk; a profile has no chunk_size.
        with pytest.raises(TypeError, match="chunk_size"):
            ExecutionProfile(chunk_size=0)
        for lease_ttl in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lease_ttl"):
                ExecutionProfile(
                    backend="distributed", queue_dir="/q",
                    lease_ttl=lease_ttl,
                )
        # json.loads reads a NaN literal, so a manifest can carry one.
        with pytest.raises(ValueError, match="lease_ttl"):
            ExecutionProfile.from_payload(json.loads(
                '{"backend": "distributed", "lease_ttl": NaN}'
            ))

    def test_path_values_normalize_to_strings(self):
        profile = ExecutionProfile(cache_dir=Path("/tmp/c"))
        assert profile.cache_dir == "/tmp/c"

    def test_validator_is_shared(self):
        # The standalone validator rejects what the profile rejects.
        with pytest.raises(ValueError, match="no_cache"):
            validate_execution(no_cache=True, cache_dir="/x")
        validate_execution(workers=0, backend="distributed", queue_dir="/q")


class TestExecutionProfileCache:
    def test_no_cache_resolves_to_none(self):
        assert ExecutionProfile(no_cache=True).resolved_cache_dir() is None

    def test_explicit_dir_wins(self):
        profile = ExecutionProfile(cache_dir="/tmp/somewhere")
        assert profile.resolved_cache_dir() == Path("/tmp/somewhere")

    def test_default_is_the_shared_cache(self):
        assert ExecutionProfile().resolved_cache_dir() == default_cache_dir()

    def test_payload_round_trip(self):
        profile = ExecutionProfile(
            workers=3, backend="distributed", queue_dir="/tmp/q",
            lease_ttl=9.5,
        )
        assert ExecutionProfile.from_payload(profile.to_payload()) == profile

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ValueError, match="unknown execution profile"):
            ExecutionProfile.from_payload({"workerz": 2})

    @pytest.mark.parametrize(
        "field",
        ["autoscale", "min_workers", "max_workers", "schedule", "chunk_size"],
    )
    def test_removed_fleet_sizing_fields_rejected(self, field):
        # Older manifests may still ask for an elastic fleet, a queue
        # serving order or a chunk size; the one fleet is fixed at
        # `workers` and the code sizes every chunk, so the keys are
        # simply unknown.
        payload = {"workers": 2, "backend": "distributed", field: 1}
        with pytest.raises(ValueError, match="unknown execution profile"):
            ExecutionProfile.from_payload(payload)

    def test_mistyped_payload_values_fail_cleanly(self):
        # A manifest with "workers": "4" must raise ValueError (which
        # the CLI turns into `error: ...` + exit 2), not TypeError.
        with pytest.raises(ValueError, match="workers"):
            ExecutionProfile.from_payload({"workers": "4"})
        with pytest.raises(ValueError, match="max_attempts"):
            ExecutionProfile.from_payload({"max_attempts": "2"})
        with pytest.raises(ValueError, match="lease_ttl"):
            ExecutionProfile.from_payload({
                "backend": "distributed", "lease_ttl": "30",
            })
        with pytest.raises(ValueError, match="no_cache"):
            ExecutionProfile.from_payload({"no_cache": "yes"})


class TestExecutionProfileFaultTolerance:
    def test_defaults_resolve_raise_for_pools(self):
        profile = ExecutionProfile()
        assert profile.max_attempts is None
        assert profile.on_error is None
        assert profile.resolved_on_error() == "raise"

    def test_defaults_resolve_collect_for_distributed(self):
        profile = ExecutionProfile(
            workers=0, backend="distributed", queue_dir="/tmp/q"
        )
        assert profile.resolved_on_error() == "collect"

    def test_explicit_on_error_wins_over_the_backend_default(self):
        assert ExecutionProfile(
            on_error="collect"
        ).resolved_on_error() == "collect"
        assert ExecutionProfile(
            workers=1, backend="distributed", on_error="raise"
        ).resolved_on_error() == "raise"

    def test_resolved_max_attempts_defaults_to_three(self):
        from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS

        assert ExecutionProfile().resolved_max_attempts() == (
            DEFAULT_MAX_ATTEMPTS
        )
        assert ExecutionProfile(
            max_attempts=7
        ).resolved_max_attempts() == 7

    def test_bad_max_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ExecutionProfile(max_attempts=0)
        with pytest.raises(ValueError, match="max_attempts"):
            ExecutionProfile(max_attempts=True)
        with pytest.raises(ValueError, match="max_attempts"):
            ExecutionProfile(max_attempts="3")

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            ExecutionProfile(on_error="explode")
        with pytest.raises(ValueError, match="on_error"):
            validate_execution(on_error="ignore")

    def test_payload_round_trip_carries_the_new_fields(self):
        profile = ExecutionProfile(max_attempts=2, on_error="collect")
        restored = ExecutionProfile.from_payload(profile.to_payload())
        assert restored == profile
        assert restored.max_attempts == 2
        assert restored.on_error == "collect"

    def test_old_payloads_without_the_fields_still_load(self):
        restored = ExecutionProfile.from_payload({"workers": 2})
        assert restored.max_attempts is None
        assert restored.on_error is None


class TestCampaignManifest:
    def test_minimal_manifest(self):
        manifest = load_campaign_manifest(json.dumps({
            "sweeps": [
                {"scenario": "fig7-mutuality", "seeds": [1, 2]},
            ],
        }))
        assert manifest.specs == (SweepSpec("fig7-mutuality", [1, 2]),)
        assert manifest.profile is None

    def test_seed_count_shorthand(self):
        manifest = load_campaign_manifest(json.dumps({
            "sweeps": [
                {"scenario": "fig15-environment", "seed_count": 3,
                 "first_seed": 5},
            ],
        }))
        assert manifest.specs[0].seeds == (5, 6, 7)

    def test_seeds_and_seed_count_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            load_campaign_manifest(json.dumps({
                "sweeps": [
                    {"scenario": "fig15-environment", "seeds": [1],
                     "seed_count": 3},
                ],
            }))

    def test_profile_block_parsed(self):
        manifest = load_campaign_manifest(json.dumps({
            "profile": {"workers": 4, "backend": "process"},
            "sweeps": [{"scenario": "fig7-mutuality", "seeds": [1]}],
            "name": "nightly",
        }))
        assert manifest.profile == ExecutionProfile(
            workers=4, backend="process"
        )
        assert manifest.name == "nightly"

    def test_errors_name_the_entry(self):
        with pytest.raises(ValueError, match=r"sweeps\[1\]"):
            load_campaign_manifest(json.dumps({
                "sweeps": [
                    {"scenario": "fig7-mutuality", "seeds": [1]},
                    {"scenario": "fig7-mutuality"},
                ],
            }))

    def test_bad_json_and_shapes_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_campaign_manifest("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            load_campaign_manifest("[1]")
        with pytest.raises(ValueError, match="sweeps"):
            load_campaign_manifest("{}")
        with pytest.raises(ValueError, match="unknown campaign"):
            load_campaign_manifest(json.dumps({
                "sweeps": [{"scenario": "fig7-mutuality", "seeds": [1]}],
                "extra": 1,
            }))


class TestCampaignLabels:
    def test_unique_scenarios_keep_their_names(self):
        specs = [
            SweepSpec("fig7-mutuality", [1]),
            SweepSpec("fig15-environment", [1]),
        ]
        assert campaign_labels(specs) == (
            "fig7-mutuality", "fig15-environment",
        )

    def test_repeats_get_numbered(self):
        specs = [
            SweepSpec("fig7-mutuality", [1]),
            SweepSpec("fig7-mutuality", [2]),
            SweepSpec("fig7-mutuality", [3]),
        ]
        assert campaign_labels(specs) == (
            "fig7-mutuality", "fig7-mutuality#2", "fig7-mutuality#3",
        )
