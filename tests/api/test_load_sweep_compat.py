"""Sweep exports: the spec block round-trips, and older artifacts load.

``load_sweep`` reads every JSON shape a sweep export has ever had: the
current one carries a ``spec`` block that rehydrates into a validated
:class:`SweepSpec`, while artifacts from before the spec (and before the
cache and distributed blocks) default those blocks instead of failing.
"""

import json

import pytest

from repro.analysis.export import load_sweep, sweep_to_json
from repro.api import ExecutionProfile, SweepSpec
from repro.simulation.sweep import execute_sweep

SCENARIO = "fig15-environment"


def _export(seeds, scenario=SCENARIO, **spec_kwargs):
    sweep = execute_sweep(
        SweepSpec(scenario, seeds, smoke=True, **spec_kwargs),
        ExecutionProfile(no_cache=True),
    )
    return sweep, json.loads(sweep_to_json(sweep))


class TestLoadSweepSpecCompat:
    def test_new_exports_carry_the_spec_block(self):
        _, payload = _export([1, 2])
        loaded = load_sweep(json.dumps(payload))
        assert loaded["spec"] == {
            "scenario": SCENARIO,
            "seeds": [1, 2],
            "smoke": True,
            "overrides": {},
        }
        # The spec block round-trips into a validated SweepSpec.
        assert SweepSpec.from_payload(loaded["spec"]) == SweepSpec(
            SCENARIO, [1, 2], smoke=True
        )

    def test_overrides_flow_into_the_spec_block(self):
        sweep, payload = _export(
            [1], scenario="fig7-mutuality", overrides={"threshold": 0.4}
        )
        assert sweep.spec["overrides"] == {"threshold": 0.4}
        assert load_sweep(json.dumps(payload))["spec"]["overrides"] == {
            "threshold": 0.4
        }

    def test_pre_spec_artifacts_default_to_null(self):
        """An export without the spec block still loads."""
        sweep, payload = _export([1])
        del payload["spec"]
        loaded = load_sweep(json.dumps(payload))
        assert loaded["spec"] is None
        assert loaded["mean"]["values"] == sweep.mean.values

    def test_pre_cache_era_artifact_still_loads(self):
        """The oldest shape: no spec, no cache, no distributed block."""
        _, payload = _export([1])
        for key in ("spec", "cache", "distributed"):
            del payload[key]
        loaded = load_sweep(json.dumps(payload))
        assert loaded["spec"] is None
        assert loaded["cache"]["enabled"] is False
        assert loaded["distributed"]["tasks"] == 0

    def test_malformed_spec_block_rejected(self):
        _, payload = _export([1])
        payload["spec"] = [1, 2]
        with pytest.raises(ValueError, match="spec block"):
            load_sweep(json.dumps(payload))
