"""Golden digests of the seed loops: the Fig. 7 mutuality gate, the
Fig. 9-12 / Table 2 transitivity search, the Fig. 13 delegation loop,
the Eq. 24 self-delegation loop, the Fig. 15 environment tracker and
the whitewashing ablation reproduce, bit for bit, the results recorded
before those loops were made incremental and before the per-process
arena was keyed by network.

Each golden is the SHA-256 of the canonical JSON of a registered
scenario's per-seed results: the native result (every field the
artifact commands and benches read) and the reduced one (what a sweep
averages).  There is no tolerance: a changed digest means a changed
result.
"""

import enum
import hashlib
import json
from dataclasses import asdict, is_dataclass

import pytest

from repro.simulation import registry


def _canonical(value):
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value):
        return asdict(value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _keyed(value):
    """Enum-keyed dicts (``fig12-overhead``'s ``{mode: result}``) keyed
    by the enum value, so the JSON keys sort."""
    if isinstance(value, dict):
        return {
            (key.value if isinstance(key, enum.Enum) else key): _keyed(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_keyed(item) for item in value]
    return value


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(_keyed(value), sort_keys=True, default=_canonical).encode()
    ).hexdigest()


def _per_seed(name, seeds, smoke, **overrides):
    spec = registry.get(name)
    return [
        [
            spec.run_full(seed, smoke=smoke, **overrides),
            spec.run(seed, smoke=smoke, **overrides),
        ]
        for seed in seeds
    ]


# (scenario, overrides) -> digest of the smoke results at seeds 1 and 2.
SMOKE_GOLDENS = {
    ("fig7-mutuality", (("threshold", 0.0),)):
        "7b9a947255d65bfe1bc7522d71ef181d0985db18e31002fb4a15a581c9c51059",
    ("fig7-mutuality", (("threshold", 0.3),)):
        "87b1a99eb0a21a592b45e21fefe17b9c06b7d5e633cf8c16d6a73a678f204899",
    ("fig7-mutuality", (("threshold", 0.6),)):
        "bc0cc18eebc676826df46bf4670bd156a1c4d6dc24bd1d0a32fdc227d3d7ac10",
    ("fig9-transitivity", ()):
        "16d90abecf83a7f57881ea2a0316f097e6c9a05f41958b1126f9cebaa06c880f",
    ("fig12-overhead", ()):
        "f41bf5439bd9227b16044b351095f6b19561e5aae749a1d740e9a81666cfccbf",
    ("table2-properties", ()):
        "389dc3632f0eee26157d7efb684e0ff65fc6f2ce319c7afdc04ff3463415b5b8",
    ("table2-properties", (("mode", "traditional"),)):
        "518c775449ae5038fc6b3ccae235178c58e6899e907be977cf467704c0c045a9",
    ("table2-properties", (("mode", "conservative"),)):
        "d24f61e6fa0c90b48a9356384dc6b08c35d1f3deede62d32df48ff61ebc2a299",
    ("eq24-selfdelegation", ()):
        "d1f023bfbcbfe33a1e53d5ba71daf6dd0c0b7c35655b373e9ac4a5c0593f2ffc",
    ("fig13-delegation", (("strategy", "first"),)):
        "0a2765d389fd74fbac91ab3affedfce2e7cb88b6984de07f0c5a42c5c06a8150",
    ("fig13-delegation", (("strategy", "second"),)):
        "14afd9382fd82df32d180cbd6503329b768b9eba77d3f4822209062e851339c6",
    ("fig15-environment", ()):
        "95e82707415e3ce33eeae41b2e0979671f04ca7d3b7524c68f0fb6b0fe8d7129",
    ("ablation-whitewashing", ()):
        "ff063184d1719e0397737262382ed8c37784bd33a1967ce93ceb055405de45c1",
}

# strategy -> digest of 300-iteration Fig. 13 runs on facebook at seeds 1-3.
FIG13_FACEBOOK_GOLDENS = {
    "first":
        "9bf35abbf60849c30ffdad56d9f83b28e53ee1f8a01cd7165764bb23bee88160",
    "second":
        "c096b09170f0d89b7056db1244c64ac6d647987e15642792b3e0cf3c3f55e2e9",
}


@pytest.mark.parametrize(
    "name, overrides", sorted(SMOKE_GOLDENS),
    ids=lambda value: value if isinstance(value, str) else "-".join(
        str(item) for _key, item in value
    ) or "default",
)
def test_smoke_results(name, overrides):
    results = _per_seed(name, (1, 2), smoke=True, **dict(overrides))
    assert digest(results) == SMOKE_GOLDENS[(name, overrides)]


@pytest.mark.parametrize("strategy", sorted(FIG13_FACEBOOK_GOLDENS))
def test_fig13_on_facebook(strategy):
    results = _per_seed(
        "fig13-delegation", (1, 2, 3), smoke=False,
        network="facebook", iterations=300, strategy=strategy,
    )
    assert digest(results) == FIG13_FACEBOOK_GOLDENS[strategy]
