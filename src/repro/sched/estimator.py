"""Per-sweep cost estimation from runtime telemetry and priors.

A campaign is a list of sweeps with wildly different per-seed costs
(``table1-connectivity`` runs ~200x longer than ``fig8-inference``).
To order the queue long-pole-first the planner needs a cost number per
sweep *before* anything runs.  Two sources, best first:

1. **Observed** — per-seed wall times this sweep has already measured.
   The campaign engine harvests them from the cache entries of the
   sweep's cached seeds (same scenario, params and code version) and
   hands them in as ``runtimes``; their mean prices every seed still
   to run.
2. **Prior** — a small measured table of seconds-per-seed by scenario
   family, with linear workload scaling on known size parameters
   (``runs``, ``iterations``).  Coarse, but ordering-accurate: the
   planner only needs relative magnitudes, not wall-clock precision.

Estimates are *advisory*: they steer task order and chunk shape, never
what any seed computes — a wrong estimate costs makespan, not results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

Params = Tuple[Tuple[str, object], ...]

# Seconds per seed by scenario family (the name up to the first "-"),
# measured on the smoke configurations of the reference machine.  The
# absolute numbers drift with hardware; the ~200x spread between
# families is structural (population size x rounds x estimator math),
# which is all long-pole ordering needs.
_FAMILY_PRIORS: Dict[str, float] = {
    "table1": 0.23,
    "table2": 0.11,
    "fig7": 0.015,
    "fig8": 0.002,
    "fig9": 0.12,
    "fig12": 0.15,
    "fig13": 0.08,
    "fig14": 0.04,
    "fig15": 0.001,
    "fig16": 0.01,
    "eq24": 0.003,
    "ablation": 0.06,
}
_DEFAULT_PRIOR = 0.05

# Parameters that scale work linearly, with the value the family prior
# was measured at.  A sweep overriding ``runs=800`` on a family
# measured at ``runs=1`` costs ~800x the prior — the estimate scales
# with it so a parameter override cannot hide a long pole.
_WORKLOAD_PARAMS: Dict[str, float] = {
    "runs": 1.0,
    "iterations": 100.0,
    "rounds": 40.0,
}


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one sweep.

    ``source`` records provenance: ``"observed"`` (every estimated
    seed has its own measurement), ``"mixed"`` (the mean of the
    sweep's measurements covers seeds without one), ``"prior"`` (family
    table only).  ``observed_seeds`` counts the measurements averaged.
    """

    scenario: str
    seeds: int
    seconds_per_seed: float
    source: str
    observed_seeds: int = 0

    @property
    def total_seconds(self) -> float:
        return self.seconds_per_seed * self.seeds


def prior_seconds_per_seed(scenario: str, params: Params = ()) -> float:
    """Family-table prior for one seed of ``scenario`` under ``params``."""
    family = scenario.split("-", 1)[0]
    base = _FAMILY_PRIORS.get(family, _DEFAULT_PRIOR)
    scale = 1.0
    for key, value in params or ():
        reference = _WORKLOAD_PARAMS.get(str(key))
        if reference is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value > 0:
            scale *= float(value) / reference
    return base * scale


def estimate_sweep_cost(
    scenario: str,
    params: Params,
    seeds: Sequence[int],
    runtimes: Optional[Mapping[int, float]] = None,
) -> CostEstimate:
    """Estimate one sweep's cost, preferring telemetry over priors.

    ``runtimes`` maps seeds of this ``(scenario, params)`` to measured
    wall times — any seed, not only the ones in ``seeds``: a partially
    cached sweep is priced from its cached seeds' runtimes.  Values
    that are not non-negative numbers are ignored; with none left the
    family prior prices every seed.
    """
    seed_list = list(seeds)
    count = len(seed_list)
    prior = prior_seconds_per_seed(scenario, params)
    if count == 0:
        return CostEstimate(scenario, 0, prior, "prior")

    known: Dict[int, float] = {}
    for seed, runtime in (runtimes or {}).items():
        try:
            value = float(runtime)
        except (TypeError, ValueError):
            continue
        if value >= 0:
            known[seed] = value
    if not known:
        return CostEstimate(scenario, count, prior, "prior")
    # Same machine, same code, same params: the sweep's own telemetry
    # is the better predictor of its other seeds than the prior.
    observed_mean = sum(known.values()) / len(known)
    source = (
        "observed" if all(seed in known for seed in seed_list) else "mixed"
    )
    return CostEstimate(scenario, count, observed_mean, source,
                        observed_seeds=len(known))
