"""Social-network simulations reproducing the paper's evaluation.

One module per experiment family:

* :mod:`repro.simulation.mutuality` — Fig. 7 (Section 5.3),
* :mod:`repro.simulation.transitivity` — Figs. 9–12 and Table 2
  (Section 5.5),
* :mod:`repro.simulation.delegation` — Fig. 13 (Section 5.6),
* :mod:`repro.simulation.environment` — Fig. 15 (Section 5.7).

All simulations are deterministic for a given seed and operate over the
three calibrated networks of :mod:`repro.socialnet.datasets`.

The multi-seed runtime lives next to them:

* :mod:`repro.simulation.runner` — sequential repeat-and-average (the
  oracle),
* :mod:`repro.simulation.parallel` — the same API over a process/thread
  pool, bit-identical to the oracle by construction,
* :mod:`repro.simulation.registry` — every experiment as a named,
  picklable :class:`ScenarioSpec`,
* :mod:`repro.simulation.sweep` — :func:`execute_sweep`, the engine of
  ``repro sweep`` and :class:`repro.api.Client`: per-seed results,
  mean, variance and wall-clock timing for one
  :class:`repro.api.SweepSpec`,
* :mod:`repro.simulation.cache` — persistent cross-process cache of
  per-seed results keyed by (scenario, params, seed, code version),
* :mod:`repro.simulation.distributed` — shared-directory work queue:
  seed-chunk task files claimed with :mod:`repro.fsproto` leases,
  worker daemons with heartbeats, work stealing off dead workers.
"""

from repro.simulation.config import (
    DelegationConfig,
    EnvironmentConfig,
    MutualityConfig,
    TransitivityConfig,
)
from repro.simulation.delegation import DelegationSimulation, NetProfitSeries
from repro.simulation.environment import (
    EnvironmentSimulation,
    EnvironmentTrackingResult,
)
from repro.simulation.mutuality import MutualityResult, MutualitySimulation
from repro.simulation.parallel import ParallelRunner, RunTiming
from repro.simulation.registry import ScenarioSpec
from repro.simulation.results import RateSummary
from repro.simulation.runner import (
    average_rates,
    average_series,
    combine_rates,
    combine_series,
)
from repro.simulation.cache import CacheStats, SweepCache, default_cache_dir
from repro.simulation.distributed import WorkQueue, worker_loop
from repro.simulation.sweep import SweepResult, execute_sweep, seed_range
from repro.simulation.scenario import Scenario, build_scenario
from repro.simulation.selfdelegation import (
    SelfDelegationResult,
    SelfDelegationSimulation,
)
from repro.simulation.transitivity import (
    TransitivityResult,
    TransitivitySimulation,
)

__all__ = [
    "CacheStats",
    "DelegationConfig",
    "DelegationSimulation",
    "EnvironmentConfig",
    "EnvironmentSimulation",
    "EnvironmentTrackingResult",
    "MutualityConfig",
    "MutualityResult",
    "MutualitySimulation",
    "NetProfitSeries",
    "ParallelRunner",
    "RateSummary",
    "RunTiming",
    "Scenario",
    "ScenarioSpec",
    "SelfDelegationResult",
    "SelfDelegationSimulation",
    "SweepCache",
    "SweepResult",
    "TransitivityConfig",
    "TransitivityResult",
    "TransitivitySimulation",
    "WorkQueue",
    "average_rates",
    "average_series",
    "build_scenario",
    "combine_rates",
    "combine_series",
    "default_cache_dir",
    "execute_sweep",
    "seed_range",
    "worker_loop",
]
