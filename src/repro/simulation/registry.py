"""Named scenario registry: every figure/table experiment as one spec.

Each :class:`ScenarioSpec` wraps one of the paper's seed-driven
experiments behind a uniform, *picklable* per-seed entry point, so the
benchmarks, the artifact commands (``repro fig7`` ...), ``repro sweep``
and the sequential-vs-parallel equivalence suite all run exactly the
same code.  The registry is the only place an experiment is built:

* ``spec.run_full(seed)`` — one seeded run, returning the experiment's
  native result object: what the artifact commands and the benches
  render (and what the benches assert shapes on);
* ``spec.run(seed)`` — the result reduced to the common multi-seed
  shapes (:class:`RateSummary` for ``kind == "rates"``,
  :class:`SeriesResult` for ``kind == "series"``) that
  ``average_rates`` / ``average_series`` know how to combine;
* ``spec.bound()`` — a :func:`functools.partial` of
  :func:`run_reduced`, safe to ship to a :class:`ProcessPoolExecutor`
  worker.

The only seed-independent state is the calibrated network a scenario
runs on.  Its **arena** — the graph plus its 1- and 2-hop candidate
hoods — lives in a per-process store keyed by ``(network,
graph_seed)``: the first seed a process runs on a network builds it,
and every later seed of every scenario and parameter set on that
network reuses it.  A scenario has an arena iff its params carry
``graph_seed``; :func:`warm_arena` is the pool initializer
:func:`repro.simulation.sweep.execute_sweep` installs so the build
happens before the first task rather than inside it.  Seed runs only
read the arena.

``defaults`` reproduce the bench-scale parameters; ``smoke`` are the
scaled-down overrides the test suite and CI smoke invocation use.
Graphs are rebuilt per process from their profile name, so a spec
never has to pickle a network.

Besides the nine figure/table experiments, the registry names the
remaining bench families — Table 1 connectivity, the Figs. 9–12 and
Table 2 all-methods run (``fig12-overhead``: the three trust-transfer
methods on one simulation), and the six ablations — so every bench and
every artifact command computes through a named spec and ``repro
sweep`` can drive all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Mapping, Tuple, Union

from repro.core.attacks import (
    BadMouthingAttacker,
    BallotStuffingAttacker,
    OpportunisticServiceAttacker,
    SelfPromotingAttacker,
    run_attack_scenario,
)
from repro.core.policy import NetProfitPolicy, SuccessRatePolicy
from repro.core.transitivity import TransitivityMode, combine_chain, traditional_chain
from repro.simulation.config import (
    DelegationConfig,
    EnvironmentConfig,
    MutualityConfig,
    TransitivityConfig,
)
from repro.simulation.delegation import DelegationSimulation
from repro.simulation.environment import EnvironmentSimulation
from repro.simulation.mutuality import MutualitySimulation, sweep_thresholds
from repro.simulation.results import RateSummary, SeriesResult
from repro.simulation.selfdelegation import SelfDelegationSimulation
from repro.simulation.transitivity import TransitivitySimulation
from repro.socialnet.graph import SocialGraph

Reduced = Union[RateSummary, SeriesResult]
Params = Tuple[Tuple[str, object], ...]


# ---------------------------------------------------------------------------
# the per-process network arenas
# ---------------------------------------------------------------------------

def _hoods(graph: SocialGraph, hops: int) -> Dict[object, tuple]:
    """Seed-independent columnar candidate view: per node, every other
    node within ``hops``, sorted.

    Built once per network arena; a per-seed run reduces its candidate
    lookups to a filter of the hood by that seed's trustee set
    (identical to the per-trustor BFS of ``Scenario.trustee_neighbors``).
    """
    # One neighbour-set copy per node; each BFS level is then a union of
    # those sets, minus what is already seen.
    neighbors = {node: graph.neighbors(node) for node in graph.nodes()}
    hoods: Dict[object, tuple] = {}
    for node in neighbors:
        seen = {node}
        frontier = seen
        for _ in range(hops):
            reached = set()
            for current in frontier:
                reached |= neighbors[current]
            frontier = reached - seen
            seen |= frontier
        seen.discard(node)
        hoods[node] = tuple(sorted(seen))
    return hoods


_ARENAS: Dict[Tuple[str, int], Dict[str, object]] = {}


def _arena(network: str, graph_seed: int) -> Dict[str, object]:
    """The arena of one calibrated network: ``{"graph": g, "hoods":
    {1: ..., 2: ...}}``, built on first use and then shared by every
    seed, scenario and parameter set this process runs on it."""
    key = (network, graph_seed)
    try:
        return _ARENAS[key]
    except KeyError:
        from repro.socialnet.datasets import load_network

        graph = load_network(network, seed=graph_seed)
        arena = _ARENAS[key] = {
            "graph": graph,
            "hoods": {1: _hoods(graph, 1), 2: _hoods(graph, 2)},
        }
        return arena


def _network(params: Mapping[str, object]) -> Dict[str, object]:
    """The arena of the network a scenario's params name."""
    return _arena(params["network"], params["graph_seed"])


def warm_arena(name: str, params: Params) -> None:
    """Pool-worker initializer: build the arena a scenario's first seed
    would build, before any task.

    A no-op for an unknown name and for a scenario without an arena
    (its params carry no ``graph_seed``).
    """
    params = dict(params)
    if name in _REGISTRY and "graph_seed" in params:
        _network(params)


def arena_store_size() -> int:
    """How many network arenas this process holds (test/introspection)."""
    return len(_ARENAS)


def clear_arenas() -> None:
    """Drop every cached arena in this process (test isolation)."""
    _ARENAS.clear()


# ---------------------------------------------------------------------------
# per-scenario seed/reduce functions (module-level: picklable via partial)
#
# ``_seed_*`` runs one seed from the scenario's params, reading (never
# mutating) its network's arena; ``_reduce_*`` maps the native result to
# the common multi-seed shape.
# ---------------------------------------------------------------------------

def _seed_fig7(params: Mapping[str, object], seed: int):
    config = MutualityConfig(
        threshold=params["threshold"],
        warmup_interactions=params["warmup_interactions"],
        requests_per_trustor=params["requests_per_trustor"],
    )
    arena = _network(params)
    return MutualitySimulation(
        arena["graph"], config, seed=seed,
        compute=params.get("compute", "python"),
        hoods=arena["hoods"][config.candidate_hops],
    ).run()


def _reduce_fig7(result) -> RateSummary:
    return result.rates


def _transitivity(params: Mapping[str, object], seed: int):
    return TransitivitySimulation(
        _network(params)["graph"],
        TransitivityConfig(num_characteristics=params["num_characteristics"]),
        seed=seed, property_based_tasks=params["property_based_tasks"],
    )


def _seed_transitivity(params: Mapping[str, object], seed: int):
    return _transitivity(params, seed).run(TransitivityMode(params["mode"]))


def _reduce_transitivity(result) -> RateSummary:
    return RateSummary(
        success_rate=result.success_rate,
        unavailable_rate=result.unavailable_rate,
        abuse_rate=0.0,
        total_requests=len(result.inquiry_counts),
    )


_POLICIES = {
    "first": SuccessRatePolicy,
    "second": NetProfitPolicy,
}


def _seed_fig13(params: Mapping[str, object], seed: int):
    arena = _network(params)
    simulation = DelegationSimulation(
        arena["graph"], DelegationConfig(iterations=params["iterations"]),
        seed=seed, hoods=arena["hoods"][2],
    )
    strategy = params["strategy"]
    return simulation.run(_POLICIES[strategy](), f"{strategy} strategy")


def _reduce_fig13(result) -> SeriesResult:
    return result.series


def _seed_fig15(params: Mapping[str, object], seed: int):
    return EnvironmentSimulation(
        EnvironmentConfig(runs=params["runs"]), seed=seed,
        compute=params.get("compute", "python"),
    ).run()


def _reduce_fig15(result) -> SeriesResult:
    return result.proposed


def _seed_eq24(params: Mapping[str, object], seed: int):
    arena = _network(params)
    simulation = SelfDelegationSimulation(
        arena["graph"], tasks_per_trustor=params["tasks_per_trustor"],
        seed=seed, hoods=arena["hoods"][1],
    )
    return simulation.run()


def _reduce_eq24(result) -> SeriesResult:
    # One point per dispatch policy so pointwise averaging across seeds
    # yields the mean profit per policy (plus the delegation share).
    return SeriesResult(
        label="profit: self / delegate / eq24 / share",
        values=[
            result.always_self,
            result.always_delegate,
            result.eq24,
            result.eq24_delegation_share,
        ],
    )


def _seed_fig8(params: Mapping[str, object], seed: int):
    from repro.iotnet.experiments import InferenceExperiment

    return InferenceExperiment(
        runs=params["runs"], seed=seed,
    ).run()


def _reduce_fig8(result) -> SeriesResult:
    return SeriesResult("% honest selected (with model)", result.with_model)


def _seed_fig14(params: Mapping[str, object], seed: int):
    from repro.iotnet.experiments import ActiveTimeExperiment

    return ActiveTimeExperiment(
        tasks_per_trustor=params["tasks_per_trustor"], seed=seed,
    ).run()


def _reduce_fig14(result) -> SeriesResult:
    return SeriesResult("active time ms (with model)", result.with_model)


def _seed_fig16(params: Mapping[str, object], seed: int):
    from repro.iotnet.experiments import LightingExperiment
    from repro.iotnet.sensors import LightEnvironment, LightPhase

    phases = params.get("phases")
    light = None
    if phases is not None:
        light = LightEnvironment([
            LightPhase(experiments=count, lux=lux, label=label)
            for count, lux, label in phases
        ])
    # (network, light schedule): the default network for this seed.
    return LightingExperiment(None, light, seed=seed).run()


def _reduce_fig16(result) -> SeriesResult:
    return SeriesResult("net profit (with model)", result.with_model)


# A shortened Fig. 16 lighting schedule for smoke/CI runs: same
# LIGHT/DARK/LIGHT shape, 15 experiments instead of 50.
_FIG16_SMOKE_PHASES = (
    (5, 500.0, "LIGHT"),
    (5, 15.0, "DARK"),
    (5, 500.0, "LIGHT"),
)


# --- Table 1 / Fig. 12 / ablations (the remaining bench families) ----------

def _seed_table1(params: Mapping[str, object], seed: int):
    from repro.socialnet.datasets import load_network
    from repro.socialnet.metrics import connectivity_report

    # The sweep seed drives the generator, so a multi-seed sweep measures
    # the generator's variance around the paper's calibration targets.
    return connectivity_report(load_network(params["network"], seed=seed))


def _reduce_table1(report) -> SeriesResult:
    return SeriesResult(
        "connectivity: nodes / edges / avg degree / avg clustering",
        [
            float(report.nodes),
            float(report.edges),
            report.average_degree,
            report.average_clustering,
        ],
    )


def _seed_fig12(params: Mapping[str, object], seed: int):
    simulation = _transitivity(params, seed)
    return {mode: simulation.run(mode) for mode in TransitivityMode}


def _reduce_fig12(results) -> SeriesResult:
    def mean_inquiries(mode: TransitivityMode) -> float:
        counts = results[mode].inquiry_counts
        return sum(counts) / len(counts)

    return SeriesResult(
        "mean inquiries: traditional / conservative / aggressive",
        [mean_inquiries(mode) for mode in TransitivityMode],
    )


def _attack_bad_mouthing(index: int):
    return BadMouthingAttacker()


def _attack_ballot_stuffing(index: int):
    return BallotStuffingAttacker(coalition=frozenset({"target"}))


def _attack_self_promoting(index: int):
    return SelfPromotingAttacker()


def _attack_opportunistic(index: int):
    return OpportunisticServiceAttacker(honest_phase=5)


# (attacker factory, target's true trust) per adversary model; insertion
# order is the order `_reduce_attacks` reports in.
ATTACK_SCENARIOS: Dict[str, Tuple[Callable, float]] = {
    "bad-mouthing": (_attack_bad_mouthing, 0.8),
    "ballot-stuffing": (_attack_ballot_stuffing, 0.2),
    "self-promoting": (_attack_self_promoting, 0.5),
    "opportunistic": (_attack_opportunistic, 0.8),
}


def _seed_attacks(params: Mapping[str, object], seed: int):
    return {
        name: run_attack_scenario(
            target_trust=target,
            honest_count=params["honest_count"],
            attacker_factory=factory,
            attacker_count=params["attacker_count"],
            rounds=params["rounds"],
            seed=seed,
        )
        for name, (factory, target) in ATTACK_SCENARIOS.items()
    }


def _reduce_attacks(results) -> SeriesResult:
    return SeriesResult(
        "defended error: " + " / ".join(ATTACK_SCENARIOS),
        [results[name].defended_error for name in ATTACK_SCENARIOS],
    )


def _seed_beta(params: Mapping[str, object], seed: int):
    results = {}
    for beta in params["betas"]:
        config = EnvironmentConfig(runs=params["runs"], beta=beta)
        result = EnvironmentSimulation(
            config, seed=seed, compute=params.get("compute", "python"),
        ).run()
        errors = result.tracking_errors(config.actual_success_rate)
        # Lag: proposed-tracker error over the 20 iterations after the
        # first environment step.
        post_step = result.proposed.values[100:120]
        lag_error = sum(abs(v - 0.8) for v in post_step) / len(post_step)
        # Noise: variance-like wiggle in the stable middle of phase 1.
        stable = result.proposed.values[60:100]
        mean = sum(stable) / len(stable)
        noise = sum((v - mean) ** 2 for v in stable) / len(stable)
        results[beta] = {
            "mae": errors["proposed"],
            "lag": lag_error,
            "noise": noise,
        }
    return results


def _reduce_beta(results) -> SeriesResult:
    return SeriesResult(
        "tracking MAE per beta: " + " / ".join(str(b) for b in results),
        [metrics["mae"] for metrics in results.values()],
    )


def _seed_combiner(params: Mapping[str, object], seed: int):
    from repro.core.kernels import resolve_compute

    if resolve_compute(params.get("compute", "python")) == "vectorized":
        return _seed_combiner_vectorized(params, seed)
    rng = random.Random(seed)
    rows = []
    for length in params["lengths"]:
        gaps = []
        for _ in range(params["samples"]):
            hops = [rng.uniform(0.5, 1.0) for _ in range(length)]
            gaps.append(combine_chain(hops) - traditional_chain(hops))
        rows.append({
            "path length": length,
            "mean gap (eq7 - eq5)": sum(gaps) / len(gaps),
            "max gap": max(gaps),
        })

    # Monte-Carlo estimator check at length 2: probability that the
    # composed judgment is correct equals Eq. 7.
    t1, t2 = 0.8, 0.7
    correct = 0
    trials = params["trials"]
    for _ in range(trials):
        first_ok = rng.random() < t1
        second_ok = rng.random() < t2
        if first_ok == second_ok:
            correct += 1
    return {
        "rows": rows,
        "simulated": correct / trials,
        "t1": t1,
        "t2": t2,
    }


def _seed_combiner_vectorized(params: Mapping[str, object], seed: int):
    """Bit-identical block-draw form of :func:`_seed_combiner`.

    One replicated stream serves the whole run in the oracle's draw
    order (per-length hop matrices, then the Monte-Carlo pairs); the
    fold across hop columns happens for all samples at once.  The mean
    stays a sequential python sum so its rounding matches the oracle's
    left-fold exactly (``np.sum`` associates pairwise — different
    doubles).
    """
    from repro.core.kernels import (
        borrow_stream,
        combine_chain_columns,
        traditional_chain_columns,
    )

    stream = borrow_stream(seed)
    samples = params["samples"]
    rows = []
    for length in params["lengths"]:
        draws = stream.block(samples * length).reshape(samples, length)
        hops = 0.5 + (1.0 - 0.5) * draws  # exactly rng.uniform(0.5, 1.0)
        gaps = (
            combine_chain_columns(hops) - traditional_chain_columns(hops)
        ).tolist()
        rows.append({
            "path length": length,
            "mean gap (eq7 - eq5)": sum(gaps) / len(gaps),
            "max gap": max(gaps),
        })

    t1, t2 = 0.8, 0.7
    trials = params["trials"]
    draws = stream.block(2 * trials)
    first_ok = draws[0::2] < t1
    second_ok = draws[1::2] < t2
    correct = int((first_ok == second_ok).sum())
    return {
        "rows": rows,
        "simulated": correct / trials,
        "t1": t1,
        "t2": t2,
    }


def _reduce_combiner(result) -> SeriesResult:
    return SeriesResult(
        "mean eq7-eq5 gap per path length",
        [row["mean gap (eq7 - eq5)"] for row in result["rows"]],
    )


def _seed_energy(params: Mapping[str, object], seed: int):
    from repro.iotnet.energy import EnergyMeter
    from repro.iotnet.experiments import ActiveTimeExperiment

    result = ActiveTimeExperiment(
        tasks_per_trustor=params["tasks_per_trustor"], seed=seed
    ).run()

    def total_energy_mj(series):
        meter = EnergyMeter(budget_mj=1e9)
        for active_ms in series:
            # Trustor's active window: radio receiving half the time,
            # MCU processing the rest.
            meter.receive(active_ms * 0.5)
            meter.compute(active_ms * 0.5)
        return meter.consumed_mj

    return {
        "without": {
            "series": result.without_model,
            "energy_mj": total_energy_mj(result.without_model),
        },
        "with": {
            "series": result.with_model,
            "energy_mj": total_energy_mj(result.with_model),
        },
    }


def _reduce_energy(results) -> SeriesResult:
    return SeriesResult(
        "energy mJ per trustor: without / with model",
        [results["without"]["energy_mj"], results["with"]["energy_mj"]],
    )


_TIMEDECAY_ACTUAL = 0.8
_TIMEDECAY_PHASES = ((100, 1.0), (100, 0.4), (100, 0.7))


def _timedecay_level_at(iteration: int) -> float:
    remaining = iteration
    for length, level in _TIMEDECAY_PHASES:
        if remaining < length:
            return level
        remaining -= length
    return _TIMEDECAY_PHASES[-1][1]


def _seed_timedecay(params: Mapping[str, object], seed: int):
    from repro.core.environment import EnvironmentReading, cannikin_debias
    from repro.core.timedecay import DecayingTrustLedger
    from repro.core.update import forget

    runs = params["runs"]
    total = sum(length for length, _ in _TIMEDECAY_PHASES)
    sums = {"traditional": [0.0] * total, "decay": [0.0] * total,
            "proposed": [0.0] * total}
    for run in range(runs):
        rng = random.Random(repr(("timedecay-ablation", seed, run)))
        est_traditional = 1.0
        est_proposed = 1.0
        ledger = DecayingTrustLedger(decay=0.9, default_trust=1.0)
        for iteration in range(total):
            level = _timedecay_level_at(iteration)
            reading = EnvironmentReading(trustor_env=level,
                                         trustee_env=level)
            observed = 1.0 if rng.random() < _TIMEDECAY_ACTUAL * level else 0.0
            est_traditional = forget(est_traditional, observed, 0.9)
            est_proposed = min(1.0, forget(
                est_proposed, cannikin_debias(observed, reading), 0.9
            ))
            ledger.observe("target", observed, time=float(iteration))
            sums["traditional"][iteration] += est_traditional
            sums["decay"][iteration] += ledger.trust(
                "target", now=float(iteration)
            )
            sums["proposed"][iteration] += est_proposed
    curves = {
        name: [value / runs for value in series]
        for name, series in sums.items()
    }
    maes = {
        name: sum(abs(v - _TIMEDECAY_ACTUAL) for v in series) / len(series)
        for name, series in curves.items()
    }
    return {"curves": curves, "maes": maes}


def _reduce_timedecay(result) -> SeriesResult:
    maes = result["maes"]
    return SeriesResult(
        "tracking MAE: " + " / ".join(maes),
        list(maes.values()),
    )


def _seed_whitewashing(params: Mapping[str, object], seed: int):
    graph = _network(params)["graph"]
    return {
        label: sweep_thresholds(
            graph, thresholds=params["thresholds"], seed=seed,
            config=MutualityConfig(shared_logs=shared),
        )
        for label, shared in (("shared", True), ("private", False))
    }


def _reduce_whitewashing(results) -> SeriesResult:
    labels = []
    values = []
    for label, sweep in results.items():
        for result in sweep:
            labels.append(f"{label}@{result.threshold:g}")
            values.append(result.rates.abuse_rate)
    return SeriesResult("abuse rate: " + " / ".join(labels), values)


def run_reduced(name: str, params: Params, seed: int) -> Reduced:
    """One reduced per-seed result from an already-normalized params key.

    The picklable pool-worker entry point, and the one for callers that
    carry parameters in their wire form (a sorted tuple of pairs, e.g.
    rehydrated from a distributed task file) rather than as keyword
    overrides: bit-identical to ``spec.run(seed)`` for equal params.
    """
    spec = get(name)
    return spec._reduce(spec._seed_run(dict(params), seed))


# ---------------------------------------------------------------------------
# parameter normalization
# ---------------------------------------------------------------------------

def hashable_value(value: object) -> object:
    """A hashable stand-in for a parameter value (lists/sets/dicts ->
    tuples), so any override accepted by ``params()`` can key the
    result cache, a distributed task file, or a
    :class:`repro.api.SweepSpec` — every parameter consumer normalizes
    through this one function, which is what makes their keys agree."""
    if isinstance(value, (list, tuple)):
        return tuple(hashable_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(hashable_value(item) for item in value))
    if isinstance(value, dict):
        return tuple(
            (key, hashable_value(item))
            for key, item in sorted(value.items())
        )
    return value


# ---------------------------------------------------------------------------
# the spec and the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One named, parameterized, picklable experiment.

    ``_seed_run(params, seed)`` executes one seed; ``_reduce`` maps the
    native result to the common multi-seed shape.
    """

    name: str
    kind: str  # "rates" | "series"
    description: str
    defaults: Mapping[str, object]
    smoke: Mapping[str, object] = field(default_factory=dict)
    _seed_run: Callable = None
    _reduce: Callable = None

    def params(self, smoke: bool = False, **overrides: object) -> Dict[str, object]:
        """Effective parameters: defaults, then smoke, then overrides.

        Container values are normalized to hashable, deterministically
        ordered tuples (list -> tuple, set -> sorted tuple) so every
        execution path — direct ``run_full``, pool-bound ``bound()``,
        cache key, distributed task file — sees byte-identical
        parameters.
        """
        merged = dict(self.defaults)
        if smoke:
            merged.update(self.smoke)
        unknown = set(overrides) - set(merged)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) for {self.name}: {sorted(unknown)}"
            )
        merged.update(overrides)
        return {
            name: hashable_value(value) for name, value in merged.items()
        }

    def params_key(self, smoke: bool = False, **overrides: object) -> Params:
        """The effective parameters as a sorted, hashable tuple."""
        return tuple(sorted(self.params(smoke=smoke, **overrides).items()))

    def bound(
        self, smoke: bool = False, **overrides: object
    ) -> Callable[[int], Reduced]:
        """A picklable ``run(seed)`` with parameters baked in."""
        return partial(
            run_reduced, self.name, self.params_key(smoke=smoke, **overrides)
        )

    def run(self, seed: int, smoke: bool = False, **overrides: object) -> Reduced:
        """One reduced per-seed result (what multi-seed averaging combines)."""
        return self._reduce(self.run_full(seed, smoke=smoke, **overrides))

    def run_full(self, seed: int, smoke: bool = False, **overrides: object):
        """The experiment's native result object: what the artifact
        commands and the benches render."""
        return self._seed_run(self.params(smoke=smoke, **overrides), seed)


_REGISTRY: Dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate scenario name: {spec.name}")
    if spec.kind not in ("rates", "series"):
        raise ValueError(f"bad kind for {spec.name}: {spec.kind}")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """Look up a scenario; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(names())}"
        ) from None


def names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def specs() -> List[ScenarioSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in names()]


_register(ScenarioSpec(
    name="fig7-mutuality",
    kind="rates",
    description="Fig. 7: delegation rates under the reverse-evaluation "
                "gate (one network, one threshold)",
    defaults={
        "network": "facebook", "graph_seed": 0, "threshold": 0.3,
        "warmup_interactions": 30, "requests_per_trustor": 10,
        "compute": "python",
    },
    smoke={
        "network": "twitter", "warmup_interactions": 5,
        "requests_per_trustor": 2,
    },
    _seed_run=_seed_fig7,
    _reduce=_reduce_fig7,
))

_register(ScenarioSpec(
    name="fig9-transitivity",
    kind="rates",
    description="Figs. 9-12: transitive trustee search (one network, one "
                "K, one method)",
    defaults={
        "network": "facebook", "graph_seed": 0, "num_characteristics": 4,
        "mode": TransitivityMode.AGGRESSIVE.value,
        "property_based_tasks": False,
    },
    smoke={"network": "twitter"},
    _seed_run=_seed_transitivity,
    _reduce=_reduce_transitivity,
))

_register(ScenarioSpec(
    name="table2-properties",
    kind="rates",
    description="Table 2: transitivity with node-property-derived task "
                "characteristics",
    defaults={
        "network": "facebook", "graph_seed": 0, "num_characteristics": 4,
        "mode": TransitivityMode.AGGRESSIVE.value,
        "property_based_tasks": True,
    },
    smoke={"network": "twitter"},
    _seed_run=_seed_transitivity,
    _reduce=_reduce_transitivity,
))

_register(ScenarioSpec(
    name="fig13-delegation",
    kind="series",
    description="Fig. 13: per-iteration net profit under one selection "
                "strategy",
    defaults={
        "network": "facebook", "graph_seed": 0, "iterations": 3000,
        "strategy": "second",
    },
    smoke={"network": "twitter", "iterations": 30},
    _seed_run=_seed_fig13,
    _reduce=_reduce_fig13,
))

_register(ScenarioSpec(
    name="fig15-environment",
    kind="series",
    description="Fig. 15: proposed tracker's expected success rate over "
                "the environment schedule (runs=1 per seed; multi-seed "
                "averaging replaces the internal repetition)",
    defaults={"runs": 1, "compute": "python"},
    smoke={},
    _seed_run=_seed_fig15,
    _reduce=_reduce_fig15,
))

_register(ScenarioSpec(
    name="eq24-selfdelegation",
    kind="series",
    description="Eq. 24: mean profit of always-self / always-delegate / "
                "eq24 dispatch plus delegation share",
    defaults={
        "network": "facebook", "graph_seed": 0, "tasks_per_trustor": 50,
    },
    smoke={"network": "twitter", "tasks_per_trustor": 5},
    _seed_run=_seed_eq24,
    _reduce=_reduce_eq24,
))

_register(ScenarioSpec(
    name="fig8-inference",
    kind="series",
    description="Fig. 8: % of trustors selecting honest trustees with the "
                "inference model, per experiment index",
    defaults={"runs": 50},
    smoke={"runs": 3},
    _seed_run=_seed_fig8,
    _reduce=_reduce_fig8,
))

_register(ScenarioSpec(
    name="fig14-activetime",
    kind="series",
    description="Fig. 14: trustor active time under the fragment-packet "
                "attack, cost-aware policy",
    defaults={"tasks_per_trustor": 50},
    smoke={"tasks_per_trustor": 3},
    _seed_run=_seed_fig14,
    _reduce=_reduce_fig14,
))

_register(ScenarioSpec(
    name="fig16-light",
    kind="series",
    description="Fig. 16: net profit over the lighting schedule with the "
                "environment de-bias",
    defaults={"phases": None},
    smoke={"phases": _FIG16_SMOKE_PHASES},
    _seed_run=_seed_fig16,
    _reduce=_reduce_fig16,
))

_register(ScenarioSpec(
    name="table1-connectivity",
    kind="series",
    description="Table 1: connectivity characteristics of one calibrated "
                "network (the sweep seed drives the generator)",
    defaults={"network": "facebook"},
    smoke={"network": "twitter"},
    _seed_run=_seed_table1,
    _reduce=_reduce_table1,
))

_register(ScenarioSpec(
    name="fig12-overhead",
    kind="series",
    description="Figs. 9-12 and Table 2: the three trust-transfer methods "
                "on one simulation (one network, one K); reduced to the "
                "Fig. 12 mean inquired nodes per trustor",
    defaults={
        "network": "facebook", "graph_seed": 0, "num_characteristics": 4,
        "property_based_tasks": False,
    },
    smoke={"network": "twitter"},
    _seed_run=_seed_fig12,
    _reduce=_reduce_fig12,
))

_register(ScenarioSpec(
    name="ablation-attacks",
    kind="series",
    description="Ablation: defended estimate error under the four "
                "adversary models at 50% attackers",
    defaults={"honest_count": 6, "attacker_count": 6, "rounds": 80},
    smoke={"rounds": 10},
    _seed_run=_seed_attacks,
    _reduce=_reduce_attacks,
))

_register(ScenarioSpec(
    name="ablation-beta",
    kind="series",
    description="Ablation: Fig. 15 tracking MAE per forgetting factor "
                "(history weight)",
    defaults={
        "runs": 60, "betas": (0.5, 0.8, 0.9, 0.98), "compute": "python",
    },
    smoke={"runs": 4},
    _seed_run=_seed_beta,
    _reduce=_reduce_beta,
))

_register(ScenarioSpec(
    name="ablation-combiner",
    kind="series",
    description="Ablation: mean Eq. 7 vs Eq. 5 trust-transfer gap per "
                "path length (Monte-Carlo)",
    defaults={
        "samples": 2000, "trials": 60000, "lengths": (1, 2, 3, 4),
        "compute": "python",
    },
    smoke={"samples": 100, "trials": 2000},
    _seed_run=_seed_combiner,
    _reduce=_reduce_combiner,
))

_register(ScenarioSpec(
    name="ablation-energy",
    kind="series",
    description="Ablation: CC2530-scale energy cost of the Fig. 14 attack "
                "without vs with the proposed model",
    defaults={"tasks_per_trustor": 50},
    smoke={"tasks_per_trustor": 3},
    _seed_run=_seed_energy,
    _reduce=_reduce_energy,
))

_register(ScenarioSpec(
    name="ablation-timedecay",
    kind="series",
    description="Ablation: time-decay vs environment de-bias tracking MAE "
                "on the Fig. 15 schedule",
    defaults={"runs": 60},
    smoke={"runs": 4},
    _seed_run=_seed_timedecay,
    _reduce=_reduce_timedecay,
))

_register(ScenarioSpec(
    name="ablation-whitewashing",
    kind="series",
    description="Ablation: abuse rate with shared vs private usage logs "
                "across reverse-evaluation thresholds",
    defaults={
        "network": "facebook", "graph_seed": 0, "thresholds": (0.0, 0.6),
    },
    smoke={"network": "twitter"},
    _seed_run=_seed_whitewashing,
    _reduce=_reduce_whitewashing,
))


# ---------------------------------------------------------------------------
# vectorized-backend variants
#
# Same seed/reduce functions with ``compute="vectorized"`` as the
# default, registered as first-class scenarios so every generic harness
# that iterates ``registry.names()`` — the sequential-vs-parallel
# equivalence suite above all — exercises the numpy kernels for free and
# asserts them ``==``-equal to their python-backend base scenario.
# ---------------------------------------------------------------------------

def _register_vectorized(base_name: str) -> ScenarioSpec:
    base = get(base_name)
    return _register(replace(
        base,
        name=base.name + "-vectorized",
        description=base.description + " [numpy kernel backend; "
                    "bit-identical to " + base.name + "]",
        defaults={**base.defaults, "compute": "vectorized"},
    ))


_register_vectorized("fig7-mutuality")
_register_vectorized("fig15-environment")
_register_vectorized("ablation-beta")
_register_vectorized("ablation-combiner")
