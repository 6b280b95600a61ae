"""Fig. 13 simulation: trustworthiness updated with delegation results
(Section 5.6).

Each trustor repeatedly delegates a task to one of its candidate trustees.
Candidates carry hidden actual values of success rate, gain, damage and
cost, all drawn uniformly in [0, 1]; the trustor maintains *expected*
values per candidate, refreshed after every delegation by the forgetting
rule with β = 0.1 (Eq. 19–22).

Two selection strategies are compared:

* strategy 1 — highest expected success rate (ignores stakes),
* strategy 2 — highest expected net profit (Eq. 23, the paper's proposal).

The reported series is the average *realized* net profit per iteration
across trustors, smoothed over a small window as the paper's converged
curves are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.ids import NodeId
from repro.core.policy import SelectionPolicy
from repro.core.records import OutcomeFactors
from repro.core.update import ForgettingUpdater
from repro.simulation.config import DelegationConfig
from repro.simulation.results import SeriesResult
from repro.simulation.rng import spawn
from repro.simulation.scenario import Scenario, build_scenario
from repro.socialnet.graph import SocialGraph


@dataclass(frozen=True)
class _GroundTruth:
    """Hidden actual (S, G, D, C) of one candidate trustee."""

    success_rate: float
    gain: float
    damage: float
    cost: float


@dataclass
class NetProfitSeries:
    """The Fig. 13 output for one (network, strategy) pair."""

    network: str
    strategy: str
    series: SeriesResult

    def converged_profit(self, tail: int = 200) -> float:
        """Mean realized profit over the final ``tail`` iterations."""
        return self.series.tail_mean(tail)


class DelegationSimulation:
    """Runs the Section 5.6 experiment over one network."""

    def __init__(
        self,
        graph: SocialGraph,
        config: DelegationConfig = DelegationConfig(),
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.config = config
        self.seed = seed
        self.scenario: Scenario = build_scenario(graph, seed, config.roles)
        self._truth: Dict[Tuple[NodeId, NodeId], _GroundTruth] = {}
        self._candidates: Dict[NodeId, List[NodeId]] = {}
        self._init_ground_truth()

    def _init_ground_truth(self) -> None:
        """Hidden stakes per (trustor, candidate), and candidate lists."""
        truth_rng = spawn(self.seed, "delegation", "truth", self.graph.name)
        for trustor in self.scenario.trustors:
            candidates = self.scenario.trustee_neighbors(trustor, hops=2)
            self._candidates[trustor] = candidates
            for candidate in candidates:
                self._truth[(trustor, candidate)] = _GroundTruth(
                    success_rate=truth_rng.random(),
                    gain=truth_rng.random(),
                    damage=truth_rng.random(),
                    cost=truth_rng.random(),
                )

    # ------------------------------------------------------------------
    def run(self, policy: SelectionPolicy, label: str) -> NetProfitSeries:
        """Iterate delegations under ``policy`` and record realized profit."""
        updater = ForgettingUpdater.uniform(self.config.beta)
        rng = spawn(self.seed, "delegation", "run", self.graph.name, label)

        # Expected factors start at fresh random guesses, matching the
        # paper's random initial assignment of expected values.
        expected: Dict[Tuple[NodeId, NodeId], OutcomeFactors] = {}
        init_rng = spawn(self.seed, "delegation", "init", self.graph.name)
        for key in self._truth:
            expected[key] = OutcomeFactors(
                success_rate=init_rng.random(),
                gain=init_rng.random(),
                damage=init_rng.random(),
                cost=init_rng.random(),
            )

        series = SeriesResult(label=f"{self.graph.name} ({label})")
        active_trustors = [
            trustor for trustor in self.scenario.trustors
            if self._candidates[trustor]
        ]
        for _iteration in range(self.config.iterations):
            total_profit = 0.0
            for trustor in active_trustors:
                candidates = self._candidates[trustor]
                choice = policy.select(
                    (cand, expected[(trustor, cand)]) for cand in candidates
                )
                assert choice is not None  # candidates is non-empty
                trustee = choice[0]
                truth = self._truth[(trustor, trustee)]

                succeeded = rng.random() < truth.success_rate
                gain = truth.gain if succeeded else 0.0
                damage = 0.0 if succeeded else truth.damage
                cost = truth.cost
                total_profit += gain - damage - cost

                # Ĝ is "gain given success" and D̂ "damage given failure"
                # in Eq. 18, so each is refreshed only on the outcome that
                # observes it; Ŝ and Ĉ are observed every time.
                previous = expected[(trustor, trustee)]
                observed = OutcomeFactors(
                    success_rate=1.0 if succeeded else 0.0,
                    gain=gain if succeeded else previous.gain,
                    damage=previous.damage if succeeded else damage,
                    cost=cost,
                )
                expected[(trustor, trustee)] = updater.update(
                    previous, observed
                )
            series.append(
                total_profit / len(active_trustors) if active_trustors else 0.0
            )
        return NetProfitSeries(
            network=self.graph.name, strategy=label, series=series
        )
