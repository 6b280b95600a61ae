"""Self-delegation (Eq. 24): delegate only when it beats doing it yourself.

Section 4.4 points out that an agent trusting others does not mean it
cannot do the job itself: trustor X delegates task τ to trustee Y only
when Y's expected net profit exceeds X's own.  The paper discusses this
rule without a dedicated figure; this simulation quantifies it — the
extension experiment DESIGN.md lists — by comparing three dispatch
policies over a population with heterogeneous self-competence:

* ``always-self`` — never delegate;
* ``always-delegate`` — always pick the best trustee (Eq. 23 alone);
* ``eq24`` — delegate only when the best trustee beats self-execution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.core.evaluation import prefers_delegation, select_best_candidate
from repro.core.ids import NodeId
from repro.core.records import OutcomeFactors
from repro.simulation.config import RoleConfig
from repro.simulation.rng import spawn
from repro.simulation.scenario import build_scenario
from repro.socialnet.graph import SocialGraph


@dataclass(frozen=True)
class SelfDelegationResult:
    """Mean realized net profit per dispatch policy, plus delegation share."""

    always_self: float
    always_delegate: float
    eq24: float
    eq24_delegation_share: float

    def as_row(self) -> Dict[str, float]:
        return {
            "always-self": round(self.always_self, 4),
            "always-delegate": round(self.always_delegate, 4),
            "eq24": round(self.eq24, 4),
            "eq24 delegation share": round(self.eq24_delegation_share, 4),
        }


class SelfDelegationSimulation:
    """Runs the Eq. 24 comparison over one network."""

    def __init__(
        self,
        graph: SocialGraph,
        tasks_per_trustor: int = 50,
        seed: int = 0,
        roles: RoleConfig = RoleConfig(),
        hoods: Optional[Mapping[NodeId, Sequence[NodeId]]] = None,
    ) -> None:
        self.graph = graph
        self.tasks_per_trustor = tasks_per_trustor
        self.seed = seed
        self.scenario = build_scenario(graph, seed, roles)
        self._truth_rng = spawn(seed, "self-delegation", "truth", graph.name)

        # Ground-truth factors.  Self-execution pays no delegation cost
        # and the trustor knows its own capability well ("the agent has
        # resource and capability to accomplish the task", Section 4.4);
        # candidates carry random stakes as in Fig. 13 and only the few
        # direct (1-hop) trustee neighbors are realistic delegates.
        # ``hoods`` (the scenario arena's sorted 1-hop neighbourhoods),
        # filtered by the trustee set, replaces a BFS per trustor.
        self.self_factors: Dict = {}
        self.candidate_factors: Dict = {}
        trustee_set = self.scenario.trustee_set
        for trustor in self.scenario.trustors:
            self.self_factors[trustor] = self._draw_factors(
                cost_scale=0.0, success_floor=0.5
            )
            if hoods is None:
                neighbors = self.scenario.trustee_neighbors(trustor, hops=1)
            else:
                neighbors = [
                    node for node in hoods[trustor] if node in trustee_set
                ]
            candidates = neighbors[:5]
            self.candidate_factors[trustor] = {
                candidate: self._draw_factors() for candidate in candidates
            }

    def _draw_factors(
        self, cost_scale: float = 0.5, success_floor: float = 0.0
    ) -> OutcomeFactors:
        rng = self._truth_rng
        return OutcomeFactors(
            success_rate=success_floor + (1.0 - success_floor) * rng.random(),
            gain=rng.random(),
            damage=rng.random(),
            cost=rng.random() * cost_scale,
        )

    def _realize(self, factors: OutcomeFactors, rng: random.Random) -> float:
        """One realized net profit draw from ground-truth factors."""
        if rng.random() < factors.success_rate:
            return factors.gain - factors.cost
        return -factors.damage - factors.cost

    def run(self) -> SelfDelegationResult:
        """Compare the three dispatch policies with perfect knowledge.

        Expectations equal the ground truth here: the point of Eq. 24 is
        the *decision rule*, not the learning (Fig. 13 covers learning).
        """
        rng = spawn(self.seed, "self-delegation", "run", self.graph.name)
        totals = {"self": 0.0, "delegate": 0.0, "eq24": 0.0}
        count = 0
        delegated = 0
        eq24_decisions = 0

        for trustor in self.scenario.trustors:
            own = self.self_factors[trustor]
            candidates = self.candidate_factors[trustor]
            best = select_best_candidate(candidates.items())
            for _ in range(self.tasks_per_trustor):
                count += 1
                totals["self"] += self._realize(own, rng)

                if best is not None:
                    best_factors = candidates[best[0]]
                    totals["delegate"] += self._realize(best_factors, rng)
                else:
                    totals["delegate"] += self._realize(own, rng)

                eq24_decisions += 1
                if best is not None and prefers_delegation(
                    candidates[best[0]], own
                ):
                    delegated += 1
                    totals["eq24"] += self._realize(candidates[best[0]], rng)
                else:
                    totals["eq24"] += self._realize(own, rng)

        return SelfDelegationResult(
            always_self=totals["self"] / count,
            always_delegate=totals["delegate"] / count,
            eq24=totals["eq24"] / count,
            eq24_delegation_share=delegated / eq24_decisions,
        )
