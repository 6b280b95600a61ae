"""Figs. 9–12 / Table 2 simulation: transitivity of trust (Section 5.5).

Setup, following the paper:

* a universe of K ∈ {4, 5, 6, 7} characteristics; a catalog of task types,
  each with one or two characteristics randomly assigned;
* every network node keeps trustworthiness records of two different tasks
  — modelled as experience its neighbors hold about it, at a trust level
  that approaches the node's actual competence;
* each trustor generates one task-delegation request and searches for
  potential trustees with one of three methods: *traditional* (exact-task
  transfer, Eq. 5), *conservative* (Eq. 8–11) or *aggressive* (Eq. 12–17);
* the request is delegated to the reachable trustee with the highest
  transferred trustworthiness; success is Bernoulli in the trustee's
  actual competence on the task.

Only the unilateral trustor-side evaluation is used (the paper isolates
transitivity from mutuality here).

Outputs: success rate, unavailable rate, average number of potential
trustees (Figs. 9–11), and per-trustor inquiry counts (Fig. 12 search
overhead).  ``property_based_tasks=True`` switches characteristic
assignment from random to node-property-derived, the Table 2 variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.ids import NodeId
from repro.core.task import Task
from repro.core.transitivity import (
    MappingKnowledge,
    TransitivityMode,
    TrustTransitivity,
)
from repro.simulation.config import TransitivityConfig
from repro.simulation.rng import spawn
from repro.simulation.scenario import Scenario, build_scenario
from repro.socialnet.graph import SocialGraph


@dataclass(frozen=True)
class TransitivityResult:
    """One network × one method × one characteristic-count outcome."""

    network: str
    mode: TransitivityMode
    num_characteristics: int
    success_rate: float
    unavailable_rate: float
    avg_potential_trustees: float
    inquiry_counts: Tuple[int, ...] = ()

    def as_row(self) -> Dict[str, object]:
        return {
            "network": self.network,
            "method": self.mode.value,
            "K": self.num_characteristics,
            "success": round(self.success_rate, 4),
            "unavailable": round(self.unavailable_rate, 4),
            "potential_trustees": round(self.avg_potential_trustees, 2),
        }


def _make_catalog(
    config: TransitivityConfig, rng: random.Random
) -> List[Task]:
    """Task catalog of 1..max_task_characteristics-sized combinations.

    ``catalog_size == 0`` enumerates every combination (the task-type
    space grows with K, which is what makes exact-task matches — and thus
    the traditional method — increasingly rare as K grows, the Fig. 9
    trend).  A positive ``catalog_size`` samples that many types.
    """
    from itertools import combinations

    universe = [f"char-{i}" for i in range(config.num_characteristics)]
    combos: List[Tuple[str, ...]] = []
    for count in range(1, config.max_task_characteristics + 1):
        combos.extend(combinations(universe, count))
    if config.catalog_size and config.catalog_size < len(combos):
        combos = rng.sample(combos, config.catalog_size)
    catalog = [
        Task(name=f"task-{index}", characteristics=chars)
        for index, chars in enumerate(combos)
    ]
    if len(catalog) < config.tasks_per_node:
        raise ValueError(
            "characteristic universe too small for the requested catalog"
        )
    return catalog


def _property_catalog(
    graph: SocialGraph, config: TransitivityConfig
) -> List[Task]:
    """Table 2 variant: characteristics derived from node properties.

    The paper uses "real-world node properties of the three social
    networks" as task characteristics.  The corresponding structural
    properties available here are degree band, clustering band and
    community membership — the catalog names its characteristics after
    those properties, and nodes are matched to tasks touching their own
    property bands in :class:`TransitivitySimulation`.
    """
    properties = [
        "prop-degree-high", "prop-degree-low",
        "prop-clustering-high", "prop-clustering-low",
        "prop-core", "prop-periphery",
    ][: config.num_characteristics]
    limit = config.catalog_size or None  # 0 = enumerate everything
    catalog: List[Task] = []
    index = 0
    for i, first in enumerate(properties):
        if limit is not None and len(catalog) >= limit:
            break
        catalog.append(Task(name=f"ptask-{index}", characteristics=(first,)))
        index += 1
        for second in properties[i + 1:]:
            if limit is not None and len(catalog) >= limit:
                break
            catalog.append(
                Task(name=f"ptask-{index}", characteristics=(first, second))
            )
            index += 1
    return catalog


class TransitivitySimulation:
    """Runs the Section 5.5 experiment over one network."""

    def __init__(
        self,
        graph: SocialGraph,
        config: TransitivityConfig = TransitivityConfig(),
        seed: int = 0,
        property_based_tasks: bool = False,
    ) -> None:
        self.graph = graph
        self.config = config
        self.seed = seed
        self.property_based_tasks = property_based_tasks
        self.scenario: Scenario = build_scenario(graph, seed, config.roles)
        self._rng = spawn(
            seed, "transitivity", graph.name,
            config.num_characteristics, property_based_tasks,
        )
        if property_based_tasks:
            self.catalog = _property_catalog(graph, config)
        else:
            self.catalog = _make_catalog(config, self._rng)
        self.knowledge = self._build_knowledge()

    # ------------------------------------------------------------------
    def _node_competence(self, node: NodeId, task: Task) -> float:
        """Actual competence of a node on a task (mean over characteristics).

        The paper assigns one number per (node, task); deriving it from
        per-characteristic competence keeps it consistent across tasks
        sharing characteristics — which is exactly the structure the
        characteristic-based inference exploits.
        """
        chars = sorted(task.characteristics)
        if not chars:
            return self.scenario.competence(node, task.name)
        return sum(
            self.scenario.competence(node, ch) for ch in chars
        ) / len(chars)

    def _tasks_of_node(self, node: NodeId) -> List[Task]:
        """The two (config.tasks_per_node) tasks this node has records of."""
        rng = random.Random(repr(("node-tasks", node, self.seed,
                                  self.config.num_characteristics,
                                  self.property_based_tasks)))
        count = min(self.config.tasks_per_node, len(self.catalog))
        return rng.sample(self.catalog, count)

    def _build_knowledge(self) -> MappingKnowledge:
        """Neighbors hold trust records about each node's two tasks.

        The recorded trust approaches the node's actual capability
        (the paper: "neighboring nodes that have direct experiences with
        it will establish the trustworthiness ... that approaches its
        actual capability"), modelled as competence plus small noise.
        """
        knowledge = MappingKnowledge()
        noise_rng = spawn(self.seed, "transitivity", "noise", self.graph.name,
                          self.config.num_characteristics)
        sample_rng = spawn(self.seed, "transitivity", "records",
                           self.graph.name, self.config.num_characteristics)
        fraction = self.config.record_fraction
        for node in self.graph.nodes():
            tasks = self._tasks_of_node(node)
            neighbors = sorted(self.graph.neighbors(node))
            for task in tasks:
                # Only a fraction of neighbors have first-hand experience
                # with this node on this task — records are sparse, which
                # is what makes the exact-task (traditional) search starve
                # while the characteristic-based schemes still find paths.
                count = max(1, round(len(neighbors) * fraction))
                holders = sample_rng.sample(neighbors, min(count, len(neighbors)))
                competence = self._node_competence(node, task)
                for neighbor in holders:
                    noisy = competence + noise_rng.uniform(-0.05, 0.05)
                    noisy = min(1.0, max(0.0, noisy))
                    knowledge.add_experience(neighbor, node, task, noisy)
        # Nodes with no outgoing records still need adjacency entries so
        # the path search can traverse *through* them if needed.
        for node in self.graph.nodes():
            knowledge.adjacency.setdefault(node, [])
        return knowledge

    # ------------------------------------------------------------------
    def run(self, mode: TransitivityMode) -> TransitivityResult:
        """Delegate one random catalog task per trustor with ``mode``."""
        transitivity = TrustTransitivity(
            knowledge=self.knowledge,
            omega_recommend=self.config.omega_recommend,
            omega_execute=self.config.omega_execute,
            max_depth=self.config.max_depth,
        )
        request_rng = spawn(
            self.seed, "transitivity", "requests", self.graph.name,
            self.config.num_characteristics, mode.value,
            self.property_based_tasks,
        )

        trustee_set = self.scenario.trustee_set
        requests = 0
        successes = 0
        unavailable = 0
        potential_counts: List[int] = []
        inquiry_counts: List[int] = []

        for trustor in self.scenario.trustors:
            requests += 1
            task = request_rng.choice(self.catalog)
            inquiries: set = set()
            found = transitivity.find_trustees(trustor, task, mode, inquiries)
            candidates = {
                node: trust for node, trust in found.items()
                if node in trustee_set and node != trustor
            }
            potential_counts.append(len(candidates))
            inquiry_counts.append(len(inquiries))
            if not candidates:
                unavailable += 1
                continue
            best = max(candidates, key=lambda node: candidates[node].value)
            competence = self._node_competence(best, task)
            if request_rng.random() < competence:
                successes += 1

        return TransitivityResult(
            network=self.graph.name,
            mode=mode,
            num_characteristics=self.config.num_characteristics,
            success_rate=successes / requests if requests else 0.0,
            unavailable_rate=unavailable / requests if requests else 0.0,
            avg_potential_trustees=(
                sum(potential_counts) / len(potential_counts)
                if potential_counts else 0.0
            ),
            inquiry_counts=tuple(sorted(inquiry_counts)),
        )

