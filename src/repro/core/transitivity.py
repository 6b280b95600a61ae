"""Transitivity of trust with context restrictions (Section 4.3).

Four ways to move trust across a path of intermediate nodes:

* :func:`traditional_chain` — the unrestricted product of Eq. 5 (the
  baseline the paper criticizes).
* :func:`combine_two_sided` — the two-term combiner of Eq. 7, which also
  credits the case "I mistrust my recommender AND the recommender misjudged
  the trustee".
* Conservative transitivity (Eq. 8–11) — trust crosses a single path only
  if **all** characteristics of the new task lie in the **intersection** of
  the tasks experienced along the path, and both hops clear the ω gates.
* Aggressive transitivity (Eq. 12–17) — characteristics may be certified by
  **different paths**; each characteristic travels its own path, and the
  per-characteristic trusts are recombined with the task's weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ids import NodeId, validate_probability
from repro.core.task import Characteristic, Task
from repro.core.trustworthiness import TrustValue, clamp01


def combine_two_sided(trust_ab: float, trust_bc: float) -> float:
    """Eq. 7: ``t1*t2 + (1-t1)*(1-t2)``.

    The first term is the usual "trusted recommender vouches for a trusted
    trustee".  The second term — dropped by Eq. 5 — is "an untrusted
    recommender misjudging its successor", which also ends in a correct
    outcome.  The combiner is symmetric and maps [0,1]² into [0,1].
    """
    validate_probability(trust_ab, "trust_ab")
    validate_probability(trust_bc, "trust_bc")
    return trust_ab * trust_bc + (1.0 - trust_ab) * (1.0 - trust_bc)


def combine_chain(hops: Sequence[float]) -> float:
    """Fold :func:`combine_two_sided` along a path of hop trusts.

    An empty chain is full trust (the trustor asking itself); a single hop
    is direct experience and passes through unchanged.
    """
    result = 1.0
    for hop in hops:
        result = combine_two_sided(result, hop)
    return result


def traditional_chain(hops: Sequence[float]) -> float:
    """Eq. 5: the plain product of hop trusts along the selected path."""
    result = 1.0
    for hop in hops:
        validate_probability(hop, "hop trust")
        result *= hop
    return result


class TransitivityMode(enum.Enum):
    """The three trust-transfer schemes compared in Section 5.5."""

    TRADITIONAL = "traditional"
    CONSERVATIVE = "conservative"
    AGGRESSIVE = "aggressive"


@dataclass(frozen=True)
class PathAssessment:
    """Outcome of assessing one recommendation path for a task."""

    path: Tuple[NodeId, ...]
    trust: TrustValue
    characteristics: frozenset
    admitted: bool
    reason: str = ""


# The knowledge interface the transitivity engine needs from the network:
# for an edge (u, v), which tasks has u experienced with v, and at what
# trust level.  Implementations wrap TrustStores or synthetic scenarios.
class TrustKnowledge:
    """Read-only view of pairwise task experience used by path search."""

    def experienced(self, holder: NodeId, about: NodeId) -> List[Tuple[Task, float]]:
        """``(task, trust)`` pairs that ``holder`` knows about ``about``."""
        raise NotImplementedError

    def neighbors(self, node: NodeId) -> Iterable[NodeId]:
        """Social neighbors of ``node`` (the edges trust may travel)."""
        raise NotImplementedError

    def restricted_hops(
        self, node: NodeId, required: frozenset
    ) -> Sequence[Tuple[NodeId, Optional[float]]]:
        """The out-edges of ``node`` that carry experience, in
        :meth:`neighbors` order, each with its hop trust restricted to
        ``required`` (Eq. 9/10/13–16).

        The hop trust is ``None`` when the edge's experienced tasks do
        not cover every characteristic in ``required``.
        """
        hops = []
        for neighbor in self.neighbors(node):
            experienced = self.experienced(node, neighbor)
            if not experienced:
                continue
            hop_trust = None
            if required <= _covered_characteristics(experienced):
                hop_trust = _edge_trust_for(experienced, required)
            hops.append((neighbor, hop_trust))
        return tuple(hops)


@dataclass
class MappingKnowledge(TrustKnowledge):
    """Dictionary-backed :class:`TrustKnowledge` for scenarios and tests.

    Path search asks the same edge questions for every trustor, so the
    knowledge memoizes, per node and required characteristic set, the
    answer of :meth:`restricted_hops`: each out-edge's coverage test and
    restricted hop trust.  :meth:`add_experience` clears the memo, so change ``edges`` and
    ``adjacency`` only through it: a direct edit bypasses the memo.  The
    memo is not part of the value: it is left out of equality, ``repr``
    and pickles.
    """

    edges: Dict[Tuple[NodeId, NodeId], List[Tuple[Task, float]]] = field(
        default_factory=dict
    )
    adjacency: Dict[NodeId, List[NodeId]] = field(default_factory=dict)
    _hops: Dict[
        Tuple[NodeId, frozenset], Sequence[Tuple[NodeId, Optional[float]]]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def add_experience(
        self, holder: NodeId, about: NodeId, task: Task, trust: float
    ) -> None:
        """Register that ``holder`` trusts ``about`` at ``trust`` for ``task``."""
        validate_probability(trust, "trust")
        self._hops.clear()
        self.edges.setdefault((holder, about), []).append((task, trust))
        self.adjacency.setdefault(holder, [])
        if about not in self.adjacency[holder]:
            self.adjacency[holder].append(about)
        self.adjacency.setdefault(about, [])

    def experienced(self, holder: NodeId, about: NodeId) -> List[Tuple[Task, float]]:
        return list(self.edges.get((holder, about), ()))

    def neighbors(self, node: NodeId) -> Iterable[NodeId]:
        return self.adjacency.get(node, ())

    def restricted_hops(
        self, node: NodeId, required: frozenset
    ) -> Sequence[Tuple[NodeId, Optional[float]]]:
        key = (node, required)
        try:
            return self._hops[key]
        except KeyError:
            hops = self._hops[key] = super().restricted_hops(node, required)
            return hops

    def __getstate__(self) -> Dict[str, object]:
        return {"edges": self.edges, "adjacency": self.adjacency}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.edges = state["edges"]
        self.adjacency = state["adjacency"]
        self._hops = {}


def _covered_characteristics(
    experienced: Sequence[Tuple[Task, float]]
) -> frozenset:
    """Union of characteristics over experienced tasks of one edge."""
    covered: set = set()
    for task, _trust in experienced:
        covered.update(task.characteristics)
    return frozenset(covered)


def _edge_trust_for(
    experienced: Sequence[Tuple[Task, float]],
    characteristics: frozenset,
) -> Optional[float]:
    """Inferred hop trust restricted to ``characteristics`` (Eq. 9/10/13–16).

    Weighted average over experienced tasks of the characteristics they
    share with the requested set; ``None`` when the edge covers none of
    them.  This is the single-edge specialization of Eq. 4.
    """
    weight_total = 0.0
    weighted_sum = 0.0
    for task, trust in experienced:
        shared = task.characteristics & characteristics
        if not shared:
            continue
        weight = sum(task.weight_of(ch) for ch in shared)
        if weight <= 0.0:
            continue
        weight_total += weight
        weighted_sum += weight * trust
    if weight_total <= 0.0:
        return None
    return clamp01(weighted_sum / weight_total)


@dataclass
class TrustTransitivity:
    """Path search + combination for the three transfer schemes.

    Parameters
    ----------
    knowledge:
        Where pairwise experience lives.
    omega_recommend:
        ω1 of Eq. 7/11 — minimum hop trust for an *intermediate* node to be
        accepted as a recommender.
    omega_execute:
        ω2 — minimum trust of the final hop toward the executing trustee.
    max_depth:
        Longest admissible path (number of hops).  The paper's experiments
        stay within the sub-networks' small diameters; the default of 4
        bounds the search without cutting off realistic paths.
    """

    knowledge: TrustKnowledge
    omega_recommend: float = 0.5
    omega_execute: float = 0.5
    max_depth: int = 4

    def __post_init__(self) -> None:
        validate_probability(self.omega_recommend, "omega_recommend")
        validate_probability(self.omega_execute, "omega_execute")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")

    # ------------------------------------------------------------------
    # path enumeration
    # ------------------------------------------------------------------
    def _search(
        self,
        trustor: NodeId,
        task: Task,
        required: frozenset,
        inquiries: Optional[set] = None,
    ) -> List[PathAssessment]:
        """DFS over recommendation paths whose every edge covers ``required``.

        ``required`` is the characteristic set each edge must (partially,
        for aggressive mode the caller passes singletons) cover.  Records
        every node interrogated into ``inquiries`` for overhead accounting
        (Fig. 12).

        Each edge's restricted hop trust comes from
        :meth:`TrustKnowledge.restricted_hops` (memoized by
        :class:`MappingKnowledge`).  A stack entry carries its prefix's
        ω1 gate and chain trust, so extending a path folds one hop:
        ``combine_chain((prefix, hop))`` equals folding the whole path,
        because ``combine_two_sided(1.0, t) == t``.
        """
        results: List[PathAssessment] = []
        omega_recommend = self.omega_recommend
        omega_execute = self.omega_execute
        # (node, path, every hop so far clears omega_recommend, chain trust)
        stack: List[Tuple[NodeId, Tuple[NodeId, ...], bool, float]] = [
            (trustor, (trustor,), True, 1.0)
        ]
        while stack:
            node, path, recommend_ok, prefix_trust = stack.pop()
            if len(path) > self.max_depth:
                continue
            direct = len(path) == 1
            for neighbor, hop_trust in self.knowledge.restricted_hops(
                node, required
            ):
                if neighbor in path:
                    continue
                if inquiries is not None:
                    inquiries.add(neighbor)
                if hop_trust is None:
                    continue
                new_path = path + (neighbor,)
                # Every completed path (>= 1 hop) is a candidate ending at
                # `neighbor` as the executing trustee; the same node also
                # stays on the stack as a potential recommender.
                admitted = recommend_ok and hop_trust >= omega_execute
                trust = combine_chain((prefix_trust, hop_trust))
                results.append(
                    PathAssessment(
                        path=new_path,
                        trust=TrustValue(trust, direct=direct),
                        characteristics=required,
                        admitted=admitted,
                        reason="" if admitted else "omega gate failed",
                    )
                )
                stack.append((
                    neighbor, new_path,
                    recommend_ok and hop_trust >= omega_recommend, trust,
                ))
        return results

    # ------------------------------------------------------------------
    # the three schemes
    # ------------------------------------------------------------------
    def traditional(
        self,
        trustor: NodeId,
        task: Task,
        inquiries: Optional[set] = None,
    ) -> Dict[NodeId, TrustValue]:
        """Eq. 5 baseline: exact-task paths, multiplicative combination.

        Only edges holding experience with the *same task name* qualify;
        the characteristics model is ignored, matching the "traditional
        trust transfer method" of Section 5.5.
        """
        results: Dict[NodeId, TrustValue] = {}
        stack: List[Tuple[NodeId, Tuple[NodeId, ...], Tuple[float, ...]]] = [
            (trustor, (trustor,), ())
        ]
        while stack:
            node, path, hops = stack.pop()
            if len(hops) >= self.max_depth:
                continue
            for neighbor in self.knowledge.neighbors(node):
                if neighbor in path:
                    continue
                experienced = self.knowledge.experienced(node, neighbor)
                matching = [
                    trust for exp_task, trust in experienced
                    if exp_task.name == task.name
                ]
                if not matching:
                    continue
                if inquiries is not None:
                    inquiries.add(neighbor)
                hop_trust = max(matching)
                new_hops = hops + (hop_trust,)
                trust = traditional_chain(new_hops)
                existing = results.get(neighbor)
                if existing is None or trust > existing.value:
                    results[neighbor] = TrustValue(
                        trust, direct=len(new_hops) == 1
                    )
                stack.append((neighbor, path + (neighbor,), new_hops))
        return results

    def conservative(
        self,
        trustor: NodeId,
        task: Task,
        inquiries: Optional[set] = None,
    ) -> Dict[NodeId, TrustValue]:
        """Eq. 8–11: every edge of a path must cover *all* characteristics.

        A potential trustee's trust is the best admitted single path.
        """
        required = frozenset(task.characteristics)
        if not required:
            return {}
        assessments = self._search(trustor, task, required, inquiries)
        best: Dict[NodeId, TrustValue] = {}
        for assessment in assessments:
            if not assessment.admitted:
                continue
            trustee = assessment.path[-1]
            current = best.get(trustee)
            if current is None or assessment.trust.value > current.value:
                best[trustee] = assessment.trust
        return best

    def aggressive(
        self,
        trustor: NodeId,
        task: Task,
        inquiries: Optional[set] = None,
    ) -> Dict[NodeId, TrustValue]:
        """Eq. 12–17: characteristics may arrive over different paths.

        For each characteristic a separate search runs with that singleton
        requirement; a trustee qualifies when *every* characteristic of the
        task reaches it through some admitted path.  The per-characteristic
        trusts are then recombined with the task weights (Eq. 17).
        """
        if not task.characteristics:
            return {}
        per_char: Dict[Characteristic, Dict[NodeId, float]] = {}
        for characteristic in task.characteristics:
            singleton = frozenset((characteristic,))
            assessments = self._search(trustor, task, singleton, inquiries)
            char_best: Dict[NodeId, float] = {}
            for assessment in assessments:
                if not assessment.admitted:
                    continue
                trustee = assessment.path[-1]
                value = assessment.trust.value
                if value > char_best.get(trustee, -1.0):
                    char_best[trustee] = value
            per_char[characteristic] = char_best

        # A trustee qualifies only with full coverage (Eq. 12).
        candidates = None
        for char_best in per_char.values():
            keys = set(char_best)
            candidates = keys if candidates is None else candidates & keys
        if not candidates:
            return {}

        combined: Dict[NodeId, TrustValue] = {}
        for trustee in candidates:
            total = 0.0
            for characteristic, weight in task.weight_map.items():
                total += weight * per_char[characteristic][trustee]
            combined[trustee] = TrustValue(clamp01(total), direct=False)
        return combined

    def find_trustees(
        self,
        trustor: NodeId,
        task: Task,
        mode: TransitivityMode,
        inquiries: Optional[set] = None,
    ) -> Dict[NodeId, TrustValue]:
        """Dispatch to one of the three schemes."""
        if mode is TransitivityMode.TRADITIONAL:
            return self.traditional(trustor, task, inquiries)
        if mode is TransitivityMode.CONSERVATIVE:
            return self.conservative(trustor, task, inquiries)
        if mode is TransitivityMode.AGGRESSIVE:
            return self.aggressive(trustor, task, inquiries)
        raise ValueError(f"unknown transitivity mode: {mode!r}")
