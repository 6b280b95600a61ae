"""Tests for restricted trust transitivity (Eq. 5-17)."""

import itertools
import pickle
import random

import pytest

from repro.core.task import Task
from repro.core.transitivity import (
    MappingKnowledge,
    PathAssessment,
    TransitivityMode,
    TrustKnowledge,
    TrustTransitivity,
    combine_chain,
    combine_two_sided,
    traditional_chain,
    _covered_characteristics,
    _edge_trust_for,
)
from repro.core.trustworthiness import TrustValue


class TestCombiner:
    def test_eq7_formula(self):
        # t1*t2 + (1-t1)(1-t2).
        assert combine_two_sided(0.9, 0.8) == pytest.approx(
            0.9 * 0.8 + 0.1 * 0.2
        )

    def test_symmetry(self):
        assert combine_two_sided(0.3, 0.7) == pytest.approx(
            combine_two_sided(0.7, 0.3)
        )

    def test_full_trust_is_identity(self):
        for t in (0.0, 0.25, 0.5, 1.0):
            assert combine_two_sided(1.0, t) == pytest.approx(t)

    def test_zero_trust_inverts(self):
        # Mistrusted recommender + its misjudgment: (1-0)(1-t).
        for t in (0.0, 0.25, 1.0):
            assert combine_two_sided(0.0, t) == pytest.approx(1.0 - t)

    def test_half_is_absorbing(self):
        for t in (0.0, 0.3, 1.0):
            assert combine_two_sided(0.5, t) == pytest.approx(0.5)

    def test_range_preserved(self):
        for t1 in (0.0, 0.2, 0.5, 0.8, 1.0):
            for t2 in (0.0, 0.3, 0.6, 1.0):
                assert 0.0 <= combine_two_sided(t1, t2) <= 1.0

    def test_exceeds_naive_product(self):
        # The neglected (1-t1)(1-t2) term makes Eq. 7 >= Eq. 5.
        for t1 in (0.1, 0.5, 0.9):
            for t2 in (0.2, 0.6, 0.95):
                assert combine_two_sided(t1, t2) >= t1 * t2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            combine_two_sided(1.2, 0.5)


class TestChains:
    def test_empty_chain_is_full_trust(self):
        assert combine_chain([]) == 1.0
        assert traditional_chain([]) == 1.0

    def test_single_hop_passthrough(self):
        assert combine_chain([0.8]) == pytest.approx(0.8)
        assert traditional_chain([0.8]) == pytest.approx(0.8)

    def test_traditional_chain_is_product(self):
        assert traditional_chain([0.9, 0.8, 0.5]) == pytest.approx(0.36)

    def test_combine_chain_two_hops_matches_eq7(self):
        assert combine_chain([0.9, 0.8]) == pytest.approx(
            combine_two_sided(0.9, 0.8)
        )


def _simple_knowledge() -> MappingKnowledge:
    """Alice -> Bob -> Carlos, same task type (Fig. 4's admissible case)."""
    knowledge = MappingKnowledge()
    task = Task("type1", characteristics=("t1",))
    knowledge.add_experience("alice", "bob", task, 0.9)
    knowledge.add_experience("bob", "carlos", task, 0.8)
    return knowledge


class TestTraditional:
    def test_direct_and_two_hop_found(self):
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(knowledge)
        task = Task("type1", characteristics=("t1",))
        found = engine.traditional("alice", task)
        assert found["bob"].value == pytest.approx(0.9)
        assert found["carlos"].value == pytest.approx(0.72)  # Eq. 5 product

    def test_task_name_must_match_exactly(self):
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(knowledge)
        other = Task("type2", characteristics=("t1",))
        assert engine.traditional("alice", other) == {}

    def test_direct_experience_marked_direct(self):
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(knowledge)
        task = Task("type1", characteristics=("t1",))
        found = engine.traditional("alice", task)
        assert found["bob"].direct
        assert not found["carlos"].direct

    def test_max_depth_limits_search(self):
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(knowledge, max_depth=1)
        task = Task("type1", characteristics=("t1",))
        found = engine.traditional("alice", task)
        assert "bob" in found
        assert "carlos" not in found

    def test_inquiries_recorded(self):
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(knowledge)
        inquiries = set()
        engine.traditional(
            "alice", Task("type1", characteristics=("t1",)), inquiries
        )
        assert inquiries == {"bob", "carlos"}


class TestConservative:
    def test_same_type_two_hop_uses_eq7(self):
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(
            knowledge, omega_recommend=0.5, omega_execute=0.5
        )
        task = Task("type1", characteristics=("t1",))
        found = engine.conservative("alice", task)
        assert found["carlos"].value == pytest.approx(
            combine_two_sided(0.9, 0.8)
        )

    def test_omega_gate_blocks_weak_recommender(self):
        knowledge = MappingKnowledge()
        task = Task("type1", characteristics=("t1",))
        knowledge.add_experience("alice", "bob", task, 0.4)     # weak hop
        knowledge.add_experience("bob", "carlos", task, 0.9)
        engine = TrustTransitivity(
            knowledge, omega_recommend=0.5, omega_execute=0.5
        )
        found = engine.conservative("alice", task)
        assert "carlos" not in found

    def test_requires_all_characteristics_on_every_edge(self):
        # B trusts C on {a}; C trusts D on {a, b}.  A task needing {a, b}
        # cannot cross the B->C edge (Eq. 8 intersection).
        knowledge = MappingKnowledge()
        knowledge.add_experience(
            "bob", "carlos", Task("ta", characteristics=("a",)), 0.9
        )
        knowledge.add_experience(
            "carlos", "dale", Task("tab", characteristics=("a", "b")), 0.9
        )
        engine = TrustTransitivity(knowledge)
        found = engine.conservative(
            "bob", Task("new", characteristics=("a", "b"))
        )
        assert "dale" not in found

    def test_characteristic_inference_within_path(self):
        # Edges hold different task *names* sharing the characteristic:
        # conservative transfers via the characteristics (Eq. 9-10).
        knowledge = MappingKnowledge()
        knowledge.add_experience(
            "bob", "carlos", Task("old1", characteristics=("a",)), 0.9
        )
        knowledge.add_experience(
            "carlos", "dale", Task("old2", characteristics=("a",)), 0.8
        )
        engine = TrustTransitivity(knowledge)
        found = engine.conservative(
            "bob", Task("new", characteristics=("a",))
        )
        assert found["dale"].value == pytest.approx(
            combine_two_sided(0.9, 0.8)
        )

    def test_empty_task_finds_nothing(self):
        engine = TrustTransitivity(_simple_knowledge())
        assert engine.conservative("alice", Task("empty")) == {}


class TestAggressive:
    def _two_path_knowledge(self) -> MappingKnowledge:
        """Fig. 5(b): {a1} via B-C-E, {a2} via B-D-E."""
        knowledge = MappingKnowledge()
        task_a = Task("task-a", characteristics=("a1",))
        task_b = Task("task-b", characteristics=("a2",))
        knowledge.add_experience("bob", "carlos", task_a, 0.9)
        knowledge.add_experience("carlos", "evan", task_a, 0.8)
        knowledge.add_experience("bob", "dale", task_b, 0.85)
        knowledge.add_experience("dale", "evan", task_b, 0.75)
        return knowledge

    def test_characteristics_combine_across_paths(self):
        knowledge = self._two_path_knowledge()
        engine = TrustTransitivity(knowledge)
        new_task = Task("new", characteristics=("a1", "a2"))
        found = engine.aggressive("bob", new_task)
        expected = 0.5 * combine_two_sided(0.9, 0.8) + \
            0.5 * combine_two_sided(0.85, 0.75)
        assert found["evan"].value == pytest.approx(expected)

    def test_conservative_cannot_find_what_aggressive_can(self):
        # No single path covers both characteristics (Eq. 8 fails), but
        # the union over paths does (Eq. 12 holds).
        knowledge = self._two_path_knowledge()
        engine = TrustTransitivity(knowledge)
        new_task = Task("new", characteristics=("a1", "a2"))
        assert "evan" not in engine.conservative("bob", new_task)
        assert "evan" in engine.aggressive("bob", new_task)

    def test_partial_coverage_rejected(self):
        knowledge = MappingKnowledge()
        knowledge.add_experience(
            "bob", "carlos", Task("ta", characteristics=("a1",)), 0.9
        )
        engine = TrustTransitivity(knowledge)
        found = engine.aggressive(
            "bob", Task("new", characteristics=("a1", "a2"))
        )
        assert found == {}

    def test_finds_at_least_conservative_candidates(self):
        # On same-type chains aggressive should match conservative.
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(knowledge)
        task = Task("type1", characteristics=("t1",))
        conservative = set(engine.conservative("alice", task))
        aggressive = set(engine.aggressive("alice", task))
        assert conservative <= aggressive


class TestDispatch:
    def test_find_trustees_dispatches(self):
        knowledge = _simple_knowledge()
        engine = TrustTransitivity(knowledge)
        task = Task("type1", characteristics=("t1",))
        for mode in TransitivityMode:
            result = engine.find_trustees("alice", task, mode)
            assert isinstance(result, dict)

    def test_invalid_mode_rejected(self):
        engine = TrustTransitivity(_simple_knowledge())
        with pytest.raises(ValueError):
            engine.find_trustees("alice", Task("t"), "bogus")

    def test_invalid_omega_rejected(self):
        with pytest.raises(ValueError):
            TrustTransitivity(MappingKnowledge(), omega_recommend=2.0)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            TrustTransitivity(MappingKnowledge(), max_depth=0)


_CHARS = ("a", "b", "c")
_TASKS = [
    Task(f"task-{i}", characteristics=chars)
    for i, chars in enumerate((
        ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
    ))
]


def _random_experiences(seed, count, nodes=8):
    rng = random.Random(seed)
    return [
        (rng.randrange(nodes), rng.randrange(nodes), rng.choice(_TASKS),
         rng.random())
        for _ in range(count)
    ]


def _knowledge_of(experiences):
    knowledge = MappingKnowledge()
    for holder, about, task, trust in experiences:
        if holder != about:
            knowledge.add_experience(holder, about, task, trust)
    return knowledge


def _answers(engine, nodes=8):
    """Every trustor's trustees and inquiries, per mode and task."""
    answers = {}
    for mode in TransitivityMode:
        for task in _TASKS:
            for trustor in range(nodes):
                inquiries = set()
                found = engine.find_trustees(trustor, task, mode, inquiries)
                answers[(mode, task.name, trustor)] = (found, inquiries)
    return answers


class _PlainKnowledge(TrustKnowledge):
    """A knowledge with no memo: only the two required queries."""

    def __init__(self, mapping):
        self._mapping = mapping

    def experienced(self, holder, about):
        return self._mapping.experienced(holder, about)

    def neighbors(self, node):
        return self._mapping.neighbors(node)


class TestMemoizedKnowledge:
    """``MappingKnowledge`` memoizes edge coverage and restricted hop
    trusts; the answers must equal an unmemoized search and must follow
    every ``add_experience``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_reused_engine_follows_added_experience(self, seed):
        first = _random_experiences(seed, 20)
        later = _random_experiences(seed + 100, 20)
        knowledge = _knowledge_of(first)
        engine = TrustTransitivity(knowledge, max_depth=3)
        before = _answers(engine)  # fills the memo

        for holder, about, task, trust in later:
            if holder != about:
                knowledge.add_experience(holder, about, task, trust)
        reused = _answers(engine)
        fresh = _answers(
            TrustTransitivity(_knowledge_of(first + later), max_depth=3)
        )
        assert reused == fresh
        assert reused != before  # the added records changed answers

    @pytest.mark.parametrize("seed", range(4))
    def test_memo_equals_the_unmemoized_search(self, seed):
        knowledge = _knowledge_of(_random_experiences(seed, 40))
        memoized = _answers(TrustTransitivity(knowledge, max_depth=3))
        plain = _answers(
            TrustTransitivity(_PlainKnowledge(knowledge), max_depth=3)
        )
        assert memoized == plain

    def test_restricted_hops_match_the_edge_records(self):
        knowledge = _knowledge_of(_random_experiences(7, 40))
        plain = _PlainKnowledge(knowledge)
        for node in range(8):
            for size in (1, 2, 3):
                for required in itertools.combinations(_CHARS, size):
                    required = frozenset(required)
                    assert knowledge.restricted_hops(node, required) == (
                        plain.restricted_hops(node, required)
                    )
                    # A second read is served by the memo, unchanged.
                    assert knowledge.restricted_hops(node, required) == (
                        plain.restricted_hops(node, required)
                    )

    def test_memo_is_not_part_of_the_value(self):
        knowledge = _knowledge_of(_random_experiences(3, 30))
        untouched = _knowledge_of(_random_experiences(3, 30))
        _answers(TrustTransitivity(knowledge))
        assert knowledge == untouched
        assert repr(knowledge) == repr(untouched)
        assert pickle.dumps(knowledge) == pickle.dumps(untouched)
        restored = pickle.loads(pickle.dumps(knowledge))
        assert _answers(TrustTransitivity(restored)) == _answers(
            TrustTransitivity(untouched)
        )


def _reference_search(engine, trustor, required, inquiries):
    """``_search`` as first written: every path re-reads its edges'
    records and re-folds its whole hop list through both ω gates."""
    knowledge = engine.knowledge
    results = []
    stack = [(trustor, (trustor,), ())]
    while stack:
        node, path, hops = stack.pop()
        if len(hops) >= engine.max_depth:
            continue
        for neighbor in knowledge.neighbors(node):
            if neighbor in path:
                continue
            experienced = knowledge.experienced(node, neighbor)
            if not experienced:
                continue
            inquiries.add(neighbor)
            if not required <= _covered_characteristics(experienced):
                continue
            hop_trust = _edge_trust_for(experienced, required)
            if hop_trust is None:
                continue
            new_path = path + (neighbor,)
            new_hops = hops + (hop_trust,)
            admitted = all(
                hop >= engine.omega_recommend for hop in new_hops[:-1]
            ) and new_hops[-1] >= engine.omega_execute
            results.append(PathAssessment(
                path=new_path,
                trust=TrustValue(
                    combine_chain(new_hops), direct=len(new_hops) == 1
                ),
                characteristics=required,
                admitted=admitted,
                reason="" if admitted else "omega gate failed",
            ))
            stack.append((neighbor, new_path, new_hops))
    return results


class TestIncrementalSearch:
    """The DFS carries each prefix's ω1 gate and chain trust instead of
    re-folding the path; every assessment must equal the full re-fold,
    on paths long enough for the prefix gate to matter."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("omegas", [(0.0, 0.0), (0.5, 0.3), (0.7, 0.6)])
    def test_equals_the_refolding_search(self, seed, omegas):
        knowledge = _knowledge_of(_random_experiences(seed, 60))
        engine = TrustTransitivity(
            knowledge, omega_recommend=omegas[0], omega_execute=omegas[1],
            max_depth=4,
        )
        task = _TASKS[0]
        for size in (1, 2):
            for required in itertools.combinations(_CHARS, size):
                required = frozenset(required)
                for trustor in range(8):
                    got, want = set(), set()
                    assert engine._search(trustor, task, required, got) == (
                        _reference_search(engine, trustor, required, want)
                    )
                    assert got == want
