"""Planner invariants, unit and property-based.

The planner's contract is that it moves work without changing it:
every plan covers every submitted seed exactly once, in an order that
concatenates back to the submission; long-pole ordering is a stable
descending sort; chunk sizes never grow toward the tail.  Hypothesis
drives the pure functions across the whole input space — they are
deterministic and I/O-free by design, so there is nothing to mock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    CampaignPlan,
    CostEstimate,
    long_pole_order,
    plan_campaign,
    shrinking_chunks,
)
from repro.simulation.parallel import auto_chunk_size

_SEEDS = st.lists(
    st.integers(min_value=-10**6, max_value=10**6),
    min_size=1, max_size=60,
)
_COSTS = st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=20,
)


class TestShrinkingChunks:
    @given(seeds=_SEEDS, base=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200)
    def test_covers_every_seed_exactly_once_in_order(self, seeds, base):
        chunks = shrinking_chunks(seeds, base)
        flat = [seed for chunk in chunks for seed in chunk]
        assert flat == seeds

    @given(seeds=_SEEDS, base=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200)
    def test_sizes_never_grow(self, seeds, base):
        sizes = [len(chunk) for chunk in shrinking_chunks(seeds, base)]
        assert all(size >= 1 for size in sizes)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] <= base

    @given(seeds=_SEEDS, base=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200)
    def test_tail_is_single_seed_when_chunked_at_all(self, seeds, base):
        """Once chunking kicks in (base > 1 and enough seeds for more
        than one chunk), the last chunk is always a single seed — the
        whole point of the shrink: nobody idles behind one fat tail."""
        chunks = shrinking_chunks(seeds, base)
        if len(chunks) > 1:
            assert len(chunks[-1]) == 1

    def test_concrete_shape(self):
        # 16 seeds, base 4: bites shrink as the remainder drops.
        chunks = shrinking_chunks(list(range(16)), 4)
        assert [len(c) for c in chunks] == [4, 4, 2, 2, 1, 1, 1, 1]

    def test_base_one_is_all_singles(self):
        assert shrinking_chunks([5, 6, 7], 1) == ((5,), (6,), (7,))

    def test_empty_seed_list_is_empty_plan(self):
        assert shrinking_chunks([], 4) == ()

    def test_rejects_non_positive_base(self):
        with pytest.raises(ValueError):
            shrinking_chunks([1, 2], 0)


class TestLongPoleOrder:
    @given(costs=_COSTS)
    @settings(max_examples=200)
    def test_is_a_permutation_sorted_descending(self, costs):
        order = long_pole_order(costs)
        assert sorted(order) == list(range(len(costs)))
        ranked = [costs[i] for i in order]
        assert ranked == sorted(ranked, reverse=True)

    @given(costs=_COSTS)
    @settings(max_examples=200)
    def test_ties_keep_submission_order(self, costs):
        order = long_pole_order(costs)
        for a, b in zip(order, order[1:]):
            if costs[a] == costs[b]:
                assert a < b

    def test_concrete(self):
        assert long_pole_order([1.0, 9.0, 1.0, 4.0]) == (1, 3, 0, 2)


class TestAutoChunkSize:
    """The planner's default base chunk is the pool's heuristic."""

    @given(
        seed_count=st.integers(min_value=1, max_value=10**4),
        workers=st.integers(min_value=1, max_value=64),
    )
    def test_always_at_least_one(self, seed_count, workers):
        chunk = auto_chunk_size(seed_count, workers)
        assert chunk >= 1
        # Never fewer chunks than the workers a map of these seeds uses
        # (``min(workers, seeds)``), so every pooled worker gets one.
        assert -(-seed_count // chunk) >= min(workers, seed_count)

    def test_four_chunks_per_worker(self):
        assert auto_chunk_size(32, 4) == 2
        assert auto_chunk_size(3, 8) == 1


def _estimates(costs):
    return [
        CostEstimate("fig15-environment", 1, cost, "prior")
        for cost in costs
    ]


class TestPlanCampaign:
    @given(
        seed_lists=st.lists(_SEEDS, min_size=1, max_size=6),
        workers=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_plan_preserves_the_work_exactly(
        self, seed_lists, workers, data
    ):
        """Per-sweep seeds survive chunking verbatim, and the ranks are
        a permutation of the sweeps."""
        costs = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=len(seed_lists), max_size=len(seed_lists),
        ))
        plan = plan_campaign(seed_lists, workers, _estimates(costs))
        assert [list(sweep.seeds) for sweep in plan.sweeps] == [
            list(seeds) for seeds in seed_lists
        ]
        ranks = sorted(sweep.rank for sweep in plan.sweeps)
        assert ranks == list(range(len(seed_lists)))
        assert plan.total_seeds == sum(len(s) for s in seed_lists)

    @given(
        seed_lists=st.lists(_SEEDS, min_size=1, max_size=4),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100)
    def test_chunks_shrink_from_the_base(self, seed_lists, workers):
        plan = plan_campaign(seed_lists, workers,
                             _estimates([1.0] * len(seed_lists)))
        for sweep, seeds in zip(plan.sweeps, seed_lists):
            base = auto_chunk_size(len(seeds), workers)
            assert sweep.chunk_size == base
            assert sweep.chunks == shrinking_chunks(seeds, base)

    def test_base_chunk_is_the_reported_chunk_size(self):
        # Nine seeds for one worker: the base chunk is ceil(9 / 4) = 3
        # and the tail shrinks to single seeds, but the plan (and so
        # the sweep's RunTiming) reports the base.
        plan = plan_campaign([list(range(1, 10))], workers=1,
                             estimates=_estimates([1.0]))
        [sweep] = plan.sweeps
        assert sweep.chunk_size == 3
        assert sweep.chunks == ((1, 2, 3),) + tuple(
            (seed,) for seed in range(4, 10)
        )

    def test_chunk_size_is_not_a_parameter(self):
        # The code sizes every base chunk; there is none to pick.
        with pytest.raises(TypeError, match="chunk_size"):
            plan_campaign([[1]], workers=1, estimates=_estimates([1.0]),
                          chunk_size=0)

    def test_equal_estimates_rank_in_submission_order(self):
        plan = plan_campaign([[1], [2], [3]], workers=2,
                             estimates=_estimates([1.0, 1.0, 1.0]))
        assert [sweep.rank for sweep in plan.sweeps] == [0, 1, 2]

    def test_cost_ranks_long_pole_first(self):
        # Submitted cheap, expensive, middling: the expensive sweep is
        # served first, the cheap one last.
        plan = plan_campaign(
            [[1, 2], [3, 4], [5, 6]], workers=2,
            estimates=_estimates([0.1, 10.0, 1.0]),
        )
        assert [sweep.rank for sweep in plan.sweeps] == [2, 0, 1]

    def test_eight_seeds_on_two_workers_are_eight_single_seed_tasks(self):
        """An 8-seed job on a 2-worker fleet (``serve-small-jobs``) is
        cut into eight single-seed chunks and served at rank 0 — the
        layout submission order with uniform chunks wrote for it too."""
        seeds = list(range(101, 109))
        [sweep] = plan_campaign([seeds], 2, _estimates([1.0])).sweeps
        assert sweep.rank == 0
        assert sweep.chunk_size == 1
        assert sweep.chunks == tuple((seed,) for seed in seeds)

    def test_estimate_count_must_match(self):
        with pytest.raises(ValueError, match="estimates"):
            plan_campaign([[1], [2]], workers=1,
                          estimates=_estimates([1.0]))

    def test_estimated_seconds_sums_totals(self):
        plan = plan_campaign(
            [[1, 2], [3]], workers=1,
            estimates=[
                CostEstimate("a", 2, 3.0, "prior"),
                CostEstimate("b", 1, 5.0, "prior"),
            ],
        )
        assert plan.estimated_seconds == pytest.approx(11.0)
        assert CampaignPlan().estimated_seconds == 0.0
