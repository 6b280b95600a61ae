"""Property-based equivalence of the parallel and sequential runners.

Every example with more than one worker and chunk runs on a real
process pool; the per-seed callables are module-level, so they pickle.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.simulation.parallel import ParallelRunner
from repro.simulation.results import RateSummary, SeriesResult
from repro.simulation.runner import (
    average_rates,
    average_series,
    combine_rates,
    combine_series,
)

seed_lists = st.lists(
    st.integers(min_value=0, max_value=10**9),
    min_size=1, max_size=8,
)
worker_counts = st.integers(min_value=1, max_value=4)


def synthetic_rates(seed: int) -> RateSummary:
    """A deterministic, irrational-valued per-seed result.

    ``math.sin`` keeps the floats messy enough that any reduction-order
    difference between the two paths would show up in the lowest bits.
    """
    return RateSummary(
        success_rate=abs(math.sin(seed * 0.7)),
        unavailable_rate=abs(math.sin(seed * 1.3)) / 2.0,
        abuse_rate=abs(math.sin(seed * 2.1)) / 3.0,
        total_requests=seed % 1000,
    )


def synthetic_series(seed: int) -> SeriesResult:
    return SeriesResult(
        "synthetic", [math.sin(seed * k * 0.37) for k in range(5)]
    )


def ragged_series(seed: int) -> SeriesResult:
    return SeriesResult("ragged", [0.0] * (seed % 4 + 1))


class TestRunnerEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seeds=seed_lists, workers=worker_counts)
    def test_rates_one_worker_vs_sequential_vs_n_workers(self, seeds, workers):
        oracle = average_rates(synthetic_rates, seeds)
        one = combine_rates(
            ParallelRunner(workers=1).map_seeds(synthetic_rates, seeds)
        )
        many = combine_rates(
            ParallelRunner(workers=workers).map_seeds(synthetic_rates, seeds)
        )
        assert oracle == one == many

    @settings(max_examples=40, deadline=None)
    @given(seeds=seed_lists, workers=worker_counts)
    def test_series_one_worker_vs_sequential_vs_n_workers(self, seeds, workers):
        oracle = average_series(synthetic_series, seeds)
        one = combine_series(
            ParallelRunner(workers=1).map_seeds(synthetic_series, seeds)
        )
        many = combine_series(
            ParallelRunner(workers=workers).map_seeds(synthetic_series, seeds)
        )
        assert oracle == one == many

    @settings(max_examples=25, deadline=None)
    @given(seeds=seed_lists, workers=worker_counts)
    def test_per_seed_results_identical_and_ordered(self, seeds, workers):
        sequential = [synthetic_series(seed) for seed in seeds]
        parallel = ParallelRunner(workers=workers).map_seeds(synthetic_series, seeds)
        assert parallel == sequential


class TestRaggedRejection:
    @settings(max_examples=25, deadline=None)
    @given(seeds=seed_lists, workers=worker_counts)
    def test_both_paths_agree_on_ragged_series(self, seeds, workers):
        lengths = {len(ragged_series(seed).values) for seed in seeds}
        runner = ParallelRunner(workers=workers)
        if len(lengths) == 1:
            assert combine_series(
                runner.map_seeds(ragged_series, seeds)
            ) == average_series(ragged_series, seeds)
            return
        with pytest.raises(ValueError, match="lengths"):
            average_series(ragged_series, seeds)
        with pytest.raises(ValueError, match="lengths"):
            combine_series(runner.map_seeds(ragged_series, seeds))
