"""Unit tests for the parallel multi-seed runtime."""

import pickle

import pytest

from repro.simulation.parallel import (
    ParallelRunner,
    _chunked,
    auto_chunk_size,
    default_workers,
)
from repro.simulation.results import RateSummary, SeriesResult
from repro.simulation.runner import (
    average_rates,
    average_series,
    combine_rates,
    combine_series,
)


def rates_run(seed: int) -> RateSummary:
    """Module-level (hence picklable) deterministic per-seed run."""
    return RateSummary(
        success_rate=(seed % 7) / 7.0,
        unavailable_rate=(seed % 3) / 3.0,
        abuse_rate=(seed % 5) / 5.0,
        total_requests=seed,
    )


def series_run(seed: int) -> SeriesResult:
    return SeriesResult("s", [float(seed), seed / 3.0, seed * 7.0])


def ragged_run(seed: int) -> SeriesResult:
    return SeriesResult("ragged", [0.0] * (seed % 3 + 1))


class TestConstruction:
    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1
        assert ParallelRunner().workers >= 1

    def test_backend_is_not_a_parameter(self):
        # The process pool is the only executor; there is none to pick.
        with pytest.raises(TypeError, match="backend"):
            ParallelRunner(backend="process")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelRunner(workers=0)

    def test_chunk_size_is_not_a_parameter(self):
        # The code sizes every chunk (auto_chunk_size); there is none
        # to pick.
        with pytest.raises(TypeError, match="chunk_size"):
            ParallelRunner(chunk_size=0)


class TestChunking:
    def test_auto_chunk_size_is_four_waves_per_worker(self):
        assert auto_chunk_size(seeds=64, workers=4) == 4  # 16 tasks
        assert auto_chunk_size(seeds=8, workers=4) == 1
        assert auto_chunk_size(seeds=100, workers=8) == 4  # ceil(100/32)
        assert auto_chunk_size(seeds=1, workers=16) == 1

    def test_auto_chunk_size_validates(self):
        with pytest.raises(ValueError, match="seed"):
            auto_chunk_size(seeds=0, workers=2)
        with pytest.raises(ValueError, match="workers"):
            auto_chunk_size(seeds=4, workers=0)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 100])
    def test_any_chunk_size_preserves_seed_order(self, chunk_size):
        # The layout is an input of the pool's chunk mapper only.
        runner = ParallelRunner(workers=3)
        seeds = [9, 1, 5, 2, 8, 3, 6]
        batches = runner._map_process_chunks(
            series_run, _chunked(seeds, chunk_size), 3,
        )
        results = [result for batch in batches for result in batch]
        assert results == [series_run(seed) for seed in seeds]

    def test_chunk_size_recorded_in_timing(self):
        # 9 seeds on 2 workers: ceil(9 / 8) = 2 seeds per chunk.
        runner = ParallelRunner(workers=2)
        runner.map_seeds(rates_run, list(range(1, 10)))
        assert runner.last_timing.chunk_size == 2
        assert runner.last_timing.backend == "process"

    def test_single_chunk_skips_the_pool(self):
        # Automatic sizing cuts one chunk only for one seed, which
        # leaves nothing to parallelize, so no pool is paid for.
        runner = ParallelRunner(workers=4)
        results = runner.map_seeds(rates_run, [1])
        assert results == [rates_run(1)]
        assert runner.last_timing.backend == "sequential"
        assert runner.last_timing.workers == 1


def _record_initialized():
    _INITIALIZED.append(True)


def _initialized_count(seed: int) -> int:
    """What the initializer left in the process that ran ``seed``."""
    return len(_INITIALIZED)


_INITIALIZED = []


class TestInitializer:
    def test_initializer_runs_in_process_pool(self):
        # Each pool worker runs the initializer once before its first
        # seed; the caller's copy of the list is never touched.
        _INITIALIZED.clear()
        runner = ParallelRunner(workers=2, initializer=_record_initialized)
        assert runner.map_seeds(_initialized_count, [1, 2, 3, 4]) == [1] * 4
        assert runner.last_timing.backend == "process"
        assert _INITIALIZED == []

    def test_initializer_runs_on_sequential_path(self):
        _INITIALIZED.clear()
        runner = ParallelRunner(workers=1, initializer=_record_initialized)
        runner.map_seeds(rates_run, [1, 2])
        assert _INITIALIZED == [True]


class TestMapSeeds:
    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ParallelRunner(workers=1).map_seeds(rates_run, [])

    def test_results_in_seed_order(self):
        runner = ParallelRunner(workers=3)
        seeds = [9, 1, 5, 2]
        results = runner.map_seeds(series_run, seeds)
        assert results == [series_run(seed) for seed in seeds]

    def test_sequential_timing_recorded(self):
        runner = ParallelRunner(workers=1)
        runner.map_seeds(rates_run, [1, 2, 3])
        timing = runner.last_timing
        assert timing.seeds == 3
        assert timing.workers == 1
        assert timing.backend == "sequential"
        assert timing.wall_seconds >= 0.0
        assert timing.seeds_per_second() > 0.0

    def test_parallel_timing_recorded(self):
        runner = ParallelRunner(workers=2)
        runner.map_seeds(rates_run, [1, 2, 3])
        assert runner.last_timing.workers == 2
        assert runner.last_timing.backend == "process"

    def test_workers_capped_by_seed_count(self):
        runner = ParallelRunner(workers=8)
        runner.map_seeds(rates_run, [4, 5])
        assert runner.last_timing.workers == 2

    def test_unpicklable_run_fails_on_the_pool_only(self):
        offset = 0.25
        closure = lambda seed: RateSummary(  # noqa: E731 - deliberately unpicklable
            success_rate=offset, unavailable_rate=0.0, abuse_rate=0.0
        )
        # The pool surfaces the pickler's own error: PicklingError, or
        # AttributeError for a local object before Python 3.14.
        unpicklable = (pickle.PicklingError, AttributeError)
        with ParallelRunner(workers=2) as runner:
            with pytest.raises(unpicklable, match="pickle"):
                runner.map_seeds(closure, [1, 2])
            # The held pool is not broken by it.
            assert runner.map_seeds(rates_run, [3, 4]) == [
                rates_run(3), rates_run(4),
            ]
            assert runner.last_timing.backend == "process"
        # The sequential oracle never pickles.
        results = ParallelRunner(workers=1).map_seeds(closure, [1, 2])
        assert [r.success_rate for r in results] == [0.25, 0.25]


class TestAveragingAPI:
    """``combine_*`` over ``map_seeds`` is the parallel average."""

    def test_average_rates_matches_oracle_with_repeated_seed(self):
        seeds = [3, 1, 4, 1, 5]
        runner = ParallelRunner(workers=3)
        assert combine_rates(runner.map_seeds(rates_run, seeds)) == (
            average_rates(rates_run, seeds)
        )

    def test_average_rates_matches_oracle_process(self):
        seeds = [2, 7, 1, 8]
        runner = ParallelRunner(workers=2)
        assert combine_rates(runner.map_seeds(rates_run, seeds)) == (
            average_rates(rates_run, seeds)
        )

    def test_average_series_matches_oracle(self):
        seeds = [6, 2, 8]
        runner = ParallelRunner(workers=3)
        assert combine_series(runner.map_seeds(series_run, seeds)) == (
            average_series(series_run, seeds)
        )

    def test_ragged_series_rejected_in_parallel_path(self):
        runner = ParallelRunner(workers=2)
        with pytest.raises(ValueError, match="lengths"):
            combine_series(runner.map_seeds(ragged_run, [1, 2]))

    def test_single_worker_is_the_oracle(self):
        seeds = [10, 20]
        runner = ParallelRunner(workers=1)
        assert combine_rates(runner.map_seeds(rates_run, seeds)) == (
            average_rates(rates_run, seeds)
        )
