"""The sequential-vs-parallel equivalence suite (the PR's headline).

For **every registered scenario**, the sweep runtime must return
*bit-identical* results to the sequential oracle — same per-seed values,
same mean — for any worker count, on the process pool or the work
queue, for any contiguous seed-chunk layout, and whether the seeds were
computed cold or replayed from the persistent result cache.  Equality
is asserted with ``==`` on the result dataclasses, i.e. exact float
comparison: every path shares the reduction code and the per-seed runs
are deterministic, so there is no tolerance to hide behind.
"""

import os
import time
from functools import partial
from itertools import combinations

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.simulation import registry
from repro.simulation.parallel import ParallelRunner
from repro.simulation.runner import (
    average_rates,
    average_series,
    combine_rates,
    combine_series,
)
from repro.simulation.sweep import execute_sweep, seed_range

SEEDS = [11, 12, 13]

# The oracle is deterministic, so each (scenario, seeds) pair is computed
# once and shared by every comparison in this module.
_ORACLE_MEMO = {}


def _sequential_average(spec, seeds):
    key = (spec.name, tuple(seeds))
    if key not in _ORACLE_MEMO:
        run = spec.bound(smoke=True)
        if spec.kind == "rates":
            _ORACLE_MEMO[key] = average_rates(run, seeds)
        else:
            _ORACLE_MEMO[key] = average_series(run, seeds)
    return _ORACLE_MEMO[key]


def _combine(spec):
    return combine_rates if spec.kind == "rates" else combine_series


def _parallel_average(spec, seeds, workers):
    runner = ParallelRunner(workers=workers)
    return _combine(spec)(runner.map_seeds(spec.bound(smoke=True), seeds))


# Every contiguous way to cut SEEDS: single seeds, the two uneven
# splits, one whole-sweep chunk.
_LAYOUTS = {
    "singles": [(11,), (12,), (13,)],
    "2+1": [(11, 12), (13,)],
    "1+2": [(11,), (12, 13)],
    "whole": [(11, 12, 13)],
}


@pytest.fixture(scope="module")
def held_runner():
    """One three-worker pool, held across the module's layout cases."""
    with ParallelRunner(workers=3) as runner:
        yield runner


@pytest.mark.parametrize("name", registry.names())
class TestEveryScenario:
    def test_process_pool_identical_to_sequential(self, name):
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        parallel = _parallel_average(spec, SEEDS, workers=3)
        assert sequential == parallel

    def test_one_worker_identical_to_sequential(self, name):
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        one_worker = _parallel_average(spec, SEEDS, workers=1)
        assert sequential == one_worker

    @pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS)
    def test_any_chunk_layout_identical_to_sequential(
        self, name, layout, held_runner
    ):
        """Layout invariance, checked where a layout is still an input:
        the pool's chunk mapper over every contiguous layout of SEEDS
        returns one batch per chunk and the oracle's result."""
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        batches = held_runner._map_process_chunks(
            spec.bound(smoke=True), layout, 3
        )
        assert [len(batch) for batch in batches] == [
            len(chunk) for chunk in layout
        ]
        results = [result for batch in batches for result in batch]
        assert _combine(spec)(results) == sequential

    @pytest.mark.parametrize("workers", [1, 3])
    def test_distributed_identical_to_sequential(
        self, name, workers, tmp_path
    ):
        """The shared-directory work queue inherits the bit-identity
        contract: seq == parallel == distributed, for 1 and 3 local
        worker daemons, for every registered scenario."""
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        sweep = execute_sweep(
            SweepSpec(name, SEEDS, smoke=True),
            ExecutionProfile(
                workers=workers, backend="distributed",
                cache_dir=tmp_path / "cache", queue_dir=tmp_path / "queue",
            ),
        )
        assert sweep.mean == sequential
        assert sweep.timing.backend == "distributed"
        assert sweep.timing.workers == workers
        assert sweep.tasks_total >= 1
        # A healthy run recovers nothing: no steals, no requeues.
        assert sweep.steals == 0
        assert sweep.requeues == 0

    def test_warm_cache_rerun_identical(self, name, tmp_path):
        spec = registry.get(name)
        cold = execute_sweep(
            SweepSpec(name, SEEDS, smoke=True),
            ExecutionProfile(workers=1, cache_dir=tmp_path),
        )
        warm = execute_sweep(
            SweepSpec(name, SEEDS, smoke=True),
            ExecutionProfile(workers=1, cache_dir=tmp_path),
        )
        assert warm.cache_hits == len(SEEDS)
        assert warm.per_seed == cold.per_seed
        assert warm.variance == cold.variance
        # ...and both match the uncached sequential oracle, bit for bit.
        assert warm.mean == cold.mean == _sequential_average(spec, SEEDS)


class TestProcessPool:
    """Process-pool equivalence incl. the 8-seed / 4-worker criterion."""

    def test_eight_seeds_four_workers_identical(self):
        seeds = seed_range(8)
        sequential = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        parallel = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(workers=4, backend="process", no_cache=True),
        )
        assert parallel.per_seed == sequential.per_seed
        assert parallel.mean == sequential.mean
        assert parallel.variance == sequential.variance
        assert parallel.timing.workers == 4
        assert parallel.timing.backend == "process"
        assert parallel.timing.wall_seconds > 0.0
        assert sequential.timing.backend == "sequential"

    def test_process_pool_identical_on_a_graph_scenario(self):
        spec = registry.get("fig7-mutuality")
        sequential = _sequential_average(spec, SEEDS)
        parallel = _parallel_average(spec, SEEDS, workers=3)
        assert sequential == parallel

    # The code sizes every chunk as ceil(seeds / (4 x workers)); these
    # seed and worker counts make it cut chunks of 1, 2 and 3 seeds.
    @pytest.mark.parametrize(("chunk_size", "count", "workers"), [
        pytest.param(1, 8, 4, id="1"),
        pytest.param(2, 9, 2, id="2"),
        pytest.param(3, 17, 2, id="3"),
    ])
    def test_chunked_process_pool_identical(self, chunk_size, count, workers):
        seeds = seed_range(count)
        sequential = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        chunked = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(
                workers=workers, backend="process", no_cache=True,
            ),
        )
        assert chunked.per_seed == sequential.per_seed
        assert chunked.mean == sequential.mean
        assert chunked.timing.chunk_size == chunk_size
        assert chunked.timing.backend == "process"

    @pytest.mark.parametrize("name", ["fig15-environment", "fig7-mutuality"])
    def test_pool_cold_then_warm_cache_identical(self, name, tmp_path):
        """A pooled sweep that fills a fresh cache, then the same sweep
        replayed from it: both equal the uncached sequential run."""
        seeds = seed_range(8)
        spec = SweepSpec(name, seeds, smoke=True)
        sequential = execute_sweep(
            spec, ExecutionProfile(workers=1, no_cache=True),
        )
        pooled = ExecutionProfile(
            workers=4, backend="process", cache_dir=tmp_path,
        )
        cold = execute_sweep(spec, pooled)
        warm = execute_sweep(spec, pooled)
        assert cold.timing.backend == "process"
        assert cold.cache_misses == len(seeds)
        assert warm.cache_hits == len(seeds)
        for sweep in (cold, warm):
            assert sweep.per_seed == sequential.per_seed
            assert sweep.mean == sequential.mean


class TestCostSchedule:
    """The queue's cost plan inherits the bit-identity contract: it
    reorders the queue and reshapes the chunks without changing a
    single bit of any result, and a healthy run still steals
    nothing."""

    def test_cost_schedule_identical_to_sequential(self, tmp_path):
        from repro.api import ExecutionProfile, SweepSpec
        from repro.simulation.sweep import execute_sweep

        spec = registry.get("fig7-mutuality")
        sequential = _sequential_average(spec, SEEDS)
        profile = ExecutionProfile(
            workers=2, backend="distributed",
            queue_dir=str(tmp_path / "queue"),
            cache_dir=str(tmp_path / "cache"),
        )
        sweep = execute_sweep(
            SweepSpec("fig7-mutuality", seeds=SEEDS, smoke=True), profile
        )
        assert sweep.mean == sequential
        assert sweep.steals == 0
        assert sweep.requeues == 0

    def test_cost_campaign_identical_per_sweep(self, tmp_path):
        """A mixed-cost campaign on a fixed fleet: every sweep's mean
        matches its own sequential oracle."""
        from repro.api import ExecutionProfile, SweepSpec
        from repro.simulation.sweep import execute_campaign

        names = ["fig15-environment", "fig7-mutuality", "fig8-inference"]
        profile = ExecutionProfile(
            workers=2, backend="distributed",
            queue_dir=str(tmp_path / "queue"),
            cache_dir=str(tmp_path / "cache"),
        )
        results = execute_campaign(
            [SweepSpec(name, seeds=SEEDS, smoke=True) for name in names],
            profile,
        )
        for name, result in zip(names, results):
            assert result.mean == _sequential_average(
                registry.get(name), SEEDS
            )
            assert result.steals == 0
            assert result.requeues == 0


def _probed(run, seed):
    """Picklable probe: ``(pid, start, end, result)`` of one seed run."""
    start = time.time()
    result = run(seed)
    return os.getpid(), start, time.time(), result


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="seeds running side by side needs more than one CPU",
)
def test_process_pool_runs_seeds_side_by_side():
    """8 seeds on 4 workers: the mean equals the sequential run's, and
    the seeds really ran in parallel — in at least two worker processes
    whose run intervals overlap.

    This replaced a 1.3x wall-clock bar that failed on contended hosts;
    the speed-up itself is measured by perfbench's ``campaign-cold``
    ``seeds_per_s``.
    """
    spec = registry.get("fig13-delegation")
    seeds = seed_range(8)
    runner = ParallelRunner(workers=4)
    probes = runner.map_seeds(partial(_probed, spec.bound(smoke=True)), seeds)
    results = [probe[3] for probe in probes]
    assert _combine(spec)(results) == _sequential_average(spec, seeds)
    assert runner.last_timing.backend == "process"
    assert len({pid for pid, _, _, _ in probes}) >= 2
    assert any(
        a_pid != b_pid and a_start < b_end and b_start < a_end
        for (a_pid, a_start, a_end, _), (b_pid, b_start, b_end, _)
        in combinations(probes, 2)
    )
