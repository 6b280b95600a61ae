"""Concurrency tests for the persistent sweep cache.

The cache's cross-process contract is "plain files, atomic writes, no
coordination": two processes hammering the same key simultaneously must
never produce a corrupt entry — any reader sees either nothing or one
writer's complete payload.  A barrier lines the writers up so the
``os.replace`` races actually overlap.

The second half pins ``REPRO_CACHE_DIR`` isolation for the IoT
scenarios: sweeps cache under the override directory and nowhere else,
and a warm rerun replays bit-identically from it.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.simulation.cache import SweepCache, default_cache_dir
from repro.simulation.results import SeriesResult
from repro.simulation.sweep import execute_sweep

WRITERS = 4
WRITES_PER_PROCESS = 25


def _hammer(root: str, key: str, barrier, writer_index: int) -> None:
    """One writer process: wait at the barrier, then write in a loop."""
    cache = SweepCache(Path(root))
    result = SeriesResult(
        label=f"writer-{writer_index}", values=[float(writer_index)] * 4
    )
    barrier.wait()
    for _ in range(WRITES_PER_PROCESS):
        cache.put(key, result, scenario="race", seed=writer_index)


class TestAtomicWriteRace:
    def test_concurrent_same_key_writes_never_corrupt(self, tmp_path):
        key = SweepCache.key("race", (), 0, version="race-test")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(WRITERS)
        processes = [
            context.Process(
                target=_hammer, args=(str(tmp_path), key, barrier, index)
            )
            for index in range(WRITERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0

        # The surviving entry parses and is exactly one writer's payload
        # — torn/interleaved writes would fail either check.
        cache = SweepCache(tmp_path)
        result = cache.get(key)
        assert result is not None
        assert cache.stats.hits == 1
        assert result.values in [
            [float(index)] * 4 for index in range(WRITERS)
        ]
        # No leftover temp files: every writer's os.replace completed.
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_raw_file_is_valid_json_after_race(self, tmp_path):
        key = SweepCache.key("race2", (), 1, version="race-test")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        processes = [
            context.Process(
                target=_hammer, args=(str(tmp_path), key, barrier, index)
            )
            for index in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        path = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())  # raises on corruption
        assert payload["scenario"] == "race"
        assert payload["result"]["kind"] == "series"


class TestCacheDirIsolationForIotScenarios:
    @pytest.mark.parametrize("scenario", [
        "fig14-activetime", "fig8-inference",
    ])
    def test_repro_cache_dir_isolation(self, scenario, tmp_path,
                                       monkeypatch):
        """Sweeps of the IoT scenarios cache under the override
        directory — and only there — and replay from it bit-identically."""
        isolated = tmp_path / "isolated"
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(isolated))
        assert default_cache_dir() == isolated

        seeds = [1, 2]
        cold = execute_sweep(
            SweepSpec(scenario, seeds, smoke=True),
            ExecutionProfile(cache_dir=default_cache_dir()),
        )
        assert cold.cache_misses == len(seeds)
        entries = list(isolated.rglob("*.json"))
        assert len(entries) == len(seeds)
        assert list(elsewhere.rglob("*")) == []

        warm = execute_sweep(
            SweepSpec(scenario, seeds, smoke=True),
            ExecutionProfile(cache_dir=default_cache_dir()),
        )
        assert warm.cache_hits == len(seeds)
        assert warm.per_seed == cold.per_seed
        assert warm.mean == cold.mean
