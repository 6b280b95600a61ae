"""Pool campaigns fork their workers once, not once per sweep.

``execute_campaign`` holds one :class:`ProcessPoolExecutor` for every
sweep of a pool campaign.  These tests pin what that may and may not
change: results stay equal to the ``workers=1`` oracle, a warm replay
forks nothing, nothing the workers build lands in the caller, no worker
outlives the campaign however it ends, and crash / error semantics are
those of one pool per sweep.
"""

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.api import Client, ExecutionProfile, SweepSpec
from repro.api.client import CancelledError
from repro.simulation import faults, parallel, registry
from repro.simulation import sweep as sweep_module
from repro.simulation.parallel import WorkerCrashError
from repro.simulation.sweep import execute_campaign

SEEDS = [1, 2, 3, 4]
NAMES = ["fig15-environment", "fig7-mutuality", "fig8-inference"]
POOL = ExecutionProfile(workers=2, backend="process", no_cache=True)


class _SpyPool(parallel.ProcessPoolExecutor):
    """Records every pool built, the worker pids it forked and the
    scenarios whose chunks it was handed."""

    created = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pids = set()
        self.scenarios = []
        _SpyPool.created.append(self)

    def submit(self, fn, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.pids.update(self._processes or ())
        run = args[0] if args else None
        if getattr(run, "args", None):
            self.scenarios.append(run.args[0])
        return future


@pytest.fixture
def spy(monkeypatch):
    _SpyPool.created = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _SpyPool)
    return _SpyPool


def _specs(names=NAMES, seeds=SEEDS):
    return [SweepSpec(name, seeds, smoke=True) for name in names]


_ORACLE = {}


def _oracle(names=NAMES, seeds=SEEDS):
    """The ``workers=1`` campaign: per-seed results and means."""
    key = (tuple(names), tuple(seeds))
    if key not in _ORACLE:
        _ORACLE[key] = execute_campaign(
            _specs(names, seeds), ExecutionProfile(workers=1, no_cache=True),
        )
    return _ORACLE[key]


TWINS = ["fig7-mutuality", "fig7-mutuality-vectorized"]


@pytest.fixture(scope="module")
def twin_oracle():
    """The twin campaign's oracle, built in this process before (being
    module-scoped) any per-test network spy is installed."""
    return _oracle(TWINS)


def _assert_oracle(results, names=NAMES, seeds=SEEDS):
    expected = _oracle(names, seeds)
    assert [r.scenario for r in results] == list(names)
    for got, want in zip(results, expected):
        assert got.seeds == want.seeds
        assert got.per_seed == want.per_seed
        assert got.mean == want.mean


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _worker_pids(spy):
    pids = set().union(*(pool.pids for pool in spy.created))
    assert pids, "the campaign never forked a worker"
    return pids


class TestOnePoolPerCampaign:
    def test_three_sweeps_share_one_pool(self, spy):
        results = execute_campaign(_specs(), POOL)
        assert len(spy.created) == 1
        assert spy.created[0].scenarios[0] == NAMES[0]
        assert set(spy.created[0].scenarios) == set(NAMES)
        _assert_oracle(results)
        for result in results:
            assert result.timing.backend == "process"
            assert result.timing.workers == 2

    def test_all_hits_replay_forks_nothing(self, spy, tmp_path):
        profile = ExecutionProfile(workers=2, cache_dir=str(tmp_path))
        cold = execute_campaign(_specs(), profile)
        assert len(spy.created) == 1
        warm = execute_campaign(_specs(), profile)
        assert len(spy.created) == 1
        assert [r.timing.backend for r in warm] == ["cache"] * len(NAMES)
        assert [r.per_seed for r in warm] == [r.per_seed for r in cold]
        _assert_oracle(warm)

    def test_one_chunk_sweep_runs_on_the_pool(self, spy, monkeypatch):
        """A sweep that falls to a single chunk (one seed, under
        automatic sizing) must not build its arena in the caller, or
        every later fork would inherit it."""
        monkeypatch.setattr(registry, "_ARENAS", {})
        results = execute_campaign(_specs(NAMES[:2], seeds=[1]), POOL)
        assert registry.arena_store_size() == 0
        assert len(spy.created) == 1
        assert [r.timing.workers for r in results] == [1, 1]
        _assert_oracle(results, NAMES[:2], seeds=[1])

    def test_twin_campaign_builds_the_fig7_arena_once_per_worker(
        self, spy, twin_oracle, network_builds
    ):
        """A ``-vectorized`` twin runs on its base scenario's network,
        so a worker that ran the base never builds it again."""
        results = execute_campaign(_specs(TWINS), POOL)
        pids = network_builds()
        assert pids and os.getpid() not in pids
        assert len(pids) == len(set(pids))
        assert len(spy.created) == 1
        _assert_oracle(results, TWINS)

    def test_lone_sweep_keeps_its_one_chunk_in_the_caller(self, spy):
        result = execute_campaign([SweepSpec(NAMES[0], [1], smoke=True)],
                                  POOL)[0]
        assert spy.created == []
        assert result.timing.backend == "sequential"


def _square(seed):
    return seed * seed


class TestHeldRunner:
    def test_pool_broken_between_maps_is_replaced(self, spy):
        """An idle worker's death breaks the held pool before the next
        map submits; that map runs on a fresh pool."""
        with parallel.ParallelRunner(workers=2) as runner:
            assert runner.map_seeds(_square, SEEDS) == [1, 4, 9, 16]
            broken = spy.created[0]
            os.kill(next(iter(broken.pids)), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not broken._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert broken._broken
            assert runner.map_seeds(_square, [5, 6, 7]) == [25, 36, 49]
            assert len(spy.created) == 2
        assert not any(_alive(pid) for pid in _worker_pids(spy))


class TestNoWorkerOutlivesTheCampaign:
    def test_after_it_returns(self, spy):
        execute_campaign(_specs(), POOL)
        assert not any(_alive(pid) for pid in _worker_pids(spy))

    def test_after_it_raises(self, spy, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULT, f"raise:{SEEDS[1]}")
        with pytest.raises(faults.InjectedFaultError):
            execute_campaign(_specs(), POOL)
        assert not any(_alive(pid) for pid in _worker_pids(spy))

    def test_after_it_is_cancelled(self, spy, monkeypatch):
        second = threading.Event()
        release = threading.Event()
        real_run_pool = sweep_module._run_pool

        def gated(plan, profile, runner):
            if plan.spec.scenario == NAMES[1]:
                second.set()
                release.wait(30)
            return real_run_pool(plan, profile, runner)

        monkeypatch.setattr(sweep_module, "_run_pool", gated)
        handle = Client(POOL).submit_campaign(_specs())
        try:
            assert second.wait(timeout=60)
            assert handle.cancel() is True
        finally:
            release.set()
        with pytest.raises(CancelledError, match="2 of 3"):
            handle.result(timeout=60)
        assert handle.progress() == (2, 3)
        assert len(spy.created) == 1
        assert NAMES[2] not in spy.created[0].scenarios
        assert not any(_alive(pid) for pid in _worker_pids(spy))


# The sweep the crash hooks below fire in, and the seed the error
# tests poison.
_CRASH_SCENARIO = NAMES[1]
_CRASH_SEED = SEEDS[1]


def _patch_run_reduced(monkeypatch, crash_seed, marker_dir=None):
    """Make ``registry.run_reduced`` SIGKILL its worker on
    ``crash_seed`` of the second sweep: once when ``marker_dir`` is
    given (an O_EXCL flag file there records the death), on every
    attempt otherwise.  Forked workers inherit the patch."""
    real = registry.run_reduced

    def run_reduced(scenario, params, seed):
        if scenario == _CRASH_SCENARIO and seed == crash_seed:
            if marker_dir is None:
                os.kill(os.getpid(), signal.SIGKILL)
            flag = Path(marker_dir) / "crashed-once"
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(scenario, params, seed)

    monkeypatch.setattr(registry, "run_reduced", run_reduced)


class TestCrashAndErrorSemantics:
    def test_worker_killed_once_in_sweep_two_is_survived(
        self, spy, monkeypatch, tmp_path,
    ):
        _oracle()  # computed before the hook is installed
        _patch_run_reduced(monkeypatch, SEEDS[1], marker_dir=tmp_path)
        results = execute_campaign(_specs(), POOL)
        assert (tmp_path / "crashed-once").exists()
        _assert_oracle(results)
        # The broken pool was replaced; the third sweep ran on the
        # fresh one only.
        assert len(spy.created) == 2
        first, fresh = spy.created
        assert NAMES[2] not in first.scenarios
        assert NAMES[2] in fresh.scenarios
        assert not any(_alive(pid) for pid in _worker_pids(spy))

    @pytest.mark.parametrize("poison", [0, 1], ids=["first", "second"])
    def test_chunk_that_always_kills_its_worker_is_named(
        self, spy, monkeypatch, poison,
    ):
        # Only a chunk that crashes while running alone is charged, so
        # the chunk in flight beside the poison one is never named,
        # whichever of the two comes first.
        _patch_run_reduced(monkeypatch, SEEDS[poison])
        profile = ExecutionProfile(workers=2, max_attempts=2, no_cache=True)
        with pytest.raises(WorkerCrashError) as info:
            execute_campaign(_specs(), profile)
        assert info.value.seeds == (SEEDS[poison],)
        assert info.value.chunk_index == poison
        assert info.value.attempts == 2
        assert not any(_alive(pid) for pid in _worker_pids(spy))

    def test_collect_quarantines_only_the_poison_seed(self, monkeypatch):
        _oracle()
        monkeypatch.setenv(faults.ENV_FAULT, f"raise:{_CRASH_SEED}")
        profile = ExecutionProfile(
            workers=2, no_cache=True, on_error="collect", max_attempts=1,
        )
        results = execute_campaign(_specs(), profile)
        expected = _oracle()
        for got, want in zip(results, expected):
            assert [r["seed"] for r in got.failed_seeds] == [_CRASH_SEED]
            assert got.failed_seeds[0]["error_type"] == "InjectedFaultError"
            kept = [seed for seed in SEEDS if seed != _CRASH_SEED]
            assert got.seeds == kept
            assert got.per_seed == [
                value for seed, value in zip(want.seeds, want.per_seed)
                if seed != _CRASH_SEED
            ]

    def test_raise_stops_at_the_first_failing_sweep(self, monkeypatch):
        # The poison seed appears in the second sweep only.
        specs = [
            SweepSpec(NAMES[0], SEEDS, smoke=True),
            SweepSpec(NAMES[1], SEEDS + [9], smoke=True),
            SweepSpec(NAMES[2], SEEDS, smoke=True),
        ]
        planned = []
        real_plan = sweep_module._plan

        def plan(spec, profile):
            planned.append(spec.scenario)
            return real_plan(spec, profile)

        monkeypatch.setattr(sweep_module, "_plan", plan)
        monkeypatch.setenv(faults.ENV_FAULT, "raise:9")
        profile = ExecutionProfile(workers=2, no_cache=True, on_error="raise")
        with pytest.raises(faults.InjectedFaultError, match="seed 9"):
            execute_campaign(specs, profile)
        assert planned == NAMES[:2]
