"""Client facade tests: handles, campaigns, and the oracle contract.

The headline assertion (the PR's acceptance criterion) lives in
``TestCampaignEquivalence``: a campaign over **every registered
scenario** produces per-scenario results bit-identical to individual
``execute_sweep`` calls — ``==`` on the dataclasses, no tolerance.
"""

import threading

import pytest

from repro.analysis.export import load_sweep
from repro.api import (
    CampaignResult,
    CancelledError,
    Client,
    ExecutionProfile,
    SweepSpec,
)
from repro.simulation import registry
from repro.simulation import sweep as sweep_module
from repro.simulation.sweep import execute_sweep

SEEDS = [1, 2]
_FAST = ExecutionProfile(no_cache=True)


def _oracle(name, seeds=SEEDS):
    return execute_sweep(
        SweepSpec(name, seeds, smoke=True),
        ExecutionProfile(workers=1, no_cache=True),
    )


class TestSubmit:
    def test_submit_resolves_to_the_oracle_result(self):
        handle = Client(_FAST).submit(
            SweepSpec("fig15-environment", SEEDS, smoke=True)
        )
        result = handle.result(timeout=120)
        oracle = _oracle("fig15-environment")
        assert result.per_seed == oracle.per_seed
        assert result.mean == oracle.mean
        assert result.variance == oracle.variance
        assert handle.status() == "done"
        assert handle.done()

    def test_submit_is_non_blocking_and_waitable(self, monkeypatch):
        gate = threading.Event()
        real = sweep_module.execute_campaign

        def slow(specs, profile, fleet=None):
            gate.wait(30)
            return real(specs, profile, fleet=fleet)

        monkeypatch.setattr(sweep_module, "execute_campaign", slow)
        handle = Client(_FAST).submit(
            SweepSpec("fig15-environment", [1], smoke=True)
        )
        assert handle.status() in ("queued", "running")
        assert not handle.wait(timeout=0.05)
        gate.set()
        assert handle.wait(timeout=30)
        assert handle.status() == "done"

    def test_failures_surface_through_result(self, monkeypatch):
        def boom(specs, profile, fleet=None):
            raise RuntimeError("scenario exploded")

        monkeypatch.setattr(sweep_module, "execute_campaign", boom)
        handle = Client(_FAST).submit(
            SweepSpec("fig15-environment", [1], smoke=True)
        )
        handle.wait(timeout=30)
        assert handle.status() == "failed"
        with pytest.raises(RuntimeError, match="exploded"):
            handle.result()

    def test_result_timeout_raises(self, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            sweep_module, "execute_campaign",
            lambda specs, profile, fleet=None: [gate.wait(30)],
        )
        handle = Client(_FAST).submit(
            SweepSpec("fig15-environment", [1], smoke=True)
        )
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
        gate.set()
        handle.wait(timeout=30)

    def test_type_errors_are_eager(self):
        client = Client(_FAST)
        with pytest.raises(TypeError, match="SweepSpec"):
            client.submit("fig15-environment")
        with pytest.raises(TypeError, match="ExecutionProfile"):
            client.submit(
                SweepSpec("fig15-environment", [1], smoke=True),
                profile="fast",
            )

    def test_cancel_before_start_prevents_execution(self, monkeypatch):
        ran = []

        class ManualThread:
            def __init__(self, target=None, daemon=None):
                self._target = target

            def start(self):
                pass  # the test drives execution explicitly

            def run(self):
                self._target()

        monkeypatch.setattr(
            "repro.api.client.threading.Thread", ManualThread
        )
        monkeypatch.setattr(
            sweep_module, "execute_campaign",
            lambda specs, profile, fleet=None: ran.append(specs),
        )
        handle = Client(_FAST).submit(
            SweepSpec("fig15-environment", [1], smoke=True)
        )
        assert handle.status() == "queued"
        assert handle.cancel() is True
        handle._thread.run()  # the would-be worker thread
        assert handle.status() == "cancelled"
        assert ran == []
        with pytest.raises(CancelledError):
            handle.result()

    def test_cancel_while_running_is_refused(self, monkeypatch):
        gate = threading.Event()
        started = threading.Event()

        def slow(specs, profile, fleet=None):
            started.set()
            gate.wait(30)
            return ["done"]

        monkeypatch.setattr(sweep_module, "execute_campaign", slow)
        handle = Client(_FAST).submit(
            SweepSpec("fig15-environment", [1], smoke=True)
        )
        assert started.wait(timeout=30)
        assert handle.cancel() is False
        gate.set()
        handle.wait(timeout=30)
        assert handle.status() == "done"


class TestCampaigns:
    def test_campaign_runs_in_order_with_progress(self):
        specs = [
            SweepSpec("fig15-environment", SEEDS, smoke=True),
            SweepSpec("fig7-mutuality", SEEDS, smoke=True),
        ]
        handle = Client(_FAST).submit_campaign(specs)
        result = handle.result(timeout=300)
        assert isinstance(result, CampaignResult)
        assert handle.progress() == (2, 2)
        assert result.labels == ("fig15-environment", "fig7-mutuality")
        assert [s.scenario for s in result.sweeps] == [
            "fig15-environment", "fig7-mutuality",
        ]

    def test_campaign_labels_dedupe_repeats(self):
        specs = [
            SweepSpec("fig15-environment", [1], smoke=True),
            SweepSpec("fig15-environment", [2], smoke=True),
        ]
        result = Client(_FAST).run_campaign(specs)
        assert result.labels == (
            "fig15-environment", "fig15-environment#2",
        )
        assert set(result.by_label()) == set(result.labels)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Client(_FAST).submit_campaign([])

    def test_campaign_cancel_skips_remaining_specs(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        executed = []
        real_run_pool = sweep_module._run_pool

        def slow(plan, profile, runner):
            executed.append(plan.spec.scenario)
            started.set()
            release.wait(30)
            return real_run_pool(plan, profile, runner)

        monkeypatch.setattr(sweep_module, "_run_pool", slow)
        handle = Client(_FAST).submit_campaign([
            SweepSpec("fig15-environment", SEEDS, smoke=True),
            SweepSpec("fig7-mutuality", SEEDS, smoke=True),
        ])
        assert started.wait(timeout=30)
        assert handle.cancel() is True
        release.set()
        handle.wait(timeout=30)
        assert handle.status() == "cancelled"
        assert executed == ["fig15-environment"]
        assert handle.progress() == (1, 2)
        with pytest.raises(CancelledError, match="1 of 2"):
            handle.result()

    def test_cancel_during_last_sweep_is_refused(self, monkeypatch):
        """Nothing is spared once the final sweep is in flight, so an
        honest cancel() says no and the campaign completes."""
        started = threading.Event()
        release = threading.Event()
        real_run_pool = sweep_module._run_pool

        def slow(plan, profile, runner):
            started.set()
            release.wait(30)
            return real_run_pool(plan, profile, runner)

        monkeypatch.setattr(sweep_module, "_run_pool", slow)
        handle = Client(_FAST).submit_campaign([
            SweepSpec("fig15-environment", SEEDS, smoke=True),
        ])
        assert started.wait(timeout=30)
        assert handle.cancel() is False
        release.set()
        handle.wait(timeout=30)
        assert handle.status() == "done"
        assert len(handle.result().sweeps) == 1

    def test_progress_advances_one_pool_sweep_at_a_time(self, monkeypatch):
        """The campaign's first sweep counts as done while its second is
        still computing: progress() reads (1, n) before the result."""
        expected = [
            _oracle("fig15-environment").mean, _oracle("fig7-mutuality").mean,
        ]
        second = threading.Event()
        release = threading.Event()
        real_run_pool = sweep_module._run_pool

        def gated(plan, profile, runner):
            if plan.spec.scenario == "fig7-mutuality":
                second.set()
                release.wait(30)
            return real_run_pool(plan, profile, runner)

        monkeypatch.setattr(sweep_module, "_run_pool", gated)
        handle = Client(_FAST).submit_campaign([
            SweepSpec("fig15-environment", SEEDS, smoke=True),
            SweepSpec("fig7-mutuality", SEEDS, smoke=True),
        ])
        try:
            assert second.wait(timeout=30)
            assert handle.progress() == (1, 2)
            assert not handle.done()
        finally:
            release.set()
        result = handle.result(timeout=60)
        assert handle.progress() == (2, 2)
        assert [sweep.mean for sweep in result.sweeps] == expected

    def test_cancel_distributed_campaign_leaves_queue_clean(
        self, tmp_path, monkeypatch
    ):
        """Cancelling a running distributed campaign must raise
        CancelledError AND delete every sweep dir it enqueued — no
        orphaned tasks, leases, attempt markers, or quarantine files
        to confuse the next campaign on the same queue dir."""
        from repro.simulation import distributed as distributed_module

        started = threading.Event()
        release = threading.Event()
        real_loop = distributed_module.worker_loop

        def gated_loop(*args, **kwargs):
            started.set()
            release.wait(30)
            return real_loop(*args, **kwargs)

        monkeypatch.setattr(distributed_module, "worker_loop", gated_loop)
        profile = ExecutionProfile(
            workers=0, backend="distributed",
            queue_dir=str(tmp_path / "q"), cache_dir=str(tmp_path / "c"),
        )
        handle = Client(profile).submit_campaign([
            SweepSpec("fig15-environment", [1, 2], smoke=True),
            SweepSpec("fig7-mutuality", [1, 2], smoke=True),
        ])
        # The coordinator reached its inline drain: both sweeps are
        # enqueued on disk, nothing collected yet.
        assert started.wait(timeout=30)
        assert any((tmp_path / "q").glob("sweep-*"))
        assert handle.cancel() is True
        release.set()
        handle.wait(timeout=60)
        assert handle.status() == "cancelled"
        with pytest.raises(CancelledError, match="cancelled"):
            handle.result()
        # The abort path scrubbed the queue dir completely...
        assert not any((tmp_path / "q").iterdir())
        # ...so a fresh campaign on the same dir runs to completion.
        result = Client(profile).run_campaign([
            SweepSpec("fig15-environment", [1, 2], smoke=True),
        ])
        assert result.sweeps[0].failed_seeds == []
        assert result.sweeps[0].per_seed == _oracle(
            "fig15-environment", [1, 2]
        ).per_seed

    def test_write_exports_produces_loadable_artifacts(self, tmp_path):
        result = Client(_FAST).run_campaign([
            SweepSpec("fig15-environment", SEEDS, smoke=True),
        ])
        paths = result.write_exports(tmp_path / "exports")
        assert [p.name for p in paths] == ["fig15-environment.json"]
        payload = load_sweep(paths[0].read_text())
        assert payload["mean"]["values"] == result.sweeps[0].mean.values
        assert payload["spec"]["scenario"] == "fig15-environment"


class TestCampaignEquivalence:
    def test_campaign_over_all_scenarios_matches_execute_sweep(self):
        """The acceptance criterion: submit_campaign() over every
        registered scenario is bit-identical, per scenario, to the
        sequential per-scenario execute_sweep() oracle."""
        specs = [
            SweepSpec(name, SEEDS, smoke=True)
            for name in registry.names()
        ]
        result = Client(_FAST).run_campaign(specs)
        assert len(result) == len(registry.names())
        for spec, sweep in zip(specs, result.sweeps):
            oracle = _oracle(spec.scenario)
            assert sweep.per_seed == oracle.per_seed, spec.scenario
            assert sweep.mean == oracle.mean, spec.scenario
            assert sweep.variance == oracle.variance, spec.scenario

    def test_distributed_campaign_multiplexes_one_queue(self, tmp_path):
        """Two sweeps share one queue dir and one two-worker fleet, and
        still match the oracle bit for bit."""
        profile = ExecutionProfile(
            workers=2, backend="distributed",
            queue_dir=str(tmp_path / "q"), cache_dir=str(tmp_path / "c"),
        )
        specs = [
            SweepSpec("fig15-environment", [1, 2, 3], smoke=True),
            SweepSpec("fig7-mutuality", SEEDS, smoke=True),
        ]
        result = Client(profile).run_campaign(specs)
        for spec, sweep in zip(specs, result.sweeps):
            oracle = _oracle(spec.scenario, list(spec.seeds))
            assert sweep.per_seed == oracle.per_seed, spec.scenario
            assert sweep.mean == oracle.mean, spec.scenario
            assert sweep.timing.backend == "distributed"
            assert sweep.tasks_total >= 1
        # The queue dir was shared and cleaned up after collection.
        assert not any((tmp_path / "q").iterdir())

    def test_warm_cache_campaign_is_a_pure_replay(self, tmp_path):
        profile = ExecutionProfile(cache_dir=str(tmp_path / "c"))
        specs = [SweepSpec("fig15-environment", SEEDS, smoke=True)]
        cold = Client(profile).run_campaign(specs)
        warm = Client(profile).run_campaign(specs)
        assert warm.sweeps[0].cache_hits == len(SEEDS)
        assert warm.sweeps[0].per_seed == cold.sweeps[0].per_seed
        assert warm.sweeps[0].timing.backend == "cache"


class TestQueueStatusFacade:
    def test_requires_a_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            Client(_FAST).queue_status()

    def test_reads_the_profile_queue(self, tmp_path):
        profile = ExecutionProfile(
            workers=1, backend="distributed", no_cache=True,
            queue_dir=str(tmp_path / "q"),
        )
        client = Client(profile)
        assert client.queue_status() == []
        spec = registry.get("fig15-environment")
        from repro.simulation.distributed import WorkQueue

        WorkQueue.create(
            tmp_path / "q", "fig15-environment",
            spec.params_key(smoke=True), [1, 2], [[1], [2]],
        )
        statuses = client.queue_status()
        assert len(statuses) == 1
        assert statuses[0].tasks == 2 and statuses[0].done == 0
