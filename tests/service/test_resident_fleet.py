"""``repro serve`` keeps one resident worker fleet for its lifetime.

The server's client forks its local workers on the first queued job;
every later job — sequential or concurrent — runs on the same warm
processes, which build each arena once and survive SIGKILLed peers.
Closing the server leaves no process and no temp queue dir behind.
"""

import multiprocessing
import os
import signal
import tempfile
import threading
import time

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.service import JobServer, RemoteClient
from repro.simulation import registry
from repro.simulation.sweep import execute_sweep

SCENARIO = "fig7-mutuality"
PROFILE = ExecutionProfile(workers=2, backend="distributed", no_cache=True)


@pytest.fixture(scope="module")
def oracle():
    """Per-seed oracle results, computed before any spy is installed."""
    seeds = list(range(1, 25))
    sweep = execute_sweep(
        SweepSpec(SCENARIO, seeds, smoke=True),
        ExecutionProfile(no_cache=True),
    )
    table = dict(zip(seeds, sweep.per_seed))
    return lambda wanted: [table[seed] for seed in wanted]


@pytest.fixture
def spies(oracle, network_builds, tmp_path, monkeypatch):
    """Log the pid of every network build and every seed run, from
    whichever process (forked workers inherit the patches)."""
    runs = tmp_path / "runs.log"
    original_run = registry.run_reduced

    def spy_run(name, params, seed):
        with open(runs, "a") as log:
            log.write(f"{os.getpid()} {seed}\n")
        return original_run(name, params, seed)

    monkeypatch.setattr(registry, "run_reduced", spy_run)
    # The server's private queue root lands here, where it can be seen.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return network_builds, runs


def _pids(log):
    if not log.exists():
        return []
    return [int(line.split()[0]) for line in log.read_text().splitlines()]


def _run_pids(runs, seeds):
    """The pids that ran the given seeds."""
    wanted = {str(seed) for seed in seeds}
    return {
        int(pid) for pid, seed in
        (line.split() for line in runs.read_text().splitlines())
        if seed in wanted
    }


def _submit(remote, seeds):
    return remote.submit(SweepSpec(SCENARIO, seeds, smoke=True))


class TestResidentFleet:
    def test_sequential_jobs_share_workers_that_build_arenas_once(
        self, oracle, spies, tmp_path
    ):
        builds, runs = spies
        with JobServer(profile=PROFILE) as server:
            remote = RemoteClient(server.url, poll_interval=0.05)
            for job in range(3):
                seeds = list(range(1 + 4 * job, 5 + 4 * job))
                sweep = _submit(remote, seeds).result(timeout=60)
                assert sweep.per_seed == oracle(seeds)
        workers = set(_pids(runs))
        # Two resident workers ran every seed of all three jobs ...
        assert 1 <= len(workers) <= 2
        assert os.getpid() not in workers
        # ... and each built the arena once, itself, and kept it.
        built = builds()
        assert os.getpid() not in built
        assert len(built) == len(set(built)) and set(built) <= workers
        assert multiprocessing.active_children() == []
        assert list(tmp_path.glob("repro-queue-*")) == []

    def test_two_clients_run_side_by_side(self, oracle, spies):
        with JobServer(profile=PROFILE) as server:
            assert server.table.parallel_jobs == 2
            remote = RemoteClient(server.url, poll_interval=0.05)
            _submit(remote, [1]).result(timeout=60)  # forks the fleet
            gate = threading.Barrier(2)
            sweeps = {}

            def client(seeds):
                gate.wait()
                sweeps[seeds[0]] = (seeds, _submit(
                    RemoteClient(server.url, poll_interval=0.05), seeds,
                ).result(timeout=60))

            threads = [
                threading.Thread(target=client, args=(seeds,))
                for seeds in ([11, 12, 13, 14], [21, 22, 23, 24])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            states = [job["state"] for job in remote.jobs()]
        assert states == ["done"] * 3
        for seeds, sweep in sweeps.values():
            assert sweep.per_seed == oracle(seeds)
        assert len(sweeps) == 2

    def test_sigkilled_workers_are_replaced_and_nothing_hangs(
        self, oracle, spies, monkeypatch
    ):
        """One worker dies mid-task (a fault right before seed 3), one
        is killed while idle between jobs; every job still matches the
        oracle, on replacement workers, well inside its timeout."""
        _, runs = spies
        monkeypatch.setenv("REPRO_WORKER_FAULT", "sigkill:3")
        with JobServer(profile=PROFILE) as server:
            remote = RemoteClient(server.url, poll_interval=0.05)
            first = _submit(remote, [1, 2, 3, 4]).result(timeout=60)
            assert first.per_seed == oracle([1, 2, 3, 4])
            assert first.steals >= 1  # the dead worker's chunk was stolen
            second = _submit(remote, [5, 6, 7, 8]).result(timeout=60)
            assert second.per_seed == oracle([5, 6, 7, 8])
            idle = sorted(_run_pids(runs, [5, 6, 7, 8]))[0]
            os.kill(idle, signal.SIGKILL)
            began = time.monotonic()
            third = _submit(remote, [9, 10, 11, 12]).result(timeout=60)
            assert time.monotonic() - began < 20
            assert third.per_seed == oracle([9, 10, 11, 12])
            assert idle not in _run_pids(runs, [9, 10, 11, 12])
        assert multiprocessing.active_children() == []
