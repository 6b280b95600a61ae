"""CPU/RSS accounting of child processes, failed-job accounting against a
real server, and span collection from forked workers."""

import dataclasses
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench import metrics, tracing, workloads

BURN = (
    "import time\n"
    "end = time.process_time() + {seconds}\n"
    "while time.process_time() < end:\n"
    "    pass\n"
)
HOLD_80_MIB = "ballast = b'x' * (80 * 2 ** 20)\n"


def _vm_hwm_mb(pid):
    """Peak resident set of a running process, from /proc, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise AssertionError(f"no VmHWM for pid {pid}")


def test_reaped_child_cpu_and_peak_rss_are_counted():
    meter = metrics.CpuMeter()
    subprocess.run(
        [sys.executable, "-c", HOLD_80_MIB + BURN.format(seconds=0.3)],
        check=True,
    )
    assert meter.elapsed() >= 0.25
    assert metrics.peak_rss_mb() >= 80


def test_live_child_counts_itself_and_the_children_it_reaped():
    grandchild = BURN.format(seconds=0.3)
    code = (
        "import subprocess, sys\n"
        f"subprocess.run([sys.executable, '-c', {grandchild!r}])\n"
        + HOLD_80_MIB + BURN.format(seconds=0.2)
        + "print('ready', flush=True)\n"
        "sys.stdin.readline()\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", code],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        meter = metrics.CpuMeter(live=[child.pid])
        assert child.stdout.readline() == "ready\n"
        live = meter.elapsed(live=[child.pid])
        assert live >= 0.4
        assert _vm_hwm_mb(child.pid) >= 80
    finally:
        child.stdin.close()
        child.wait(timeout=30)
        child.stdout.close()
    # Reaped now: the same CPU shows through RUSAGE_CHILDREN.
    assert meter.elapsed() == pytest.approx(live, abs=0.1)
    assert metrics.peak_rss_mb() >= 80


def test_server_subprocess_and_its_queue_workers_are_accounted(tmp_path):
    from repro.service import RemoteClient

    bench = workloads.ServeSmallJobs(seed=5, work=tmp_path)
    server = workloads.Server(bench, "accounting")
    try:
        meter = metrics.CpuMeter(live=[server.pid])
        bench.run_job(RemoteClient(server.url), (1, 2))
        # The job's queue workers were forked, run and reaped by the
        # server; their CPU is part of the server's reading.
        live = meter.elapsed(live=[server.pid])
        assert live > 0.05
        server_peak = _vm_hwm_mb(server.pid)
    finally:
        server.stop()
    assert meter.elapsed() >= live - 0.05
    assert metrics.peak_rss_mb() >= server_peak


class _FlakyServe(workloads.ServeSmallJobs):
    """The first job is refused; the second comes back with a wrong mean."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self._calls = itertools.count(1)

    def run_job(self, remote, seeds):
        from repro.service import ServiceError

        call = next(self._calls)
        if call == 1:
            raise ServiceError(503, "refused")
        sweep = super().run_job(remote, seeds)
        if call == 2:
            mean = dataclasses.replace(
                sweep.mean, success_rate=sweep.mean.success_rate + 0.5
            )
            sweep = dataclasses.replace(sweep, mean=mean)
        return sweep


def test_refused_and_wrong_jobs_count_as_errors(tmp_path):
    bench = _FlakyServe(seed=7, work=tmp_path)
    try:
        window = bench.measure(0.0, 3, None)
    finally:
        bench.close()
    attempted, failed = bench.verify()
    assert attempted == bench.jobs >= 4
    assert failed == 2
    assert len(window.latencies_s) == attempted - 1  # the refused job
    assert metrics.error_rate(attempted, failed) == 2 / attempted


# -- tracing -----------------------------------------------------------------

def test_forked_workers_record_under_the_forking_span(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    context = multiprocessing.get_context("fork")
    ready = context.Event()

    def probe():
        return 1

    traced_probe = tracer.leaf("core.rank", probe)

    def worker():
        traced_probe()
        ready.set()
        threading.Event().wait(30)  # idle until terminated

    def fork_and_retire():
        process = context.Process(target=worker)
        process.start()
        assert ready.wait(30)
        process.terminate()  # what a coordinator does to idle workers
        process.join(30)

    traced = tracer.span("parallel.map", fork_and_retire)
    tracer.enabled = True
    try:
        traced()
    finally:
        tracer.enabled = False
        tracer.flush()
    trace = tracing.load(tmp_path)
    (fork_span,) = trace.named("parallel.map")
    (child,) = [p for p in trace.processes if p.forked_at_ns is not None]
    assert child.inherited_parent == fork_span.id
    assert child.forked_at_ns >= fork_span.start
    assert trace.leaves[("core.rank", fork_span.id)][0] == 1


def test_self_time_subtracts_children_and_leaves():
    ms = 1_000_000
    trace = tracing.Trace(processes=[tracing.Process(1, None, None)])
    trace.spans = [
        tracing.Span("sweep.execute", 1, None, 0, 100 * ms, None, 0),
        # execute_sweep -> execute_campaign: the same layer, not a child.
        tracing.Span("sweep.execute", 2, 1, 5 * ms, 95 * ms, None, 0),
        tracing.Span("parallel.map", 3, 2, 10 * ms, 60 * ms,
                     {"workers": 2}, 0),
        tracing.Span("parallel.map", 4, 2, 50 * ms, 70 * ms,
                     {"workers": 2}, 0),
    ]
    trace.leaves = {("cache.key", 2): [4, 5 * ms, 4]}
    values = tracing.layer_metrics(trace, {})
    # 100 ms - union(10..70) - 5 ms of leaves
    assert values["sweep.execute.self_ms"] == pytest.approx(35.0)
    assert values["parallel.map.count"] == 2
    assert values["parallel.idle_ms"] == pytest.approx(2 * 50 + 2 * 20)
    assert values["cache.key.count"] == 4


# -- leftover processes ------------------------------------------------------

LEAVE_ORPHANS = (
    "import json, multiprocessing, subprocess\n"
    "from multiprocessing import resource_tracker\n"
    "from perfbench import processes\n"
    "assert processes.become_subreaper()\n"
    # A spawned pool starts the resource tracker, which outlives it.
    "pool = multiprocessing.get_context('spawn').Pool(1)\n"
    "pool.close(); pool.join()\n"
    "tracker = resource_tracker._resource_tracker._pid\n"
    # A shell that backgrounds a sleeper and exits orphans the sleeper.
    "orphan = int(subprocess.run(\n"
    "    ['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
    "    capture_output=True, text=True).stdout)\n"
    "before = processes.children()\n"
    "signalled = processes.stop_children(grace=0.2, term=2.0)\n"
    "print(json.dumps([tracker, orphan, before, signalled,\n"
    "                  processes.children()]))\n"
)


def _alive(pid):
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return text[text.rindex(")") + 2] != "Z"


def test_stop_children_ends_the_resource_tracker_and_orphans():
    root = Path(__file__).resolve().parents[2]
    out = subprocess.run(
        [sys.executable, "-c", LEAVE_ORPHANS],
        env={"PYTHONPATH": f"{root}{os.pathsep}{root / 'src'}",
             "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    tracker, orphan, before, signalled, after = json.loads(out)
    # The orphan was adopted; it needed a signal, the tracker did not.
    assert {tracker, orphan} <= set(before)
    assert signalled == 1
    assert after == []
    assert not _alive(tracker)
    assert not _alive(orphan)
