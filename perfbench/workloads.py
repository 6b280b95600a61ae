"""The benchmark's three workloads and the sequential oracle they answer to.

* ``campaign-cold`` — one caller runs a smoke-scale campaign of nine
  sweeps on a two-worker process pool, each time with a fresh cache
  directory.  Compute-bound: seed runs in ``core``, ``iotnet`` and
  ``registry`` own the time, on both kernel backends; the cache only
  writes, and every sweep starts its own pool, so pool start-up shows.
* ``campaign-warm`` — the same campaign replayed over and over against
  the cache that set-up filled, so every seed is a hit and nothing is
  computed.  Cache reads, key hashing and sweep planning/assembly own
  the time; kernel and pool work are bypassed.
* ``serve-small-jobs`` — a ``repro serve --distributed --workers 2``
  subprocess serving a closed loop of two ``RemoteClient`` threads, each
  submitting 8-seed ``fig7-mutuality`` smoke sweeps it never sent before
  (no cache hits), long-poll waiting and fetching the result.  Seed
  compute is a few percent of a job; HTTP handling, the durable job
  table, queue files, worker spawn and coordinator polling own the rest.

A *job* is the unit a caller waits on: one sweep of the campaign on
``campaign-cold`` (timed as the caller sees it complete through
``CampaignHandle.progress()``), a batch of
:data:`WARM_REPLAYS_PER_JOB` whole campaign replays on
``campaign-warm`` (a single warm sweep takes a few milliseconds, too
little to time from outside), and one HTTP sweep job on
``serve-small-jobs``.  A measuring window lasts ``seconds`` and is
stretched, up to :data:`MAX_EXTRA_S`, until it holds enough jobs that
ten latency samples lie beyond p90.

Every sweep result is compared with ``ScenarioSpec.run`` — the
sequential oracle — per seed and in its mean; a mismatch, a failed job
or a refused request counts as an error.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench import metrics, tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKERS = 2
CLIENTS = 2
SETUP_REPEATS = 3
# The window may run past ``seconds`` by at most this much to collect
# enough latency samples; a run that still falls short fails.
MAX_EXTRA_S = 60.0
MIN_JOBS = metrics.min_samples(90)
# A warm job is a batch of replays.  One replay takes ~25 ms, and on a
# shared host single replays fall into a fast and a slow mode that
# switch within a second; the median of single replays then jumps
# between the modes from run to run, while the median of batches
# follows the mix smoothly.  Eight keep 100 jobs within a 25 s window.
WARM_REPLAYS_PER_JOB = 8
SERVE_SCENARIO = "fig7-mutuality"
SERVE_SEEDS_PER_JOB = 8
# Seeds per sweep: heavy scenarios get a few seeds, cheap ones many, so
# that no single sweep dominates the campaign (216 seeds; about 2.5 s on
# two cores, so a run collects the 100 sweeps p90 needs in ~30 s).
CAMPAIGN = (
    ("fig7-mutuality", 24),
    ("fig7-mutuality-vectorized", 24),
    ("fig9-transitivity", 2),
    ("fig13-delegation", 2),
    ("fig15-environment-vectorized", 48),
    ("eq24-selfdelegation", 48),
    ("fig8-inference", 48),
    ("fig14-activetime", 4),
    ("fig16-light", 16),
)


def campaign_seeds(seed: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """The campaign's ``(scenario, seeds)`` pairs for one workload seed."""
    rng = random.Random(f"perfbench-campaign-{seed}")
    plan = []
    for scenario, count in CAMPAIGN:
        first = rng.randrange(1, 1_000_000)
        plan.append((scenario, tuple(range(first, first + count))))
    return plan


def serve_job_seeds(seed: int, job: int) -> Tuple[int, ...]:
    """Seeds of the ``job``-th serve job: disjoint from every other job."""
    base = random.Random(f"perfbench-serve-{seed}").randrange(1, 1_000_000)
    first = base * 1000 + job * SERVE_SEEDS_PER_JOB
    return tuple(range(first, first + SERVE_SEEDS_PER_JOB))


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def _oracle_one(task):
    from repro.simulation import registry

    scenario, seed = task
    return registry.get(scenario).run(seed, smoke=True)


def oracle(tasks: Iterable[Tuple[str, int]]) -> Dict[Tuple[str, int], object]:
    """``ScenarioSpec.run`` per ``(scenario, seed)``, two at a time.

    Each seed runs on the sequential path in a spawned process, after
    the measurement, so the oracle's own work never shows in a metric.
    """
    tasks = sorted(set(tasks))
    context = multiprocessing.get_context("spawn")
    pool = context.Pool(WORKERS)
    try:
        values = pool.map(
            _oracle_one, tasks, chunksize=max(1, len(tasks) // 32)
        )
        pool.close()
    finally:
        pool.terminate()
        pool.join()
    return dict(zip(tasks, values))


def sweep_errors(sweep, scenario: str, seeds: Sequence[int],
                 expected: Dict[Tuple[str, int], object]) -> int:
    """Seeds of one sweep whose result differs from the oracle.

    A wrong seed list, a failed seed or a wrong mean marks every seed of
    the sweep wrong, since none of its numbers can then be trusted.
    """
    from repro.simulation.runner import combine_rates, combine_series

    seeds = list(seeds)
    want = [expected[(scenario, seed)] for seed in seeds]
    if (sweep.scenario != scenario or list(sweep.seeds) != seeds
            or sweep.failed_seeds or len(sweep.per_seed) != len(want)):
        return len(seeds)
    wrong = sum(1 for got, ref in zip(sweep.per_seed, want) if got != ref)
    combine = combine_rates if sweep.kind == "rates" else combine_series
    if wrong == 0 and sweep.mean != combine(want):
        return len(seeds)
    return wrong


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

# The end-to-end metrics and their units, as BENCHMARK.json names them.
END_TO_END = {
    "setup_s": "s",
    "seeds_per_s": "seeds/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
    "cpu_ms_per_seed": "ms",
    "peak_rss_mb": "MiB",
}


@dataclass
class Window:
    """What one measuring window observed."""

    seconds: float = 0.0
    seeds: int = 0
    unit_rates: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


@dataclass
class Outcome:
    """A whole run: set-up samples, windows, errors and layer counters."""

    setup_s: List[float] = field(default_factory=list)
    window: Window = field(default_factory=Window)
    attempted: int = 0
    failed: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def end_to_end(outcome: Outcome) -> Dict[str, metrics.Summary]:
    """Reduce an untraced run to its :data:`END_TO_END` summaries."""
    window = outcome.window
    latencies_ms = [value * 1000.0 for value in window.latencies_s]
    return {
        "setup_s": metrics.summarize(outcome.setup_s),
        "seeds_per_s": metrics.summarize(
            window.unit_rates, value=window.seeds / window.seconds
        ),
        "job_latency_p50_ms": metrics.summarize(latencies_ms),
        "job_latency_p90_ms": metrics.tail_summary(latencies_ms, 90),
        "cpu_ms_per_seed": metrics.summarize(
            [window.cpu_s * 1000.0 / window.seeds]
        ),
        "peak_rss_mb": metrics.summarize([window.peak_rss_mb]),
    }


class Workload:
    """Shared plumbing: the work directory and the child environment."""

    name = ""
    # Operations counted by error_rate: "seeds" or "jobs".
    operations = "seeds"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(ROOT)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def setup(self) -> List[float]:
        raise NotImplementedError

    def measure(self, seconds: float, min_jobs: int,
                tracer: Optional[tracing.Tracer]) -> Window:
        raise NotImplementedError

    def verify(self) -> Tuple[int, int]:
        """``(attempted, failed)`` operations over every window."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def _window_over(start: float, seconds: float, jobs: int,
                 min_jobs: int) -> bool:
    elapsed = time.perf_counter() - start
    if elapsed >= seconds + MAX_EXTRA_S:
        return True
    return elapsed >= seconds and jobs >= min_jobs


class _Campaign(Workload):
    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        from repro.api import SweepSpec

        self.plan = campaign_seeds(seed)
        self.specs = [
            SweepSpec(scenario, seeds, smoke=True)
            for scenario, seeds in self.plan
        ]
        self.seeds_per_campaign = sum(len(seeds) for _, seeds in self.plan)
        self.failed_campaigns = 0
        self.attempted_campaigns = 0

    def _profile(self, cache_dir: Path):
        from repro.api import ExecutionProfile

        return ExecutionProfile(workers=WORKERS, cache_dir=str(cache_dir))

    def _check(self, result, expected) -> int:
        return sum(
            sweep_errors(sweep, scenario, seeds, expected)
            for sweep, (scenario, seeds) in zip(result.sweeps, self.plan)
        )

    def _steals(self, results) -> Dict[str, float]:
        return {
            "steals": sum(s.steals for r in results for s in r.sweeps),
            "requeues": sum(s.requeues for r in results for s in r.sweeps),
        }


class CampaignCold(_Campaign):
    name = tracing.COLD

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.results: List[object] = []

    def setup(self) -> List[float]:
        """Importing the client API in a fresh interpreter, plus making
        the run's cache directory."""
        samples = []
        for index in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c",
                 "import repro.api, repro.simulation.sweep"],
                env=self.env, check=True,
            )
            (self.work / f"cold-setup-{index}").mkdir()
            samples.append(time.perf_counter() - start)
        return samples

    def measure(self, seconds, min_jobs, tracer) -> Window:
        from repro.api import Client

        client = Client()
        window = Window()
        meter = metrics.CpuMeter()
        start = time.perf_counter()
        while not _window_over(start, seconds, len(window.latencies_s),
                               min_jobs):
            cache_dir = self.work / f"cold-{self.attempted_campaigns}"
            self.attempted_campaigns += 1
            began = time.perf_counter()
            handle = client.submit_campaign(
                self.specs, self._profile(cache_dir)
            )
            seen, last = 0, began
            sweeps = []
            while True:
                finished = handle.wait(0.002)
                done, _total = handle.progress()
                now = time.perf_counter()
                for _ in range(done - seen):
                    sweeps.append(now - last)
                    last = now
                seen = done
                if finished:
                    break
            try:
                result = handle.result()
            except Exception as error:  # counted, reported, run goes on
                print(f"campaign failed: {error!r}", file=sys.stderr)
                self.failed_campaigns += 1
                continue
            wall = time.perf_counter() - began
            self.results.append(result)
            window.latencies_s.extend(sweeps)
            window.seeds += self.seeds_per_campaign
            window.unit_rates.append(self.seeds_per_campaign / wall)
        window.seconds = time.perf_counter() - start
        window.cpu_s = meter.elapsed()
        window.peak_rss_mb = metrics.peak_rss_mb()
        return window

    def verify(self) -> Tuple[int, int]:
        expected = oracle(
            (scenario, seed)
            for scenario, seeds in self.plan for seed in seeds
        )
        failed = sum(self._check(result, expected) for result in self.results)
        failed += self.failed_campaigns * self.seeds_per_campaign
        return self.attempted_campaigns * self.seeds_per_campaign, failed

    def counters(self) -> Dict[str, float]:
        return self._steals(self.results)


class CampaignWarm(_Campaign):
    name = tracing.WARM

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.reference = None
        self.cache_dir: Optional[Path] = None
        # Replays that differ from the reference, kept for the oracle.
        self.divergent: List[object] = []

    def setup(self) -> List[float]:
        """Filling a fresh cache with the campaign (a cold run)."""
        from repro.api import Client

        samples = []
        for index in range(SETUP_REPEATS):
            self.cache_dir = self.work / f"warm-fill-{index}"
            start = time.perf_counter()
            self.reference = Client(
                self._profile(self.cache_dir)
            ).run_campaign(self.specs)
            samples.append(time.perf_counter() - start)
        return samples

    def _same(self, result) -> bool:
        return all(
            got.seeds == ref.seeds and got.per_seed == ref.per_seed
            and got.mean == ref.mean and not got.failed_seeds
            for got, ref in zip(result.sweeps, self.reference.sweeps)
        ) and len(result.sweeps) == len(self.reference.sweeps)

    def measure(self, seconds, min_jobs, tracer) -> Window:
        from repro.api import Client

        client = Client(self._profile(self.cache_dir))
        window = Window()
        meter = metrics.CpuMeter()
        start = time.perf_counter()
        while not _window_over(start, seconds, len(window.latencies_s),
                               min_jobs):
            began = time.perf_counter()
            delivered = 0
            for _ in range(WARM_REPLAYS_PER_JOB):
                self.attempted_campaigns += 1
                try:
                    result = client.run_campaign(self.specs)
                except Exception as error:  # counted, reported, run goes on
                    print(f"replay failed: {error!r}", file=sys.stderr)
                    self.failed_campaigns += 1
                    continue
                if not self._same(result):
                    self.divergent.append(result)
                delivered += self.seeds_per_campaign
            wall = time.perf_counter() - began
            window.latencies_s.append(wall)
            window.seeds += delivered
            window.unit_rates.append(delivered / wall)
        window.seconds = time.perf_counter() - start
        window.cpu_s = meter.elapsed()
        window.peak_rss_mb = metrics.peak_rss_mb()
        return window

    def verify(self) -> Tuple[int, int]:
        expected = oracle(
            (scenario, seed)
            for scenario, seeds in self.plan for seed in seeds
        )
        reference_errors = self._check(self.reference, expected)
        matching = (self.attempted_campaigns - self.failed_campaigns
                    - len(self.divergent))
        failed = matching * reference_errors
        failed += sum(self._check(result, expected)
                      for result in self.divergent)
        failed += self.failed_campaigns * self.seeds_per_campaign
        return self.attempted_campaigns * self.seeds_per_campaign, failed

    def counters(self) -> Dict[str, float]:
        return self._steals([self.reference, *self.divergent])


class Server:
    """One ``repro serve`` subprocess with private queue/state/cache dirs."""

    def __init__(self, workload: Workload, label: str,
                 trace_dir: Optional[Path] = None) -> None:
        root = workload.work / label
        args = [
            "serve", "127.0.0.1:0", "--distributed",
            "--workers", str(WORKERS),
            "--queue-dir", str(root / "queue"),
            "--state-dir", str(root / "state"),
            "--cache-dir", str(root / "cache"),
        ]
        env = dict(workload.env)
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            # The launcher installs the layer wrappers, then runs the CLI.
            command = [sys.executable, str(ROOT / "perfbench" / "serve.py"),
                       *args]
            env[tracing.ENV_TRACE_DIR] = str(trace_dir)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[1]
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with urllib.request.urlopen(
                    f"{self.url}/v1/health", timeout=5.0
                ) as response:
                    response.read()
                break
            except (urllib.error.URLError, ConnectionError, OSError):
                if time.monotonic() > deadline:
                    self.stop()
                    raise
                time.sleep(0.005)
        self.ready_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Interrupt (the server's clean shutdown), then make sure."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class ServeSmallJobs(Workload):
    name = tracing.SERVE
    operations = "jobs"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.server: Optional[Server] = None
        self.servers = 0
        self.jobs = 0
        self.failed_jobs = 0
        self.completed: List[Tuple[Tuple[int, ...], object]] = []

    def _start(self, trace_dir: Optional[Path] = None) -> Server:
        self.servers += 1
        return Server(self, f"serve-{self.servers}", trace_dir)

    def setup(self) -> List[float]:
        """Starting the server until ``/v1/health`` answers."""
        samples = []
        for _ in range(SETUP_REPEATS):
            if self.server is not None:
                self.server.stop()
            self.server = self._start()
            samples.append(self.server.ready_s)
        return samples

    def run_job(self, remote, seeds: Tuple[int, ...]):
        """Submit one sweep, long-poll until it is done, fetch it."""
        from repro.api import SweepSpec

        spec = SweepSpec(SERVE_SCENARIO, seeds, smoke=True)
        return remote.submit(spec).result(timeout=120.0)

    def measure(self, seconds, min_jobs, tracer) -> Window:
        from repro.service import RemoteClient

        if tracer is not None or self.server is None:
            if self.server is not None:
                self.server.stop()
            self.server = self._start(
                tracer.out_dir if tracer is not None else None
            )
        server = self.server
        lock = threading.Lock()
        finished: List[float] = []
        latencies: List[float] = []

        def client_loop():
            remote = RemoteClient(server.url, timeout=60.0)
            while True:
                with lock:
                    if _window_over(start, seconds, len(latencies), min_jobs):
                        return
                    job = self.jobs
                    self.jobs += 1
                seeds = serve_job_seeds(self.seed, job)
                began = time.perf_counter()
                try:
                    sweep = self.run_job(remote, seeds)
                except Exception as error:  # counted, reported, loop goes on
                    print(f"job failed: {error!r}", file=sys.stderr)
                    with lock:
                        self.failed_jobs += 1
                    continue
                done = time.perf_counter()
                with lock:
                    latencies.append(done - began)
                    finished.append(done)
                    self.completed.append((seeds, sweep))

        window = Window()
        meter = metrics.CpuMeter(live=[server.pid])
        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.seconds = time.perf_counter() - start
        window.cpu_s = meter.elapsed(live=[server.pid])
        self.server.stop()
        self.server = None
        window.peak_rss_mb = metrics.peak_rss_mb()
        window.latencies_s = latencies
        window.seeds = len(latencies) * SERVE_SEEDS_PER_JOB
        # Throughput per batch of ten consecutive completions.
        marks = [start, *sorted(finished)]
        batch = 10
        window.unit_rates = [
            batch * SERVE_SEEDS_PER_JOB / (marks[end] - marks[end - batch])
            for end in range(batch, len(marks), batch)
        ]
        return window

    def verify(self) -> Tuple[int, int]:
        expected = oracle(
            (SERVE_SCENARIO, seed)
            for seeds, _sweep in self.completed for seed in seeds
        )
        wrong = sum(
            1 for seeds, sweep in self.completed
            if sweep_errors(sweep, SERVE_SCENARIO, seeds, expected)
        )
        return self.jobs, wrong + self.failed_jobs

    def counters(self) -> Dict[str, float]:
        return {
            "steals": sum(sweep.steals for _, sweep in self.completed),
            "requeues": sum(sweep.requeues for _, sweep in self.completed),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOAD_TYPES = {
    kind.name: kind for kind in (CampaignCold, CampaignWarm, ServeSmallJobs)
}


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Outcome:
    """Set up, measure and verify one workload.

    Untraced runs report end-to-end metrics from one window.  A traced
    run measures half a window untraced, then half a window with the
    layer wrappers installed, and reports the per-layer metrics of the
    traced half plus the tracing overhead between the two.
    """
    bench = WORKLOAD_TYPES[workload](seed, work)
    outcome = Outcome()
    try:
        if not trace:
            outcome.setup_s = bench.setup()
            outcome.window = bench.measure(seconds, MIN_JOBS, None)
        else:
            if workload == tracing.WARM:
                bench.setup()  # the replays need the filled cache
            plain = bench.measure(seconds / 2, 1, None)
            tracer = tracing.Tracer(work / "trace")
            uninstall = tracing.install(tracer)
            tracer.enabled = True
            try:
                traced = bench.measure(seconds / 2, 1, tracer)
            finally:
                tracer.enabled = False
                uninstall()
                tracer.flush()
            plain_rate = plain.seeds / plain.seconds
            traced_rate = traced.seeds / traced.seconds
            outcome.counters.update({
                "trace.seeds_per_s": traced_rate,
                "trace.overhead_ratio": plain_rate / traced_rate,
                "trace.wrapper_ns_per_call": tracing.wrapper_ns_per_call(),
            })
        outcome.attempted, outcome.failed = bench.verify()
        outcome.counters.update(bench.counters())
        if trace:
            outcome.layers = tracing.layer_metrics(
                tracing.load(work / "trace"), outcome.counters
            )
    finally:
        bench.close()
    return outcome
