"""Multi-seed sweep execution, driven by :class:`repro.api.SweepSpec`.

:func:`execute_sweep` is the engine behind the public API
(:class:`repro.api.Client`) and the ``repro sweep`` CLI: it takes one
:class:`~repro.api.spec.SweepSpec` (*what* to run) plus one
:class:`~repro.api.spec.ExecutionProfile` (*how* to run it), consults
the persistent result cache (:mod:`repro.simulation.cache`) for seeds
already computed, fans the *missing* seeds out — over a
:class:`~repro.simulation.parallel.ParallelRunner` pool or the
shared-directory work queue (:mod:`repro.simulation.distributed`) — and
packages the per-seed results, their mean, the per-metric (or
per-point) variance across seeds, the wall-clock timing, and the cache
/ queue accounting.

:func:`execute_campaign` runs many specs under one profile.  With a pool
profile the sweeps run back to back on one process pool that forks once
per campaign; with the distributed backend every sweep's missing seeds
are enqueued **up front** and one shared worker fleet (plus any
external ``repro worker`` daemons on the same queue dir) drains them
all concurrently — the multi-tenant mode the queue layout was designed
for.  Either way each sweep's results are bit-identical to running it
alone (the campaign equivalence suite asserts ``==``, no tolerance).

Throughput levers, all result-neutral (bit-identical per the
equivalence suite): ``workers`` process-pool fan-out, ``chunk_size``
seed batching, per-worker scenario arenas, the persistent result cache,
and ``backend="distributed"`` work-queue execution with stale-lease
stealing.  See :class:`~repro.api.spec.ExecutionProfile` for the knob
descriptions.
"""

from __future__ import annotations

import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.spec import ExecutionProfile, SweepSpec
from repro.simulation import faults, registry
from repro.simulation.cache import SweepCache
from repro.simulation.parallel import ParallelRunner, RunTiming
from repro.simulation.results import RateSummary, SeriesResult
from repro.simulation.runner import combine_rates, combine_series

Reduced = Union[RateSummary, SeriesResult]


class SweepFailureError(RuntimeError):
    """Seeds exhausted their retry budget and the caller asked to raise.

    Raised when ``on_error="raise"`` and any seed was quarantined, or —
    regardless of mode — when *every* seed of a sweep failed (there is
    nothing to aggregate).  ``failed_seeds`` carries the structured
    failure records (seed, exception type, message, traceback digest,
    attempt count) that ``on_error="collect"`` would have reported in
    :attr:`SweepResult.failed_seeds`.
    """

    def __init__(
        self, scenario: str, failed_seeds: Sequence[Dict[str, object]],
    ) -> None:
        self.scenario = str(scenario)
        self.failed_seeds = list(failed_seeds)
        seeds = [record.get("seed") for record in self.failed_seeds]
        first = self.failed_seeds[0] if self.failed_seeds else {}
        super().__init__(
            f"sweep {self.scenario!r} failed for seed(s) {seeds}: "
            f"{first.get('error_type', 'Exception')}: "
            f"{first.get('message', '')} "
            f"(after {first.get('attempts', '?')} attempt(s))"
        )


def _variance(values: Sequence[float]) -> float:
    """Population variance across seeds (0.0 for a single seed)."""
    count = len(values)
    mean = sum(values) / count
    return sum((value - mean) ** 2 for value in values) / count


@dataclass(frozen=True)
class SweepResult:
    """Everything one multi-seed sweep produced."""

    scenario: str
    kind: str  # "rates" | "series"
    seeds: List[int]
    timing: RunTiming
    per_seed: List[Reduced]
    mean: Reduced
    # rates: variance per rate metric; series: pointwise variance.
    variance: Union[Dict[str, float], List[float]]
    # Persistent-cache accounting for this invocation.  ``cache_errors``
    # counts results that could not be persisted (unwritable cache dir):
    # the sweep is complete, but those seeds will recompute next time.
    cache_enabled: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cache_errors: int = 0
    # Work-queue accounting (zero unless ``backend="distributed"``):
    # how many task files the sweep sharded into, how many were stolen
    # off dead workers' expired leases, and how many requeue events
    # (steals + corrupt-task repairs) the queue absorbed.
    tasks_total: int = 0
    steals: int = 0
    requeues: int = 0
    # The SweepSpec payload this sweep executed (scenario, seeds, smoke,
    # overrides) — rides into the JSON export so an artifact names the
    # exact work it measured.  ``None`` only on results rebuilt from
    # pre-spec artifacts.
    spec: Optional[Dict[str, object]] = None
    # Seeds that exhausted their retry budget, as structured failure
    # records (seed, error_type, message, traceback_digest, attempts),
    # sorted by seed.  ``seeds``/``per_seed``/``mean``/``variance``
    # cover only the seeds that succeeded; the requested seed set is
    # ``seeds`` + the seeds named here (and stays recorded in ``spec``).
    failed_seeds: List[Dict[str, object]] = field(default_factory=list)
    # Per-seed compute wall times in seconds — telemetry for the cost
    # estimator (repro.sched), never part of the bit-identity contract.
    # Cache replays report the runtime the original compute recorded;
    # seeds whose runtime was never measured are absent.
    seed_runtimes: Dict[int, float] = field(default_factory=dict)


def seed_range(count: int, first: int = 1) -> List[int]:
    """The canonical seed list for an ``N``-seed sweep: first..first+N-1."""
    if count < 1:
        raise ValueError("need at least one seed")
    return list(range(first, first + count))


def sweep_result_from_payload(payload: Dict[str, object]) -> SweepResult:
    """Rebuild a :class:`SweepResult` from a sweep export payload.

    The inverse of :func:`repro.analysis.export.sweep_to_payload` —
    ``sweep_to_payload(sweep_result_from_payload(p)) == p`` for any
    payload :func:`~repro.analysis.export.load_sweep` accepts (JSON
    float serialization is lossless, so values survive bit-exactly).
    This is how :class:`repro.service.RemoteClient` hands callers real
    result objects instead of raw dicts.
    """
    kind = payload["kind"]
    if kind == "rates":
        reduced = RateSummary.from_payload
        variance: Union[Dict[str, float], List[float]] = dict(
            payload["variance"]
        )
    elif kind == "series":
        reduced = SeriesResult.from_payload
        variance = list(payload["variance"])
    else:
        raise ValueError(f"bad sweep kind: {kind!r}")
    timing = payload["timing"]
    cache = payload.get("cache") or {}
    distributed = payload.get("distributed") or {}
    return SweepResult(
        scenario=str(payload["scenario"]),
        kind=kind,
        seeds=[int(seed) for seed in payload["seeds"]],
        timing=RunTiming(
            wall_seconds=float(timing["wall_seconds"]),
            seeds=int(timing["seeds"]),
            workers=int(timing["workers"]),
            backend=str(timing["backend"]),
            chunk_size=int(timing["chunk_size"]),
        ),
        per_seed=[reduced(entry) for entry in payload["per_seed"]],
        mean=reduced(payload["mean"]),
        variance=variance,
        cache_enabled=bool(cache.get("enabled", False)),
        cache_hits=int(cache.get("hits", 0)),
        cache_misses=int(cache.get("misses", 0)),
        cache_errors=int(cache.get("errors", 0)),
        tasks_total=int(distributed.get("tasks", 0)),
        steals=int(distributed.get("steals", 0)),
        requeues=int(distributed.get("requeues", 0)),
        spec=payload.get("spec"),
        failed_seeds=list(payload.get("failed_seeds") or []),
        seed_runtimes={
            int(seed): float(runtime)
            for seed, runtime in (
                payload.get("seed_runtimes") or {}
            ).items()
        },
    )


# ---------------------------------------------------------------------------
# the spec-driven engine
# ---------------------------------------------------------------------------

@dataclass
class _SweepPlan:
    """One sweep's prepared state: cache replays done, missing known."""

    spec: SweepSpec
    params: Tuple[Tuple[str, object], ...]
    cache: Optional[SweepCache]
    keys: Dict[int, str]
    collected: Dict[int, Reduced]
    missing: List[int]
    # Per-seed compute wall times: harvested from cache metadata on
    # warm replays, measured by the executor for computed seeds.
    runtimes: Dict[int, float] = field(default_factory=dict)
    start: float = field(default_factory=time.perf_counter)


def _plan(spec: SweepSpec, profile: ExecutionProfile) -> _SweepPlan:
    """Replay every cached seed; list what still needs computing."""
    params = spec.params_key()
    cache_dir = profile.resolved_cache_dir()
    cache = SweepCache(cache_dir) if cache_dir is not None else None
    collected: Dict[int, Reduced] = {}
    keys: Dict[int, str] = {}
    runtimes: Dict[int, float] = {}
    missing = list(spec.seeds)
    if cache is not None:
        keys = SweepCache.keys_for(spec.scenario, params, spec.seeds)
        missing = []
        for seed in spec.seeds:
            entry = cache.get_entry(keys[seed])
            if entry is None:
                missing.append(seed)
            else:
                collected[seed], runtime = entry
                if runtime is not None:
                    runtimes[seed] = runtime
    return _SweepPlan(
        spec=spec, params=params, cache=cache, keys=keys,
        collected=collected, missing=missing, runtimes=runtimes,
    )


def _pool_reduced(
    scenario: str, params: Tuple, seed: int,
) -> Tuple[Reduced, float]:
    """The raise-fast pool entry: one seed, no retries.

    A module-level function so the process pool can pickle it.  Returns
    ``(result, runtime_seconds)`` — the wall time is the scheduler's
    cost telemetry.  The only extra over ``registry.run_reduced`` is
    the ``raise:<seed>`` chaos hook, so fault-injection tests cover the
    process pool too.
    """
    start = time.perf_counter()
    faults.maybe_raise(seed)
    result = registry.run_reduced(scenario, params, seed)
    return result, time.perf_counter() - start


def _guarded_reduced(
    scenario: str, params: Tuple, max_attempts: int, seed: int,
) -> Tuple[str, object, float]:
    """The collecting pool entry: one seed inside an error boundary.

    Returns ``("ok", result, runtime)`` or — after ``max_attempts``
    tries with exponential backoff — ``("failed", failure_record,
    runtime)``, so a poison seed costs its own result and nothing else.
    The runtime covers the successful attempt only (failed attempts are
    not cost telemetry).  Module-level for pickling.
    """
    attempt = 0
    while True:
        attempt += 1
        start = time.perf_counter()
        try:
            faults.maybe_raise(seed)
            result = registry.run_reduced(scenario, params, seed)
            return ("ok", result, time.perf_counter() - start)
        except Exception as error:  # the error boundary
            if attempt >= max_attempts:
                return (
                    "failed",
                    faults.failure_payload(seed, error, attempt),
                    0.0,
                )
            time.sleep(faults.backoff_delay(attempt))


def _run_pool(
    plan: _SweepPlan, profile: ExecutionProfile, runner: ParallelRunner,
) -> Tuple[RunTiming, Dict[int, dict]]:
    """Compute a plan's missing seeds on the campaign's runner.

    Returns the map timing plus the failure records of seeds that
    exhausted their retry budget (always empty under
    ``on_error="raise"``, where the first seed exception propagates
    out of the pool exactly as it always has).
    """
    # Build the scenario's seed-independent arena once per worker,
    # before its first task.  A pool the campaign already holds keeps
    # the initializer it started with; this sweep's arena is then built
    # on a worker's first seed.
    runner.initializer = registry.warm_arena
    runner.initargs = (plan.spec.scenario, plan.params)
    collecting = profile.resolved_on_error() == "collect"
    if collecting:
        run = partial(
            _guarded_reduced, plan.spec.scenario, plan.params,
            profile.resolved_max_attempts(),
        )
    else:
        run = partial(_pool_reduced, plan.spec.scenario, plan.params)
    computed = runner.map_seeds(run, plan.missing)
    failures: Dict[int, dict] = {}
    cache = plan.cache
    warned_unwritable = False
    for seed, outcome in zip(plan.missing, computed):
        if collecting:
            status, value, runtime = outcome
            if status == "failed":
                failures[seed] = value
                continue
            result = value
        else:
            result, runtime = outcome
        plan.collected[seed] = result
        plan.runtimes[seed] = runtime
        if cache is not None:
            try:
                cache.put(plan.keys[seed], result,
                          scenario=plan.spec.scenario, seed=seed,
                          runtime=runtime)
            except OSError as error:
                # An unwritable cache (read-only dir, full disk) must
                # never cost the results that were just computed; it is
                # counted per seed so the export shows exactly how much
                # a rerun will recompute.
                cache.stats.errors += 1
                if not warned_unwritable:
                    warned_unwritable = True
                    warnings.warn(
                        f"sweep cache write to {cache.root} failed "
                        f"({error}); continuing without persisting "
                        f"results",
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return runner.last_timing, failures


def _assemble(
    plan: _SweepPlan,
    timing: Optional[RunTiming],
    queue_cache_errors: int = 0,
    tasks_total: int = 0,
    steals: int = 0,
    requeues: int = 0,
    failures: Optional[Dict[int, dict]] = None,
) -> SweepResult:
    """Reduce a completed plan to its :class:`SweepResult`.

    ``failures`` maps quarantined seeds to their failure records; those
    seeds drop out of ``seeds``/``per_seed``/``mean``/``variance`` and
    surface in ``failed_seeds`` instead.  A sweep whose *every* seed
    failed raises :class:`SweepFailureError` — there is nothing to
    aggregate, in any ``on_error`` mode.
    """
    spec = plan.spec
    registry_spec = spec.registry_spec()
    failures = failures or {}
    seeds = [seed for seed in spec.seeds if seed not in failures]
    if not seeds:
        raise SweepFailureError(
            spec.scenario,
            [failures[seed] for seed in sorted(failures)],
        )
    # Timing describes the seeds that produced results this invocation;
    # total wall clock (map + cache traffic).  Workers/backend/
    # chunk_size come from the map when one ran; an all-hits replay is
    # its own "cache" backend.
    timing = RunTiming(
        wall_seconds=time.perf_counter() - plan.start,
        seeds=len(seeds),
        workers=timing.workers if timing is not None else 1,
        backend=timing.backend if timing is not None else "cache",
        chunk_size=timing.chunk_size if timing is not None else 1,
    )
    per_seed = [plan.collected[seed] for seed in seeds]

    if registry_spec.kind == "rates":
        mean: Reduced = combine_rates(per_seed)
        variance: Union[Dict[str, float], List[float]] = {
            "success_rate": _variance([r.success_rate for r in per_seed]),
            "unavailable_rate": _variance(
                [r.unavailable_rate for r in per_seed]
            ),
            "abuse_rate": _variance([r.abuse_rate for r in per_seed]),
        }
    else:
        mean = combine_series(per_seed)
        variance = [
            _variance([series.values[i] for series in per_seed])
            for i in range(len(mean.values))
        ]

    cache = plan.cache
    return SweepResult(
        scenario=spec.scenario,
        kind=registry_spec.kind,
        seeds=seeds,
        timing=timing,
        per_seed=per_seed,
        mean=mean,
        variance=variance,
        cache_enabled=cache is not None,
        cache_hits=cache.stats.hits if cache is not None else 0,
        cache_misses=cache.stats.misses if cache is not None else 0,
        cache_errors=(
            cache.stats.errors if cache is not None else 0
        ) + queue_cache_errors,
        tasks_total=tasks_total,
        steals=steals,
        requeues=requeues,
        spec=spec.to_payload(),
        failed_seeds=[failures[seed] for seed in sorted(failures)],
        seed_runtimes={
            seed: plan.runtimes[seed]
            for seed in seeds if seed in plan.runtimes
        },
    )


def execute_sweep(
    spec: SweepSpec, profile: Optional[ExecutionProfile] = None
) -> SweepResult:
    """Run one :class:`SweepSpec` under one :class:`ExecutionProfile`.

    The reduction is shared with the sequential oracle, so for the same
    spec the mean is bit-identical no matter the worker count, the
    chunk size, the backend, or whether results were replayed from the
    cache — the equivalence suite's contract.
    """
    profile = profile if profile is not None else ExecutionProfile()
    results = execute_campaign([spec], profile)
    return results[0]


def execute_campaign(
    specs: Sequence[SweepSpec],
    profile: Optional[ExecutionProfile] = None,
    stop=None,
    fleet=None,
    on_sweep=None,
) -> List[SweepResult]:
    """Run many specs under one profile; one result per spec, in order.

    Pool profiles run the sweeps back to back on one process pool,
    forked once for the whole campaign.  The distributed backend
    enqueues every sweep's missing seeds up front and lets one worker
    fleet — ``profile.workers`` local daemons plus any external ``repro
    worker`` daemons on the same ``queue_dir`` — drain all of them
    concurrently, so a regression campaign keeps every worker busy
    instead of idling between scenarios.  Per-sweep results are
    bit-identical to running each spec alone.

    Failure semantics follow ``profile.resolved_on_error()``: under
    ``"collect"`` a sweep with quarantined seeds still returns (the
    failures ride in its ``failed_seeds``, so a campaign with one
    poisoned sweep still yields every other sweep); under ``"raise"``
    the first sweep with failures raises :class:`SweepFailureError`.

    ``stop`` is a zero-argument callable polled before each pool sweep
    starts, and by the queue coordinator between its waits; when it
    turns true the campaign aborts cooperatively — the sweeps not yet
    started skipped, queue directories cleaned — with
    :class:`repro.simulation.distributed.SweepAborted`.

    ``on_sweep`` is called with each :class:`SweepResult`, in spec
    order: as each pool sweep completes, and once the queue has drained
    for the distributed backend.

    ``fleet`` (distributed only) is a
    :class:`~repro.simulation.distributed.LocalFleet` that outlives the
    call, such as one from :func:`open_fleet`; the queued seeds run on
    it when it was opened for the same queue, cache, worker count and
    lease TTL, and on a fleet of their own otherwise.
    """
    profile = profile if profile is not None else ExecutionProfile()
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one sweep spec")
    for spec in specs:
        if not isinstance(spec, SweepSpec):
            raise TypeError(
                f"expected a SweepSpec, got {type(spec).__name__}"
            )
    if not profile.distributed:
        results = _execute_campaign_pool(specs, profile, stop, on_sweep)
    else:
        results = _execute_campaign_distributed(specs, profile, stop, fleet)
        if on_sweep is not None:
            for result in results:
                on_sweep(result)
    if profile.resolved_on_error() == "raise":
        for result in results:
            if result.failed_seeds:
                raise SweepFailureError(
                    result.scenario, result.failed_seeds,
                )
    return results


def _execute_campaign_pool(
    specs: Sequence[SweepSpec],
    profile: ExecutionProfile,
    stop=None,
    on_sweep=None,
) -> List[SweepResult]:
    """The sweeps back to back, every map on one held process pool.

    The pool forks on the first sweep with seeds to compute, so an
    all-hits replay forks nothing, and it is shut down before this
    returns or raises.  A lone sweep does not hold it: nothing forks
    after it, so a one-chunk map may run in the caller as it always has.
    """
    runner = ParallelRunner(
        workers=profile.workers,
        chunk_size=profile.chunk_size,
        max_attempts=profile.max_attempts,
    )
    results: List[SweepResult] = []
    with runner if len(specs) > 1 else nullcontext(runner):
        for spec in specs:
            if stop is not None and stop():
                from repro.simulation.distributed import SweepAborted

                raise SweepAborted(
                    f"campaign cancelled after {len(results)} of "
                    f"{len(specs)} sweeps"
                )
            plan = _plan(spec, profile)
            if plan.missing:
                timing, failures = _run_pool(plan, profile, runner)
            else:
                timing, failures = None, {}
            results.append(_assemble(plan, timing, failures=failures))
            if on_sweep is not None:
                on_sweep(results[-1])
    return results


def open_fleet(profile: ExecutionProfile):
    """A :class:`~repro.simulation.distributed.LocalFleet` for running
    many of ``profile``'s jobs; the caller closes it.  Its workers start
    with the first queued job."""
    from repro.simulation.distributed import LocalFleet

    return LocalFleet(
        profile.queue_dir, profile.resolved_cache_dir(),
        workers=profile.workers, lease_ttl=profile.lease_ttl,
    )


def _execute_campaign_distributed(
    specs: Sequence[SweepSpec],
    profile: ExecutionProfile,
    stop=None,
    fleet=None,
) -> List[SweepResult]:
    from repro.simulation.distributed import QueuedJob, execute_queued

    plans = [_plan(spec, profile) for spec in specs]
    jobs = []
    job_plans = []
    for plan in plans:
        if plan.missing:
            jobs.append(QueuedJob(
                scenario=plan.spec.scenario,
                params=plan.params,
                seeds=tuple(plan.missing),
                spec_payload=plan.spec.to_payload(),
                runtimes=dict(plan.runtimes),
            ))
            job_plans.append(plan)
    outcomes = []
    if jobs:
        cache_root = (
            plans[0].cache.root if plans[0].cache is not None else None
        )
        outcomes = execute_queued(
            jobs,
            workers=profile.workers,
            chunk_size=profile.chunk_size,
            cache_root=cache_root,
            queue_dir=profile.queue_dir,
            lease_ttl=profile.lease_ttl,
            max_attempts=profile.resolved_max_attempts(),
            stop=stop,
            fleet=fleet,
        )
    results: Dict[int, SweepResult] = {}
    for plan, outcome in zip(job_plans, outcomes):
        plan.collected.update(outcome.results)
        plan.runtimes.update(outcome.seed_runtimes)
        timing = RunTiming(
            wall_seconds=outcome.wall_seconds,
            seeds=len(plan.missing),
            workers=profile.workers,
            backend="distributed",
            chunk_size=outcome.chunk_size,
        )
        results[id(plan)] = _assemble(
            plan, timing,
            queue_cache_errors=outcome.cache_errors,
            tasks_total=outcome.tasks,
            steals=outcome.steals,
            requeues=outcome.requeues,
            failures=outcome.failed_seeds,
        )
    # All-hits plans never touched the queue: they are pure replays.
    return [
        results[id(plan)] if id(plan) in results else _assemble(plan, None)
        for plan in plans
    ]
