"""Layer tracing from outside the program under test.

:func:`install` replaces the public calls at each layer boundary of
``repro`` with timing wrappers, from the benchmark's own files, so no
source file of the program changes.  A :class:`Tracer` keeps what they
record in memory:

* **spans** for boundary calls that happen a few thousand times per run
  (sweep execution, pool maps, queue claims, HTTP round trips): name,
  id, parent id, start and end on the system-wide monotonic clock, and
  a small outcome record;
* **leaves** for hot calls (the trust kernels, cache keys and reads):
  count, total time and successful outcomes, aggregated per parent
  span, because one span per call would cost more than the call.

Pool workers and queue workers are forked, so they inherit the wrappers
and the span that was open in the forking thread becomes the parent of
everything they record.  Each process writes its records to
``<out_dir>/trace-<pid>-<salt>.json`` when it ends (multiprocessing's
exit finalizers, also on the SIGTERM a coordinator sends its idle
workers); :func:`load` merges the files and :func:`layer_metrics`
reduces them to the per-layer metrics named in :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib.abc
import itertools
import json
import multiprocessing.util
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

COLD = "campaign-cold"
WARM = "campaign-warm"
SERVE = "serve-small-jobs"
WORKLOADS = (COLD, WARM, SERVE)

# The directory a traced server process writes its records to.
ENV_TRACE_DIR = "PERFBENCH_TRACE_DIR"


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the workloads it must (not) move on.

    ``moves`` lists the workloads where the metric must be non-zero,
    ``bypassed`` those where it must be zero: the workload exercises a
    different mechanism, or the counter measures waste that should not
    happen.  A workload in neither set is unconstrained.
    """

    name: str
    unit: str
    moves: Tuple[str, ...] = ()
    bypassed: Tuple[str, ...] = ()


def _pair(prefix, moves, bypassed=()):
    return [
        LayerMetric(f"{prefix}.count", "count", moves, bypassed),
        LayerMetric(f"{prefix}.busy_ms", "ms", moves, bypassed),
    ]


_CAMPAIGNS = (COLD, WARM)

LAYER_METRICS: List[LayerMetric] = [
    *_pair("registry.seed_run", (COLD, SERVE), (WARM,)),
    *_pair("registry.arena_build", (COLD, SERVE), (WARM,)),
    *_pair("core.rank", (COLD,), (WARM,)),
    *_pair("core.trust_update", (COLD,), (WARM,)),
    *_pair("core.chain", (COLD,), (WARM,)),
    *_pair("socialnet.load_network", (COLD, SERVE)),
    *_pair("iotnet.exchange", (COLD,), (WARM, SERVE)),
    *_pair("parallel.map", (COLD,), (WARM, SERVE)),
    LayerMetric("parallel.worker_start.wait_ms", "ms", (COLD,), (WARM, SERVE)),
    LayerMetric("parallel.idle_ms", "ms", (COLD,), (WARM, SERVE)),
    *_pair("cache.key", (WARM,)),
    *_pair("cache.get", (WARM,)),
    LayerMetric("cache.hit_ratio", "ratio", (WARM,)),
    *_pair("cache.put", (COLD, SERVE), (WARM,)),
    LayerMetric("cache.put.failed", "count", (), WORKLOADS),
    LayerMetric("sweep.execute.self_ms", "ms", (WARM,)),
    *_pair("export.payload", (SERVE,)),
    LayerMetric("distributed.enqueue.busy_ms", "ms", (SERVE,), _CAMPAIGNS),
    *_pair("distributed.claim", (SERVE,), _CAMPAIGNS),
    LayerMetric("distributed.claim.success_ratio", "ratio", (SERVE,),
                _CAMPAIGNS),
    *_pair("distributed.heartbeat", (SERVE,), _CAMPAIGNS),
    *_pair("distributed.mark_done", (SERVE,), _CAMPAIGNS),
    LayerMetric("distributed.collect.busy_ms", "ms", (SERVE,), _CAMPAIGNS),
    LayerMetric("distributed.repair.count", "count", (SERVE,), _CAMPAIGNS),
    LayerMetric("distributed.steals", "count", (), WORKLOADS),
    LayerMetric("distributed.requeues", "count", (), WORKLOADS),
    LayerMetric("distributed.worker_start.wait_ms", "ms", (SERVE,),
                _CAMPAIGNS),
    LayerMetric("distributed.coordinator.detect_wait_ms", "ms", (SERVE,),
                _CAMPAIGNS),
    LayerMetric("service.submit.count", "count", (SERVE,), _CAMPAIGNS),
    LayerMetric("service.submit.p50_ms", "ms", (SERVE,), _CAMPAIGNS),
    LayerMetric("service.status.count", "count", (SERVE,), _CAMPAIGNS),
    LayerMetric("service.result.count", "count", (SERVE,), _CAMPAIGNS),
    LayerMetric("service.result.p50_ms", "ms", (SERVE,), _CAMPAIGNS),
    LayerMetric("service.requests_per_job", "ratio", (SERVE,), _CAMPAIGNS),
    LayerMetric("service.queue_wait_ms", "ms", (SERVE,), _CAMPAIGNS),
    *_pair("service.journal", (SERVE,), _CAMPAIGNS),
    *_pair("service.lease", (SERVE,), _CAMPAIGNS),
    LayerMetric("trace.seeds_per_s", "seeds/s", WORKLOADS),
    LayerMetric("trace.overhead_ratio", "ratio", WORKLOADS),
    LayerMetric("trace.wrapper_ns_per_call", "ns", WORKLOADS),
    LayerMetric("trace.core_overhead_ms", "ms", (COLD,), (WARM,)),
]


def bypass_violations(workload: str, values: Dict[str, float]) -> List[str]:
    """Every metric that breaks its moves/bypassed expectation."""
    problems = []
    for metric in LAYER_METRICS:
        value = values.get(metric.name)
        if value is None:
            problems.append(f"{metric.name}: not reported")
        elif workload in metric.moves and value == 0:
            problems.append(f"{metric.name}: 0, expected non-zero")
        elif workload in metric.bypassed and value != 0:
            problems.append(f"{metric.name}: {value}, expected 0")
    return problems


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------

def _exit_on_sigterm(signum, frame):
    # Turn terminate() into a normal exit so the exit finalizers flush.
    raise SystemExit(0)


class _ThreadState:
    """One thread's open-span stack and leaf aggregates."""

    __slots__ = ("stack", "leaves")

    def __init__(self) -> None:
        self.stack: List[Optional[int]] = [None]
        self.leaves: Dict[Tuple[str, Optional[int]], List[int]] = {}


class Tracer:
    """In-memory span and leaf recorder of one process (and its forks).

    Leaf aggregates live per thread, so the hot path takes no lock.
    """

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self.spans: List[tuple] = []
        self.forked_at_ns: Optional[int] = None
        self.inherited_parent: Optional[int] = None
        self._new_ids()
        os.register_at_fork(after_in_child=self._after_fork)
        multiprocessing.util.register_after_fork(
            self, Tracer._after_process_start
        )

    def _new_ids(self) -> None:
        self._salt = int.from_bytes(os.urandom(4), "big")
        self._ids = itertools.count(1)

    # -- fork handling ---------------------------------------------------
    def _after_fork(self) -> None:
        """In a forked child: its parent is the span open at the fork.

        Only the forking thread survives a fork; its stack stays, so
        the child's spans hang under the span that was open there.
        """
        if not self.enabled:
            return
        self.forked_at_ns = time.perf_counter_ns()
        self._lock = threading.Lock()  # another thread may have held it
        state = self.state()
        self.inherited_parent = state.stack[-1]
        state.leaves = {}
        self._states = [state]
        self.spans = []
        self._new_ids()

    def _after_process_start(self) -> None:
        """In a multiprocessing child: flush when the process ends."""
        if not self.enabled:
            return
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)
        signal.signal(signal.SIGTERM, _exit_on_sigterm)

    # -- recording -------------------------------------------------------
    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def new_id(self) -> int:
        return (self._salt << 32) | next(self._ids)

    def record(self, name, span_id, parent, start, end, extra=None) -> None:
        self.spans.append((name, span_id, parent, start, end, extra))

    def span(self, name: str, fn: Callable,
             outcome: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``outcome(args, result)`` returns the span's extra record.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.state().stack
            parent = stack[-1]
            span_id = tracer.new_id()
            stack.append(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = outcome(args, result) if outcome else None
                tracer.record(name, span_id, parent, start, end, extra)

        return traced

    def leaf(self, name: str, fn: Callable,
             ok: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to add to its parent span's aggregate:
        ``[calls, total ns, successful calls]``.

        ``ok(result)`` says whether a call that returned succeeded; a
        call that raised never counts as successful.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer.state()
            key = (name, state.stack[-1])
            succeeded = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                succeeded = 1 if ok is None or ok(result) else 0
                return result
            finally:
                elapsed = clock() - start
                entry = state.leaves.get(key)
                if entry is None:
                    state.leaves[key] = [1, elapsed, succeeded]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += succeeded

        return traced

    # -- output ----------------------------------------------------------
    def flush(self) -> None:
        """Write this process's records; call with recording disabled."""
        leaves: Dict[Tuple[str, Optional[int]], List[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (count, total, ok) in list(state.leaves.items()):
                entry = leaves.setdefault(key, [0, 0, 0])
                entry[0] += count
                entry[1] += total
                entry[2] += ok
            state.leaves = {}
        spans, self.spans = self.spans, []
        if not spans and not leaves:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"trace-{os.getpid()}-{self._salt:08x}.json"
        payload = {
            "pid": os.getpid(),
            "forked_at_ns": self.forked_at_ns,
            "inherited_parent": self.inherited_parent,
            "spans": spans,
            "leaves": [
                [name, parent, *entry]
                for (name, parent), entry in leaves.items()
            ],
        }
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(payload))
        os.replace(temp, path)


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

class _PatchingLoader(importlib.abc.Loader):
    """A module's own loader, followed by the patches for that module."""

    def __init__(self, loader, patches: List[Callable]) -> None:
        self._loader = loader
        self._patches = patches

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        for patch in self._patches:
            patch(module)


class _AfterImport(importlib.abc.MetaPathFinder):
    """Patch each named module right after its first import.

    Installing the wrappers must not import anything: a module the
    benchmark process loads early is inherited by every forked worker,
    which would spare the workers imports (numpy among them) that the
    untraced workloads pay, and make traced runs faster than untraced.
    """

    def __init__(self, pending: Dict[str, List[Callable]]) -> None:
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        patches = self.pending.pop(fullname, None)
        if patches is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, patches)
                return spec
        return None


def _replace_function(module, attr: str, wrapper_for: Callable) -> Callable:
    """Swap ``module.attr`` and every ``repro`` module's by-name import
    of it for ``wrapper_for(original)``; returns an undo callable.

    Modules imported later bind the wrapper themselves.
    """
    original = getattr(module, attr)
    wrapped = wrapper_for(original)
    swapped = []
    for other in list(sys.modules.values()):
        if other is None or not getattr(other, "__name__", "").startswith(
            "repro"
        ):
            continue
        if getattr(other, attr, None) is original:
            setattr(other, attr, wrapped)
            swapped.append(other)

    def undo():
        for other in swapped:
            setattr(other, attr, original)

    return undo


def _replace_method(cls, attr: str, wrapper_for: Callable) -> Callable:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        replacement = staticmethod(wrapper_for(raw.__func__))
    elif isinstance(raw, classmethod):
        replacement = classmethod(wrapper_for(raw.__func__))
    else:
        replacement = wrapper_for(raw)
    setattr(cls, attr, replacement)
    return lambda: setattr(cls, attr, raw)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer call; returns a callable that unwraps.

    Modules already imported are patched at once, the others when they
    are first imported (in this process or in a forked child).
    """
    span, leaf = tracer.span, tracer.leaf
    undo: List[Callable] = []
    patches: Dict[str, List[Callable]] = {}

    def on(module_name, patch):
        patches.setdefault(f"repro.{module_name}", []).append(patch)

    def method(module_name, cls_name, attr, wrapper_for):
        on(module_name, lambda module: undo.append(_replace_method(
            getattr(module, cls_name), attr, wrapper_for)))

    def function(module_name, attr, wrapper_for):
        on(module_name, lambda module: undo.append(
            _replace_function(module, attr, wrapper_for)))

    # registry: seed runs, with arena builds split out as their own span
    # (warm_arena builds exactly what the seed's first run would build).
    def patch_registry(registry):
        original_warm = registry.warm_arena

        def build_arena(name, params):
            if not tracer.enabled:
                return original_warm(name, params)
            before = registry.arena_store_size()
            start = time.perf_counter_ns()
            original_warm(name, params)
            if registry.arena_store_size() > before:
                tracer.record("registry.arena_build", tracer.new_id(),
                              tracer.state().stack[-1], start,
                              time.perf_counter_ns())

        def seed_run(original):
            @functools.wraps(original)
            def run(name, params, seed):
                build_arena(name, params)
                return original(name, params, seed)
            return span("registry.seed_run", run)

        def initializer(original):
            @functools.wraps(original)
            def warm(name, params):
                build_arena(name, params)
            return span("parallel.initializer", warm)

        undo.append(_replace_function(registry, "run_reduced", seed_run))
        undo.append(_replace_function(registry, "warm_arena", initializer))

    on("simulation.registry", patch_registry)

    # core: the Eq. 19-22 update, candidate ranking and trust chains.
    rank = lambda f: leaf("core.rank", f)  # noqa: E731
    update = lambda f: leaf("core.trust_update", f)  # noqa: E731
    chain = lambda f: leaf("core.chain", f)  # noqa: E731
    method("core.engine", "DelegationEngine", "rank_candidates", rank)
    method("core.evaluation", "MutualEvaluator", "rank_candidates", rank)
    method("core.policy", "SelectionPolicy", "select", rank)
    method("core.update", "ForgettingUpdater", "update", update)
    for attr in ("trust_update_columns", "forget_scan"):
        function("core.kernels", attr, update)
    for attr in ("combine_chain", "traditional_chain"):
        function("core.transitivity", attr, chain)
    for attr in ("combine_chain_columns", "traditional_chain_columns"):
        function("core.kernels", attr, chain)

    function("socialnet.datasets", "load_network",
             lambda f: span("socialnet.load_network", f))
    method("iotnet.aio", "SyncExchangeEngine", "run_exchanges",
           lambda f: leaf("iotnet.exchange", f))

    # execution: pool, cache, sweep engine, export
    method("simulation.parallel", "ParallelRunner", "map_seeds", lambda f: span(
        "parallel.map", f,
        lambda args, result: {"workers": args[0].last_timing.workers}
        if args[0].last_timing is not None else None))
    method("simulation.cache", "SweepCache", "key",
           lambda f: leaf("cache.key", f))
    method("simulation.cache", "SweepCache", "get_entry",
           lambda f: leaf("cache.get", f, lambda result: result is not None))
    method("simulation.cache", "SweepCache", "put",
           lambda f: leaf("cache.put", f))
    for attr in ("execute_sweep", "execute_campaign"):
        function("simulation.sweep", attr, lambda f: span("sweep.execute", f))
    function("analysis.export", "sweep_to_payload",
             lambda f: span("export.payload", f))
    function("simulation.sweep", "sweep_result_from_payload",
             lambda f: span("export.payload", f))

    # distributed work queue
    function("simulation.distributed", "execute_queued",
             lambda f: span("distributed.execute_queued", f))
    for attr, wrapper_for in (
        ("create", lambda f: span("distributed.enqueue", f)),
        ("claim", lambda f: span(
            "distributed.claim", f,
            lambda args, result: {"ok": result is not None})),
        ("heartbeat", lambda f: leaf("distributed.heartbeat", f, bool)),
        ("mark_done", lambda f: span("distributed.mark_done", f)),
        ("collect", lambda f: span("distributed.collect", f)),
        ("repair", lambda f: leaf("distributed.repair", f)),
    ):
        method("simulation.distributed", "WorkQueue", attr, wrapper_for)

    # HTTP job service: client round trips and server-side bookkeeping
    method("service.remote", "RemoteClient", "submit",
           lambda f: span("service.submit", f))
    method("service.remote", "RemoteSweepHandle", "status_payload",
           lambda f: span("service.status", f))
    method("service.remote", "RemoteSweepHandle", "result",
           lambda f: span("service.result", f))
    method("service.jobs", "JobTable", "submit_sweep", lambda f: span(
        "service.accept", f,
        lambda args, result: {"job": getattr(result, "job_id", None)}))
    method("service.persist", "JobStateStore", "claim", lambda f: span(
        "service.lease", f,
        lambda args, result: {"job": args[1], "ok": bool(result)}))
    method("service.persist", "JobStateStore", "release",
           lambda f: span("service.lease", f))
    for attr in ("save_job", "save_result"):
        method("service.persist", "JobStateStore", attr,
               lambda f: span("service.journal", f))

    pending = {}
    for name, steps in patches.items():
        module = sys.modules.get(name)
        if module is None:
            pending[name] = steps
            continue
        for step in steps:
            step(module)
    hook = _AfterImport(pending)
    sys.meta_path.insert(0, hook)

    def uninstall():
        if hook in sys.meta_path:
            sys.meta_path.remove(hook)
        for step in reversed(undo):
            step()

    return uninstall


def wrapper_ns_per_call(calls: int = 200_000) -> float:
    """Measured cost of one leaf wrapper around a trivial call, in ns."""
    tracer = Tracer(Path(os.devnull))

    def plain(value):
        return value

    wrapped = tracer.leaf("probe", plain)
    tracer.enabled = True
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter_ns()
            for index in range(calls):
                plain(index)
            bare = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for index in range(calls):
                wrapped(index)
            best = min(best, (time.perf_counter_ns() - start - bare) / calls)
    finally:
        tracer.enabled = False
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# merging and reducing
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    id: int
    parent: Optional[int]
    start: int
    end: int
    extra: Optional[dict]
    process: int  # index into Trace.processes

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass
class Process:
    pid: int
    forked_at_ns: Optional[int]
    inherited_parent: Optional[int]


@dataclass
class Trace:
    """All records of one traced run, merged across processes."""

    processes: List[Process] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    # (name, parent) -> [count, total_ns, ok]
    leaves: Dict[Tuple[str, Optional[int]], List[int]] = field(
        default_factory=dict
    )

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


def load(out_dir) -> Trace:
    trace = Trace()
    for path in sorted(Path(out_dir).glob("trace-*.json")):
        payload = json.loads(path.read_text())
        index = len(trace.processes)
        trace.processes.append(Process(
            payload["pid"], payload["forked_at_ns"],
            payload["inherited_parent"],
        ))
        for name, span_id, parent, start, end, extra in payload["spans"]:
            trace.spans.append(
                Span(name, span_id, parent, start, end, extra, index)
            )
        for name, parent, count, total, ok in payload["leaves"]:
            entry = trace.leaves.setdefault((name, parent), [0, 0, 0])
            entry[0] += count
            entry[1] += total
            entry[2] += ok
    return trace


def _union_ms(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total / 1e6


def _top_level(trace: Trace, name: str) -> List[Span]:
    """Spans of ``name`` not nested inside another span of ``name``."""
    by_id = {span.id: span for span in trace.spans}
    top = []
    for span in trace.named(name):
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            top.append(span)
    return top


def _self_ms(trace: Trace, roots: List[Span], children: Dict) -> List[float]:
    """Each root's duration minus its children's; nested spans of the
    root's own name count as the root itself."""
    selves = []
    for root in roots:
        group = {root.id}
        frontier = [root.id]
        while frontier:
            nested = [
                span for parent in frontier
                for span in children.get(parent, ())
                if span.name == root.name
            ]
            frontier = [span.id for span in nested]
            group.update(frontier)
        kids = [
            (span.start, span.end) for parent in group
            for span in children.get(parent, ()) if span.name != root.name
        ]
        leaf_ms = sum(
            entry[1] for (name, parent), entry in trace.leaves.items()
            if parent in group
        ) / 1e6
        selves.append(
            root.ms - _union_ms(kids, root.start, root.end) - leaf_ms
        )
    return selves


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: Trace, counters: Dict[str, float]) -> Dict[str, float]:
    """Reduce a merged trace to :data:`LAYER_METRICS` values.

    ``counters`` carries what the run measured outside the trace: the
    queue's ``steals``/``requeues`` outcome counters and the ``trace.*``
    overhead figures.
    """
    values: Dict[str, float] = {}
    children: Dict[Optional[int], List[Span]] = {}
    for span in trace.spans:
        children.setdefault(span.parent, []).append(span)
    by_id = {span.id: span for span in trace.spans}

    def leaf_totals(name):
        count = total = ok = 0
        for (leaf_name, _parent), entry in trace.leaves.items():
            if leaf_name == name:
                count += entry[0]
                total += entry[1]
                ok += entry[2]
        return count, total / 1e6, ok

    def count_busy(prefix, name, spans=None):
        spans = _top_level(trace, name) if spans is None else spans
        values[f"{prefix}.count"] = float(len(spans))
        values[f"{prefix}.busy_ms"] = float(sum(span.ms for span in spans))

    def leaf_pair(prefix, name):
        count, busy, ok = leaf_totals(name)
        values[f"{prefix}.count"] = float(count)
        values[f"{prefix}.busy_ms"] = busy
        return count, ok

    count_busy("registry.seed_run", "registry.seed_run")
    count_busy("registry.arena_build", "registry.arena_build")
    for name in ("core.rank", "core.trust_update", "core.chain"):
        leaf_pair(name, name)
    count_busy("socialnet.load_network", "socialnet.load_network")
    leaf_pair("iotnet.exchange", "iotnet.exchange")

    # the process pool
    maps = trace.named("parallel.map")
    count_busy("parallel.map", "parallel.map", maps)
    map_ids = {span.id: span for span in maps}
    starts, idle = [], 0.0
    for index, process in enumerate(trace.processes):
        owner = map_ids.get(process.inherited_parent)
        if owner is None:
            continue
        ready = [
            span.end for span in trace.spans
            if span.process == index and span.name == "parallel.initializer"
        ]
        if ready:
            starts.append((min(ready) - owner.start) / 1e6)
    for span in maps:
        workers = (span.extra or {}).get("workers", 1)
        seed_busy = sum(
            seed.ms for seed in trace.named("registry.seed_run")
            if seed.parent == span.id
        )
        idle += max(0.0, span.ms * workers - seed_busy)
    values["parallel.worker_start.wait_ms"] = _mean(starts)
    values["parallel.idle_ms"] = idle

    # the result cache
    leaf_pair("cache.key", "cache.key")
    gets, hits = leaf_pair("cache.get", "cache.get")
    values["cache.hit_ratio"] = hits / gets if gets else 0.0
    puts, stored = leaf_pair("cache.put", "cache.put")
    values["cache.put.failed"] = float(puts - stored)

    values["sweep.execute.self_ms"] = float(sum(
        _self_ms(trace, _top_level(trace, "sweep.execute"), children)
    ))
    count_busy("export.payload", "export.payload")

    # the distributed work queue
    values["distributed.enqueue.busy_ms"] = float(sum(
        span.ms for span in trace.named("distributed.enqueue")
    ))
    claims = trace.named("distributed.claim")
    count_busy("distributed.claim", "distributed.claim", claims)
    won = sum(1 for span in claims if (span.extra or {}).get("ok"))
    values["distributed.claim.success_ratio"] = (
        won / len(claims) if claims else 0.0
    )
    leaf_pair("distributed.heartbeat", "distributed.heartbeat")
    count_busy("distributed.mark_done", "distributed.mark_done")
    values["distributed.collect.busy_ms"] = float(sum(
        span.ms for span in trace.named("distributed.collect")
    ))
    values["distributed.repair.count"] = float(
        leaf_totals("distributed.repair")[0]
    )
    values["distributed.steals"] = float(counters.get("steals", 0))
    values["distributed.requeues"] = float(counters.get("requeues", 0))

    first_claims = []
    for index, process in enumerate(trace.processes):
        if process.forked_at_ns is None:
            continue
        mine = [span.start for span in claims if span.process == index]
        if mine:
            first_claims.append((min(mine) - process.forked_at_ns) / 1e6)
    values["distributed.worker_start.wait_ms"] = _mean(first_claims)

    def under(span, ancestor_id):
        while span is not None:
            if span.parent == ancestor_id:
                return True
            span = by_id.get(span.parent)
        return False

    detect = []
    for run in trace.named("distributed.execute_queued"):
        done = [
            span.end for span in trace.named("distributed.mark_done")
            if under(span, run.id)
        ]
        if done:
            detect.append((run.end - max(done)) / 1e6)
    values["distributed.coordinator.detect_wait_ms"] = _mean(detect)

    # the HTTP job service
    submits = trace.named("service.submit")
    values["service.submit.count"] = float(len(submits))
    values["service.submit.p50_ms"] = _median([span.ms for span in submits])
    statuses = trace.named("service.status")
    values["service.status.count"] = float(len(statuses))
    results = trace.named("service.result")
    values["service.result.count"] = float(len(results))
    values["service.result.p50_ms"] = _median(
        _self_ms(trace, results, children)
    )
    values["service.requests_per_job"] = (
        (len(submits) + len(statuses) + len(results)) / len(submits)
        if submits else 0.0
    )
    accepted = {
        (span.extra or {}).get("job"): span.end
        for span in trace.named("service.accept")
    }
    waits = []
    for span in trace.named("service.lease"):
        extra = span.extra or {}
        if extra.get("ok") and extra.get("job") in accepted:
            waits.append((span.start - accepted[extra["job"]]) / 1e6)
    values["service.queue_wait_ms"] = _mean(waits)
    count_busy("service.journal", "service.journal")
    count_busy("service.lease", "service.lease")

    for name in ("trace.seeds_per_s", "trace.overhead_ratio",
                 "trace.wrapper_ns_per_call"):
        values[name] = float(counters.get(name, 0.0))
    core_calls = sum(
        values[f"{name}.count"]
        for name in ("core.rank", "core.trust_update", "core.chain")
    )
    values["trace.core_overhead_ms"] = (
        core_calls * values["trace.wrapper_ns_per_call"] / 1e6
    )
    return values
