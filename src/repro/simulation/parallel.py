"""Parallel multi-seed runtime: fan seeds out over a process pool.

:meth:`ParallelRunner.map_seeds` distributes per-seed runs over a
:class:`~concurrent.futures.ProcessPoolExecutor` and returns their
results **in seed order**, so reducing them with the helpers the
sequential path uses (:func:`~repro.simulation.runner.combine_rates` /
:func:`~repro.simulation.runner.combine_series`) gives, for a
deterministic ``run`` callable, output bit-identical to the sequential
oracle — the property the equivalence suite in ``tests/simulation``
asserts for every registered scenario.

Scheduling is **chunked**: instead of one pool task per seed, seeds are
grouped into contiguous batches and each task runs a whole batch.  One
task per seed pays pool dispatch + pickling once *per seed*, which
dominates for cheap scenarios; batching amortizes that overhead while a
worker's per-process scenario arena (:mod:`repro.simulation.registry`)
is reused across every seed in its batches.  The batch size is always
:func:`auto_chunk_size`, ``ceil(len(seeds) / (workers * 4))`` — four
waves of tasks per worker, enough slack for dynamic load balancing
without per-seed dispatch; it is a tuning value, not an option.
Chunking never changes results: chunks are contiguous, they are
collected in submission order, and the flattened list is exactly the
seed-ordered list the sequential oracle produces.

The ``run`` callable crosses a process boundary, so it must be
picklable: module-level functions and :func:`functools.partial` of them
qualify — every spec produced by :mod:`repro.simulation.registry` is.
An unpicklable one fails the map with the pickler's own error.

``workers <= 1`` always runs sequentially in-process (the oracle), and
so does a one-seed map outside a held pool.  An
``initializer`` (with ``initargs``) runs once per pool worker before
any task — the hook :func:`repro.simulation.sweep.execute_sweep` uses
to materialize the scenario arena once per process.

Each map starts and stops a pool of its own, unless the runner is held
open: inside ``with ParallelRunner(...) as runner:`` the runner forks
its ``workers`` processes on the first map that needs a pool and every
later map runs on them, until the block exits and shuts them down.
That is how :func:`repro.simulation.sweep.execute_campaign` forks a
pool campaign's workers once instead of once per sweep: each worker
imports numpy at most once and keeps every arena it built for the later
sweeps.  The held pool was started with the initializer of the map that
opened it; later maps build their arenas on a worker's first seed.  A
held pool also takes one-seed maps, so nothing the pool's workers
would build lands in the caller and, by fork, in every
pool started after it.

Worker supervision: a pool worker dying — OOM-killed, segfaulted,
SIGKILLed — breaks the whole :class:`ProcessPoolExecutor` and poisons
every in-flight future with ``BrokenProcessPool``.  The runner catches
that, rebuilds the pool, and resubmits exactly the chunks that never
completed, one chunk per round, so each later crash is the fault of the
one chunk that ran; a held pool that breaks is replaced for the retry
rounds and every later map.  A chunk that crashes alone
``max_attempts`` times (the same budget the distributed queue applies
per seed) raises :class:`WorkerCrashError` naming the chunk and its
seeds, instead of the opaque ``BrokenProcessPool``.  Ordinary
exceptions raised *by* a seed are not retried here — they propagate
raise-fast as before (the distributed backend and ``on_error="collect"``
own seed-level error handling).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS

T = TypeVar("T")


class WorkerCrashError(RuntimeError):
    """A pool worker kept dying on the same chunk until its retry
    budget ran out.

    Names the chunk (index and seeds) so the caller knows exactly
    which work is poison — unlike the bare ``BrokenProcessPool`` it
    replaces, which says only that *some* worker died *somewhere*.
    """

    def __init__(
        self, chunk_index: int, seeds: Sequence[int], attempts: int,
    ) -> None:
        self.chunk_index = int(chunk_index)
        self.seeds = tuple(int(seed) for seed in seeds)
        self.attempts = int(attempts)
        super().__init__(
            f"process-pool worker crashed on chunk {self.chunk_index} "
            f"(seeds {list(self.seeds)}) in each of {self.attempts} "
            f"attempt(s); the chunk is presumed poison"
        )


@dataclass(frozen=True)
class RunTiming:
    """Wall-clock accounting of one multi-seed map."""

    wall_seconds: float
    seeds: int
    workers: int
    backend: str
    chunk_size: int = 1

    def seeds_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.seeds / self.wall_seconds


def default_workers() -> int:
    """Worker count when none is given: one per CPU, at least one."""
    return max(1, os.cpu_count() or 1)


def auto_chunk_size(seeds: int, workers: int) -> int:
    """The pool's batch size: four waves of tasks per worker.

    ``ceil(seeds / (workers * 4))`` keeps every worker busy with a few
    tasks (so a slow chunk can be balanced around) while still
    amortizing dispatch overhead over multiple seeds per task.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return max(1, math.ceil(seeds / (workers * 4)))


def _chunked(seeds: Sequence[int], chunk_size: int) -> List[Tuple[int, ...]]:
    """Contiguous seed batches, preserving order: the pool's tasks.

    (Queued runs use :func:`repro.sched.shrinking_chunks` instead;
    chunking never changes a result.)
    """
    return [
        tuple(seeds[start:start + chunk_size])
        for start in range(0, len(seeds), chunk_size)
    ]


def _run_chunk(run: Callable[[int], T], seeds: Sequence[int]) -> List[T]:
    """One pool task: a batch of seeds through the same run callable."""
    return [run(seed) for seed in seeds]


@dataclass
class ParallelRunner:
    """Multi-seed runner over a process pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` means one per CPU.  ``workers <= 1`` runs
        sequentially (the oracle path).
    initializer / initargs:
        Run once per pool worker before its first task, or once in the
        caller on the sequential path; they must be picklable.  A held
        pool keeps the pair it was started with.
    max_attempts:
        Times a chunk running alone may kill its pool worker
        (``BrokenProcessPool``) before :class:`WorkerCrashError`;
        ``None`` means :data:`DEFAULT_MAX_ATTEMPTS`.  Seed exceptions
        are never retried by the runner — they propagate raise-fast.

    Used as a context manager, the runner holds one pool for every map
    inside the ``with`` block (see the module docstring).
    """

    workers: Optional[int] = None
    initializer: Optional[Callable[..., None]] = None
    initargs: Tuple = ()
    max_attempts: Optional[int] = None
    last_timing: Optional[RunTiming] = field(
        default=None, init=False, repr=False, compare=False
    )
    _held: bool = field(default=False, init=False, repr=False, compare=False)
    _executor: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers is None:
            self.workers = default_workers()
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelRunner":
        self._held = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._held = False
        self._drop_executor()

    def _holds_pool(self) -> bool:
        """True while a ``with`` block holds this runner's process pool."""
        return self._held and self.workers > 1

    def _drop_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    def map_seeds(
        self, run: Callable[[int], T], seeds: Sequence[int]
    ) -> List[T]:
        """Per-seed results, in seed order, timed into ``last_timing``."""
        if not seeds:
            raise ValueError("need at least one seed")
        workers = min(self.workers or 1, len(seeds))
        # auto_chunk_size cuts at least ``workers`` chunks, so every
        # worker of a pooled map gets one.
        chunk_size = (
            auto_chunk_size(len(seeds), workers) if workers > 1 else 1
        )
        # A held pool is already paid for, so it takes one-seed maps
        # too (see the module docstring).
        pooled = workers > 1 or self._holds_pool()
        start = time.perf_counter()
        if pooled:
            chunks = _chunked(seeds, chunk_size)
            results = [
                result
                for batch in self._map_process_chunks(run, chunks, workers)
                for result in batch
            ]
        else:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            results = [run(seed) for seed in seeds]
        self.last_timing = RunTiming(
            wall_seconds=time.perf_counter() - start,
            seeds=len(seeds),
            workers=workers,
            backend="process" if pooled else "sequential",
            chunk_size=chunk_size,
        )
        return results

    # ------------------------------------------------------------------
    def _process_pool(self, workers: int) -> ProcessPoolExecutor:
        """The held pool (started on first use), or a new one for one
        round of one map."""
        if not self._holds_pool():
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        if self._executor is None:
            # Sized for the runner, not this map: later maps may need
            # every worker.
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        return self._executor

    def _map_process_chunks(
        self,
        run: Callable[[int], T],
        chunks: List[Tuple[int, ...]],
        workers: int,
    ) -> List[List[T]]:
        """Chunk results in order, surviving pool-worker deaths.

        The first round submits every chunk.  A dead worker breaks the
        pool and poisons all in-flight futures with
        ``BrokenProcessPool``; completed work is never re-run, and the
        chunks that did not complete are resubmitted to a fresh pool
        one per round from then on.  Only a chunk that broke the pool
        while it ran alone is charged an attempt, so an innocent chunk
        in flight beside a poison one is never blamed for its crash.
        A chunk that crashed alone ``max_attempts`` times is presumed
        poison and raises :class:`WorkerCrashError` naming it.
        Ordinary seed exceptions propagate immediately.
        """
        budget = (
            self.max_attempts if self.max_attempts is not None
            else DEFAULT_MAX_ATTEMPTS
        )
        results: List[Optional[List[T]]] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        remaining = list(range(len(chunks)))
        solo = False
        pool = None
        try:
            while remaining:
                batch = remaining[:1] if solo else remaining
                if pool is None:
                    pool = self._process_pool(min(workers, len(batch)))
                crashed: List[int] = []
                futures = []
                for index in batch:
                    try:
                        future = pool.submit(_run_chunk, run, chunks[index])
                    except BrokenProcessPool:
                        # A held pool breaks between maps when an idle
                        # worker dies; this chunk never ran.
                        crashed.append(index)
                    else:
                        futures.append((index, future))
                for index, future in futures:
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        # The pool died under this chunk (or before it
                        # ever started); resubmit it.
                        crashed.append(index)
                remaining = sorted(crashed) + remaining[len(batch):]
                if not crashed:
                    continue
                # A broken pool is replaced for the retry rounds (a held
                # one for every later map too).
                if pool is self._executor:
                    self._drop_executor()
                else:
                    pool.shutdown(wait=True)
                pool = None
                solo = True
                if len(futures) == 1 and futures[0][0] in crashed:
                    index = futures[0][0]
                    attempts[index] += 1
                    if attempts[index] >= budget:
                        raise WorkerCrashError(
                            index, chunks[index], attempts[index],
                        )
        finally:
            if pool is not None and pool is not self._executor:
                pool.shutdown(wait=True)
        return [batch for batch in results if batch is not None]
