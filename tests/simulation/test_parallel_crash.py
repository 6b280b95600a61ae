"""Worker supervision in the process pool: deaths are survived.

A pool worker dying (OOM killer, segfault, ``os.kill``) poisons every
in-flight future with ``BrokenProcessPool``.  The runner must resubmit
the chunks that never completed on a fresh pool — up to the retry
budget — and name the poison chunk in :class:`WorkerCrashError` when
the budget runs out, instead of surfacing the opaque pool error.
"""

import os
import signal
from functools import partial
from pathlib import Path

import pytest

from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS
from repro.simulation.parallel import ParallelRunner, WorkerCrashError


def _die(seed):
    """Every attempt at any seed kills its pool worker outright."""
    os.kill(os.getpid(), signal.SIGKILL)


def _die_once_on_three(marker_dir, seed):
    """Kill the worker on seed 3 exactly once (O_EXCL flag), then heal."""
    if seed == 3:
        flag = Path(marker_dir) / "crashed-once"
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return seed * seed


def _raise_on_three(seed):
    if seed == 3:
        raise ValueError("seed 3 is unwell")
    return seed * seed


class TestWorkerCrashSupervision:
    def test_poison_chunk_raises_worker_crash_error(self):
        runner = ParallelRunner(workers=2, max_attempts=2)
        with pytest.raises(WorkerCrashError, match="presumed poison"):
            runner.map_seeds(_die, [1, 2, 3, 4])

    def test_error_names_the_chunk_and_budget(self):
        # The layout is an input of the pool's chunk mapper only.
        runner = ParallelRunner(workers=2, max_attempts=1)
        with pytest.raises(WorkerCrashError) as info:
            runner._map_process_chunks(_die, [(5, 6), (7,)], 2)
        error = info.value
        assert error.attempts == 1
        assert error.chunk_index in (0, 1)
        assert list(error.seeds) in ([5, 6], [7])
        assert str(error.chunk_index) in str(error)

    def test_transient_crash_is_resubmitted_and_ordered(self, tmp_path):
        """One worker death mid-sweep: the dead worker's chunks rerun
        on a fresh pool and the final results are complete, in seed
        order, with no error surfaced."""
        run = partial(_die_once_on_three, str(tmp_path))
        runner = ParallelRunner(workers=2)
        seeds = [1, 2, 3, 4, 5]
        assert runner.map_seeds(run, seeds) == [s * s for s in seeds]
        assert (tmp_path / "crashed-once").exists()

    def test_default_budget_is_shared_with_the_queue(self):
        runner = ParallelRunner(workers=2, max_attempts=None)
        with pytest.raises(WorkerCrashError) as info:
            runner.map_seeds(_die, [1, 2, 3, 4])
        assert info.value.attempts == DEFAULT_MAX_ATTEMPTS

    def test_seed_exceptions_still_propagate_raise_fast(self):
        """Ordinary exceptions are not worker deaths: no retry, no
        WorkerCrashError wrapper — the original error surfaces."""
        runner = ParallelRunner(workers=2)
        with pytest.raises(ValueError, match="seed 3 is unwell"):
            runner.map_seeds(_raise_on_three, [1, 2, 3, 4])

    def test_bad_max_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ParallelRunner(max_attempts=0)
