"""Making sure a run leaves no process behind.

The benchmark starts pools, a server and its queue workers, and the
multiprocessing resource tracker that spawned pools bring along.  Some
of these can outlive the process that started them: the resource
tracker ends only after it reads end-of-file on a pipe, and a server's
queue workers are orphaned if the server is killed.  A run therefore
makes itself the *subreaper* of everything it starts, so orphans are
re-parented to it instead of to init, and before it exits it waits for
every child it still has — which, once none is left, means every
descendant has ended.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import List

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt every orphaned descendant of this process (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            text = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        fields = text[text.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reap() -> bool:
    """Reap every ended child; ``True`` once no child is left."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def _signal_all(signum: int) -> int:
    sent = 0
    for pid in children():
        try:
            os.kill(pid, signum)
            sent += 1
        except ProcessLookupError:
            pass
    return sent


def stop_children(grace: float = 5.0, term: float = 5.0) -> int:
    """Stop and reap every child of this process; the number left over.

    The resource tracker is told to stop first (it ignores SIGTERM and
    ends when its pipe closes).  Children that have not ended after
    ``grace`` seconds get SIGTERM, and ``term`` seconds later SIGKILL.
    The return value counts the children that had to be signalled.
    """
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    signalled = 0
    start = time.monotonic()
    stage = 0
    while not _reap():
        elapsed = time.monotonic() - start
        if stage == 0 and elapsed >= grace:
            signalled = _signal_all(signal.SIGTERM)
            stage = 1
        elif stage == 1 and elapsed >= grace + term:
            signalled = max(signalled, _signal_all(signal.SIGKILL))
            stage = 2
        time.sleep(0.01)
    if signalled:
        print(f"stopped {signalled} leftover process(es)", file=sys.stderr)
    return signalled
