"""The file protocols every shared directory in the repo is built on.

The work queue (:mod:`repro.simulation.distributed`), the service's job
store (:mod:`repro.service.persist`) and the sweep result cache
(:mod:`repro.simulation.cache`) coordinate processes — possibly on
different machines — through nothing but files.  This module is the one
implementation of the three primitives they need:

* **atomic JSON publish** (:func:`publish_json` / :func:`read_json`) —
  write a temp file next to the target, then ``os.replace`` it into
  place, so a reader sees the old file or the new one, never half of
  one.  The parent directory must exist: a publish into a directory
  that was removed fails instead of quietly recreating it.
* **exclusive markers** (:func:`create_exclusive`) — an
  ``O_CREAT | O_EXCL`` create succeeds for exactly one of any number of
  racing creators: attempt budgets, repair counts, fault flags and job
  id reservations are all arbitrated this way.
* **leases** (:func:`claim_lease`, :func:`heartbeat_lease`,
  :func:`release_lease`) — a claim is an exclusive create of the lease
  file with the owner id inside; the owner keeps the file's mtime fresh
  (the heartbeat).  A lease that is no longer live is stolen by renaming
  it to a uniquely named tombstone (one rename wins), re-checking the
  tombstone — the file the rename displaced may be a racing stealer's
  fresh lease rather than the corpse that was judged, in which case it
  is linked back into place — and then taking the vacant slot with
  another exclusive create.

A directory that others may be scanning leaves in one step
(:func:`remove_tree`): it is renamed to a dot-prefixed tombstone, which
scanners skip, before it is emptied.

One liveness rule (:func:`owner_live`) decides every lease: it is live
while its mtime is within :func:`lease_steal_threshold` of now and,
when its owner names a pid on this host (the ``host:pid:token`` shape
:func:`owner_id` mints), that pid is alive.  A dead pid is dead at once;
a live pid that stopped heartbeating (a wedged worker) is dead once its
mtime goes stale.  Owners that are free text — ``repro worker
--worker-id`` names — are judged by mtime alone, and an mtime in the
future (clock skew) counts as fresh.

Assumptions.  ``O_EXCL`` creates, ``rename`` and ``link`` are atomic on
local POSIX filesystems; on NFS and similar network filesystems they
are not reliably so, and two claimers may both win.  The pid probe is
only trustworthy when the hostname is unique per pid namespace: two
containers sharing a hostname and a volume would probe each other's
pids in the wrong namespace.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

# Lease mtimes come from the filesystem clock while ages are judged
# against time.time(), and on shared filesystems the two can disagree a
# little in either direction.  A lease is presumed dead only strictly
# beyond TTL + margin, so sub-margin skew never makes a live owner look
# expired.  The margin is 10% of the TTL capped at LEASE_SKEW_MARGIN
# seconds (a second covers realistic mtime granularity and skew; short
# test TTLs stay proportional).
LEASE_SKEW_MARGIN = 1.0

_HOST = socket.gethostname()


def lease_steal_threshold(lease_ttl: float) -> float:
    """Age beyond which a lease is presumed abandoned and stealable."""
    return lease_ttl + min(LEASE_SKEW_MARGIN, 0.1 * lease_ttl)


def owner_id() -> str:
    """A lease owner identity: ``host:pid:token``.

    The host and pid let same-host peers probe the owner's liveness;
    the random token keeps two owners in one process apart.
    """
    return f"{_HOST}:{os.getpid()}:{os.urandom(4).hex()}"


# ---------------------------------------------------------------------------
# atomic JSON files and exclusive markers
# ---------------------------------------------------------------------------

def publish_json(path: Path, payload: object) -> None:
    """Publish ``payload`` at ``path`` atomically (temp + ``os.replace``).

    Never creates ``path``'s parent; on any failure the temp file is
    removed and the error propagates.
    """
    fd, temp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        # One json.dumps call runs the C encoder over the whole payload;
        # json.dump would stream the same bytes through Python chunks.
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def read_json(path: Path) -> Optional[dict]:
    """The JSON object at ``path``, or ``None`` if missing or unreadable."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def create_exclusive(path: Path, content: str = "") -> bool:
    """Create ``path`` holding ``content``; ``False`` if it already exists.

    Exactly one of any number of racing creators gets ``True``.  A
    missing parent directory raises ``FileNotFoundError``.
    """
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        handle.write(content)
    return True


def unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def remove_tree(path: Path) -> None:
    """Remove the directory ``path`` in one step others can see.

    ``rmtree`` empties a tree bottom-up, so a concurrent scanner could
    find its top-level files with subdirectories already gone.  The tree
    is first renamed to a dot-prefixed tombstone beside it; scanners
    skip dot-prefixed entries.  A missing ``path`` is already removed.
    """
    tombstone = path.with_name(f".{path.name}.removing-{os.urandom(4).hex()}")
    try:
        os.rename(path, tombstone)
    except FileNotFoundError:
        return
    except OSError:
        tombstone = path
    shutil.rmtree(tombstone, ignore_errors=True)


# ---------------------------------------------------------------------------
# leases
# ---------------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` exists on this host (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except PermissionError:
        return True  # exists, just not ours
    except OSError:
        return False
    return True


def owner_live(owner: str, mtime: float, lease_ttl: float) -> bool:
    """The liveness rule for a lease held by ``owner`` with ``mtime``."""
    if time.time() - mtime > lease_steal_threshold(lease_ttl):
        return False
    host, _, rest = owner.partition(":")
    pid = rest.partition(":")[0]
    if host == _HOST and pid.isdigit():
        return _pid_alive(int(pid))
    return True


def lease_owner(lease: Path) -> Optional[str]:
    """The owner written in ``lease``, or ``None`` when it is gone."""
    try:
        return lease.read_text().strip()
    except OSError:
        return None


def lease_live(lease: Path, lease_ttl: float) -> bool:
    """Whether ``lease`` exists and is held by a live owner."""
    try:
        mtime = lease.stat().st_mtime
    except OSError:
        return False
    owner = lease_owner(lease)
    return owner is not None and owner_live(owner, mtime, lease_ttl)


def claim_lease(
    lease: Path,
    owner: str,
    lease_ttl: float,
    *,
    live: Optional[Callable[[], bool]] = None,
    keep_tombstone: bool = False,
) -> Optional[str]:
    """Take ``lease`` for ``owner``: ``"fresh"``, ``"stolen"`` or ``None``.

    ``live`` gives the pre-steal verdict on an existing lease (default:
    :func:`lease_live`).  A steal renames the lease to a tombstone
    ``<stem>.stale-<token>`` beside it; ``keep_tombstone`` leaves that
    file behind as a record of the steal, otherwise it is removed once
    the steal resolves.  A tombstone that turns out to hold a live lease
    (a racing stealer's) is put back and never kept.
    """
    if create_exclusive(lease, owner):
        return "fresh"
    if live() if live is not None else lease_live(lease, lease_ttl):
        return None
    tombstone = lease.with_name(
        f"{lease.stem}.stale-{os.urandom(4).hex()}"
    )
    try:
        os.rename(lease, tombstone)
    except OSError:
        return None  # a racing stealer won the rename
    try:
        displaced_live = owner_live(
            tombstone.read_text().strip(), tombstone.stat().st_mtime,
            lease_ttl,
        )
    except OSError:
        displaced_live = True  # no evidence: abandon rather than risk
    if displaced_live:
        try:
            # The same inode goes back, so its owner's heartbeat keeps
            # touching it.
            os.link(tombstone, lease)
        except OSError:
            pass  # slot re-taken; nothing safe left to do
        unlink_quietly(tombstone)
        return None
    claimed = create_exclusive(lease, owner)
    if not keep_tombstone:
        unlink_quietly(tombstone)
    return "stolen" if claimed else None


def heartbeat_lease(lease: Path, owner: str) -> bool:
    """Refresh ``lease``'s mtime; ``False`` when ``owner`` lost it.

    The owner is re-read after the ``utime``: a thief may replace the
    lease between the first read and the refresh, and refreshing the
    thief's lease must still report this owner's claim lost.
    """
    try:
        if lease.read_text().strip() != owner:
            return False
        os.utime(lease)
        return lease.read_text().strip() == owner
    except OSError:
        return False


def release_lease(lease: Path, owner: str) -> None:
    """Remove ``lease`` if ``owner`` still holds it (a thief's stays)."""
    if lease_owner(lease) == owner:
        unlink_quietly(lease)
