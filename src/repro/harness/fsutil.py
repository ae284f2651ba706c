"""Crash-safe filesystem primitives shared by the harness.

Every artifact the harness persists — ``BENCH_*.json`` records, generated
reports, compile-cache entries, checkpoint journals — goes through the same
discipline: write the full content to a temporary file *in the same
directory*, fsync it, then atomically rename over the destination.  A crash
(or SIGKILL) at any instant leaves either the old complete file or the new
complete file, never a torn one.

The same directory-level atomicity carries a second primitive: the
:class:`Lease`, a filesystem mutual-exclusion token that gives a resource
(a journal, say) one writer at a time.  A lease is one JSON file naming its
owner (host, pid, random token) and the time of its last heartbeat.
Acquisition is an ``O_CREAT|O_EXCL`` create (atomic on every filesystem
that matters); takeover of a *stale* lease — dead owner pid, or a heartbeat
older than the TTL — renames the stale file to a tombstone first, which
exactly one stealer can win, then re-acquires.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["Lease", "LeaseInfo", "atomic_write_bytes", "atomic_write_text",
           "atomic_write_json", "fsync_dir"]


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory, making a rename durable.

    Not all platforms/filesystems allow opening a directory for fsync; a
    failure here costs durability of the *rename* (not file contents) and is
    deliberately ignored.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def atomic_write_text(path: Path | str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path | str, obj, indent: int = 2) -> None:
    """Atomically write ``obj`` as JSON with a trailing newline."""
    atomic_write_text(path, json.dumps(obj, indent=indent) + "\n")


# -------------------------------------------------------------------- leases
@dataclass
class LeaseInfo:
    """The decoded contents of a lease file."""

    owner: str      # unique owner token ("host:pid:random")
    host: str
    pid: int
    stamp: float    # unix time of the last heartbeat (diagnostics only)
    #: monotonic-clock reading at the last heartbeat — the staleness basis.
    #: ``None`` for lease files written by older code (wall-clock only).
    mono: Optional[float] = None


class Lease:
    """A heartbeat-refreshed filesystem lease: one writer per resource.

    A process that must be the only writer of a file holds a lease file
    next to it.  The protocol:

    * **acquire** — create the lease file with ``O_CREAT|O_EXCL``.  Exactly
      one process can win; everyone else sees the file exist and backs off.
    * **heartbeat** — the owner periodically rewrites the file (atomic
      temp+rename) with a fresh timestamp via :meth:`refresh`.  ``refresh``
      re-reads the file afterwards and reports ``False`` if the lease was
      stolen out from under the owner — the owner's cue to stop writing the
      guarded resource immediately.
    * **steal** — a lease is *stale* when its owner pid is dead (same-host
      check, free and instant) or its heartbeat is older than ``ttl``
      seconds.  Stealing renames the stale file to a tombstone — an atomic
      operation exactly one stealer can win, because the source vanishes
      for everyone else — then acquires fresh.

    Ties between a slow-but-alive owner's in-flight refresh and a stealer
    resolve in the owner's favor: refresh uses ``os.replace`` (recreating
    the path even if a thief just renamed it away), and a thief verifies
    ownership with :meth:`held` after acquiring and on every heartbeat.
    """

    #: clock used for heartbeat staleness — monotonic, so a wall-clock jump
    #: (NTP step, manual reset) can never mass-expire live leases.  Class
    #: attribute so tests can substitute a mocked clock.  CLOCK_MONOTONIC is
    #: system-wide per boot, so readings compare across processes on a host;
    #: cross-boot leases are caught by the dead-pid check and the
    #: negative-delta guard in :meth:`is_stale`.
    _monotonic = staticmethod(time.monotonic)

    def __init__(self, path: Path | str, ttl: float = 15.0,
                 owner: Optional[str] = None) -> None:
        self.path = Path(path)
        self.ttl = ttl
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.owner = owner or f"{self.host}:{self.pid}:{os.urandom(4).hex()}"

    # ---------------------------------------------------------------- decode
    @staticmethod
    def read(path: Path | str) -> Optional[LeaseInfo]:
        """Decode a lease file; ``None`` if absent or unreadable (a torn or
        garbage lease is treated as absent — it guards nothing)."""
        try:
            record = json.loads(Path(path).read_text(encoding="utf-8"))
            mono = record.get("mono")
            return LeaseInfo(owner=record["owner"], host=record["host"],
                             pid=int(record["pid"]),
                             stamp=float(record["stamp"]),
                             mono=float(mono) if mono is not None else None)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def is_stale(self, info: Optional[LeaseInfo],
                 now: Optional[float] = None) -> bool:
        """A missing lease is stale; so is a dead same-host owner or one
        whose heartbeat is older than the TTL.

        Heartbeat age is measured on the *monotonic* clock (``now``, when
        given, is a monotonic reading): stepping the wall clock forward
        cannot mass-expire live leases, and stepping it back cannot keep a
        dead one alive.  The wall-clock ``stamp`` in the file is
        diagnostics only.  A negative monotonic delta means the lease was
        written in a different boot — stale.  Legacy leases without a
        monotonic reading fall back to the wall-clock stamp.
        """
        if info is None:
            return True
        if info.host == self.host:
            try:
                os.kill(info.pid, 0)
            except ProcessLookupError:
                return True
            except OSError:
                pass  # e.g. EPERM: the pid exists, trust the heartbeat
        if info.mono is None:  # legacy lease file: wall clock is all we have
            return time.time() - info.stamp > self.ttl
        delta = (now if now is not None else self._monotonic()) - info.mono
        return delta > self.ttl or delta < 0

    # --------------------------------------------------------------- protocol
    def _payload(self) -> bytes:
        return (json.dumps({"owner": self.owner, "host": self.host,
                            "pid": self.pid, "stamp": time.time(),
                            "mono": self._monotonic()})
                + "\n").encode("utf-8")

    def try_acquire(self) -> bool:
        """Atomically create the lease; ``False`` if someone holds it."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, self._payload())
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def try_steal(self) -> bool:
        """Take over a stale lease.  ``False`` if the lease is live, or if
        another stealer won the takeover race."""
        info = self.read(self.path)
        if info is None and not self.path.exists():
            return self.try_acquire()
        if info is not None and not self.is_stale(info):
            return False
        # Stale — or a garbage file (info is None but the path exists),
        # which guards nothing and must not block takeover forever.
        tombstone = self.path.with_name(
            f"{self.path.name}.rip-{os.urandom(4).hex()}")
        try:
            os.rename(self.path, tombstone)  # exactly one stealer succeeds
        except OSError:
            return False
        try:
            tombstone.unlink()
        except OSError:
            pass
        return self.try_acquire() and self.held()

    def held(self) -> bool:
        """Does the file on disk still name *us* as the owner?"""
        info = self.read(self.path)
        return info is not None and info.owner == self.owner

    def refresh(self) -> bool:
        """Heartbeat: rewrite the lease with a fresh timestamp.

        Returns ``False`` — and writes nothing further — when the lease no
        longer names us, meaning it was stolen: the caller must stop
        touching the guarded resource.
        """
        if not self.held():
            return False
        atomic_write_bytes(self.path, self._payload())
        return self.held()

    def release(self) -> None:
        """Drop the lease if we still hold it (best effort)."""
        try:
            if self.held():
                self.path.unlink()
        except OSError:
            pass
