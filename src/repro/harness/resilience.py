"""Crash-safe campaign machinery: supervision, retries, journals, chaos.

The campaign drivers (``bench``/``verify``/``fuzz``) run long campaigns
whose unit of work — compile a workload, simulate hundreds of thousands of
cycles — can wedge or die: a mispredict storm makes a cell pathological, a
worker process is OOM-killed, the whole campaign catches a SIGKILL.  The
verify campaign checks the *simulated architecture* against injected
faults; this module hardens the *harness running it*:

* :class:`SupervisionPolicy` + :func:`run_supervised` — the process pool
  behind :func:`repro.harness.parallel.run_tasks`: per-task wall-clock
  timeouts, detection and replacement of hung or killed workers, and
  bounded retries with exponential backoff + deterministic seeded jitter.
  Results merge in task order, so a supervised run is byte-identical to a
  clean serial run whenever every task eventually succeeds.

* :class:`Journal` — a crash-safe, append-only checkpoint file.  Each
  completed task is one self-checking JSON line (payload pickled, base64'd,
  SHA-256 guarded), flushed and fsync'd before the campaign moves on.  A
  SIGKILL mid-write leaves a torn tail that loading detects and truncates;
  ``--resume`` then skips every journaled task and re-runs only the rest,
  producing output byte-identical to an uninterrupted run.  ``run_tasks``
  does the restoring and recording.

* :class:`ChaosConfig` — seeded fault injection *into the harness itself*:
  workers randomly die (``os._exit``), hang (sleep past the watchdog), or
  corrupt their state (raise mid-task).  The chaos self-test asserts the
  supervised run still converges to the same bytes as a clean run — the
  harness-level analogue of the verify campaign's broken-shift-buffer
  self-test.

* :class:`CampaignInterrupted` + :func:`graceful_signals` — clean
  SIGINT/SIGTERM shutdown: the pool is drained, the journal is already
  durable, and the CLI reports partial progress and exits 130.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import json
import os
import pickle
import random
import signal
import time
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.harness.fsutil import atomic_write_text
from repro.harness.parallel import TaskOutcome, _guarded

__all__ = [
    "CampaignInterrupted", "ChaosConfig", "ChaosError", "Journal",
    "JournalError", "SupervisionPolicy", "graceful_signals",
    "run_supervised",
]


class CampaignInterrupted(KeyboardInterrupt):
    """A campaign was interrupted (SIGINT/SIGTERM) after ``completed`` of
    ``total`` tasks; subclasses KeyboardInterrupt so an uncaught one still
    reaches the CLI's exit-130 path."""

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(f"interrupted after {completed}/{total} tasks")
        self.completed = completed
        self.total = total


@contextmanager
def graceful_signals():
    """Route SIGTERM to the KeyboardInterrupt path for the enclosed block.

    ``kill <pid>`` then behaves like Ctrl-C: the supervised pool tears its
    workers down, the journal stays durable, and the CLI exits 130.
    """
    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # not in the main thread — leave signals alone
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# --------------------------------------------------------------- supervision
@dataclass
class SupervisionPolicy:
    """Knobs for supervised execution.

    ``retries`` bounds *additional* attempts after the first; a task is
    retried on any failure kind (timeout, killed worker, exception) until
    attempts are exhausted, then recorded as a failed outcome.  Backoff
    before attempt ``n+1`` is ``backoff * 2**(n-1)`` capped at
    ``backoff_cap``, stretched by up to ``jitter`` of itself.  The jitter is
    drawn from a generator seeded by ``(seed, task index, attempt)`` — fully
    deterministic, so a retried campaign replays the exact same schedule and
    stays byte-identical.
    """

    timeout: Optional[float] = None   # per-task wall-clock seconds
    retries: int = 0                  # additional attempts after the first
    backoff: float = 0.5              # base delay before a retry, seconds
    backoff_cap: float = 30.0
    jitter: float = 0.5               # max extra delay, as a fraction
    seed: int = 0                     # jitter determinism

    def attempts_allowed(self) -> int:
        return self.retries + 1

    @property
    def preemptive(self) -> bool:
        """Does this policy need capabilities only a child process pool can
        provide (killing a task mid-run)?  True when a per-task timeout is
        set."""
        return self.timeout is not None

    def delay(self, index: int, attempt: int) -> float:
        """Seconds to wait before re-dispatching ``index`` after failed
        attempt number ``attempt`` (1-based).  Deterministic."""
        rng = random.Random(f"{self.seed}:{index}:{attempt}")
        base = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


class ChaosError(RuntimeError):
    """Raised by a chaos-corrupted worker mid-task."""


@dataclass
class ChaosConfig:
    """Seeded harness-fault injection for the chaos self-test.

    Whether a given (task, attempt) misbehaves — and how — is a pure
    function of ``seed``, so a chaos run is reproducible.  Faults only fire
    while ``attempt <= max_faults``; with ``max_faults`` at or below the
    policy's retry budget every task eventually gets a clean attempt, which
    is what lets the self-test demand byte-identical output.
    """

    seed: int
    kill: float = 0.25       # probability: worker dies silently (os._exit)
    hang: float = 0.20       # probability: worker hangs past the watchdog
    corrupt: float = 0.15    # probability: worker raises mid-task
    max_faults: int = 2      # misbehave only on the first N attempts
    hang_seconds: float = 3600.0

    def misbehave(self, index: int, attempt: int) -> None:
        """Maybe kill/hang/corrupt the calling worker.  Runs in the child."""
        if attempt > self.max_faults:
            return
        roll = random.Random(f"chaos:{self.seed}:{index}:{attempt}").random()
        if roll < self.kill:
            os._exit(77)
        if roll < self.kill + self.hang:
            time.sleep(self.hang_seconds)
            return
        if roll < self.kill + self.hang + self.corrupt:
            raise ChaosError(
                f"injected worker corruption (task {index} attempt {attempt})")


def _worker_main(conn, worker: Callable[[Any], Any],
                 chaos: Optional[ChaosConfig]) -> None:
    """Child process: serve (index, attempt, task) requests until EOF.

    SIGINT is ignored — shutdown is the supervisor's job (it closes the
    pipe or kills the process), so a Ctrl-C hitting the whole process group
    cannot produce worker tracebacks racing the supervisor's own teardown.
    SIGTERM gets its default action back: a forked worker inherits the
    supervisor's :func:`graceful_signals` handler, which would turn the
    SIGTERM that multiprocessing sends leftover workers at exit into a
    KeyboardInterrupt traceback.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # supervisor is gone
        if message is None:
            return
        index, attempt, task = message
        if chaos is not None:
            outcome = _guarded(
                lambda t: (chaos.misbehave(index, attempt), worker(t))[1],
                index, task)
        else:
            outcome = _guarded(worker, index, task)
        outcome.attempts = attempt
        try:
            conn.send(outcome)
        except (EOFError, OSError, BrokenPipeError):
            return
        except Exception as err:  # outcome.value not picklable
            conn.send(TaskOutcome(
                index, kind="unpicklable", attempts=attempt,
                error=f"task result not picklable: "
                      f"{type(err).__name__}: {err}"))


class _Slot:
    """One supervised worker process and what it is currently running."""

    __slots__ = ("proc", "conn", "index", "attempt", "deadline")

    def __init__(self, ctx, worker, chaos) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main,
                                args=(child_conn, worker, chaos), daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.index: Optional[int] = None
        self.attempt = 0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def assign(self, index: int, attempt: int, task: Any,
               timeout: Optional[float]) -> None:
        self.conn.send((index, attempt, task))
        self.index = index
        self.attempt = attempt
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)

    def release(self) -> None:
        self.index = None
        self.attempt = 0
        self.deadline = None

    def destroy(self, graceful: bool = False) -> None:
        """Stop the worker: a ``graceful`` stop asks it to exit and waits
        a moment; one still alive is killed.  Safe to call again after an
        interrupted call."""
        proc = self.proc
        if proc is None:
            return
        if graceful and proc.is_alive():
            try:
                self.conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
        try:
            self.conn.close()
        except OSError:
            pass
        if proc.is_alive():
            proc.join(timeout=0.25 if graceful else 0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5)
        # Release the process object's resources (pidfd etc.) promptly.
        self.proc = None
        try:
            proc.close()
        except Exception:
            pass


def _destroy_all(slots: list[_Slot]) -> bool:
    """Destroy every slot, even when Ctrl-C lands mid-teardown: the
    interrupted ``destroy`` is retried, and it and the rest kill their
    workers without grace.  Returns whether an interrupt landed."""
    interrupted = False
    for slot in slots:
        while True:
            try:
                slot.destroy(graceful=not (interrupted or slot.busy))
                break
            except KeyboardInterrupt:
                interrupted = True
    return interrupted


def _mp_context():
    try:
        return get_context("fork")
    except ValueError:
        return get_context()


def run_supervised(worker: Callable[[Any], Any], tasks: Sequence[Any],
                   jobs: int = 1, policy: Optional[SupervisionPolicy] = None,
                   chaos: Optional[ChaosConfig] = None,
                   on_result: Optional[Callable[[TaskOutcome], None]] = None,
                   ) -> list[TaskOutcome]:
    """Supervised process-pool execution of ``tasks``.

    Workers that exceed the policy's wall-clock timeout are killed and
    replaced; workers that die mid-task (OOM kill, crash, chaos) are
    detected via pipe EOF and replaced; failed attempts are retried with
    seeded exponential backoff until the retry budget runs out, at which
    point the task's outcome records the failure (kind ``timeout`` /
    ``killed`` / ``exception`` / ``unpicklable``) for the caller's
    graceful-degradation machinery.  Outcomes return in task order;
    ``on_result`` sees each task's final outcome as it arrives (completion
    order), which is where ``run_tasks`` journals it.
    """
    policy = policy or SupervisionPolicy()
    total = len(tasks)
    if total == 0:
        return []
    ctx = _mp_context()
    interrupted = False
    results: dict[int, TaskOutcome] = {}
    ready: deque[tuple[int, int]] = deque((i, 1) for i in range(total))
    delayed: list[tuple[float, int, int]] = []  # (ready_at, index, attempt)
    slots: list[_Slot] = []

    def finish(outcome: TaskOutcome) -> None:
        results[outcome.index] = outcome
        if on_result is not None:
            on_result(outcome)

    def failed(index: int, attempt: int, kind: str, detail: str,
               tb: Optional[str] = None) -> None:
        """Retry a failed attempt, or record the exhausted outcome."""
        if attempt < policy.attempts_allowed():
            ready_at = time.monotonic() + policy.delay(index, attempt)
            heapq.heappush(delayed, (ready_at, index, attempt + 1))
            return
        budget = (f" (attempt {attempt}/{policy.attempts_allowed()})"
                  if policy.retries else "")
        finish(TaskOutcome(index, error=f"{detail}{budget}", kind=kind,
                           attempts=attempt, traceback=tb))

    def replace(slot: _Slot) -> _Slot:
        slot.destroy()
        fresh = _Slot(ctx, worker, chaos)
        slots[slots.index(slot)] = fresh
        return fresh

    def dispatch() -> None:
        now = time.monotonic()
        while delayed and delayed[0][0] <= now:
            _, index, attempt = heapq.heappop(delayed)
            ready.append((index, attempt))
        for slot in list(slots):
            if not ready:
                return
            if slot.busy:
                continue
            index, attempt = ready.popleft()
            try:
                slot.assign(index, attempt, tasks[index], policy.timeout)
            except (OSError, BrokenPipeError, EOFError):
                # The idle worker died between tasks — replace it and put
                # the task back without charging an attempt.
                replace(slot)
                ready.appendleft((index, attempt))
            except Exception as err:
                # The *task* would not pickle; no worker can ever run it.
                finish(TaskOutcome(
                    index, kind="unpicklable", attempts=attempt,
                    error=f"task not picklable: {type(err).__name__}: {err}"))

    try:
        slots.extend(_Slot(ctx, worker, chaos)
                     for _ in range(max(1, min(jobs, total))))
        while len(results) < total:
            dispatch()
            busy = [s for s in slots if s.busy]
            now = time.monotonic()
            if not busy:
                if delayed:
                    time.sleep(max(0.0, delayed[0][0] - now))
                continue
            waits = [s.deadline - now for s in busy if s.deadline is not None]
            if delayed:
                waits.append(delayed[0][0] - now)
            wait_for = max(0.0, min(waits)) if waits else None
            arrived = _conn_wait([s.conn for s in busy], wait_for)
            now = time.monotonic()
            for slot in busy:
                if slot.conn in arrived:
                    index, attempt = slot.index, slot.attempt
                    try:
                        outcome = slot.conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-task: SIGKILL, os._exit, segfault.
                        replace(slot)
                        failed(index, attempt, "killed",
                               "worker killed: process died mid-task")
                        continue
                    slot.release()
                    if outcome.error is not None:
                        failed(index, attempt, outcome.kind, outcome.error,
                               outcome.traceback)
                    else:
                        finish(outcome)
                elif slot.deadline is not None and slot.deadline <= now:
                    index, attempt = slot.index, slot.attempt
                    replace(slot)
                    failed(index, attempt, "timeout",
                           f"worker timeout: no result within "
                           f"{policy.timeout:.1f}s wall clock")
    except KeyboardInterrupt:
        interrupted = True
    finally:
        # a second Ctrl-C during teardown must not leave workers running
        interrupted = _destroy_all(slots) or interrupted
    if interrupted:
        raise CampaignInterrupted(completed=len(results), total=total)
    return [results[i] for i in range(total)]


# ------------------------------------------------------------------- journal
class JournalError(Exception):
    """The journal cannot be used: wrong campaign, unreadable header."""


def _jsonable_facets(facets: dict) -> dict:
    """Facets as they round-trip through the JSON header (default=str
    matches :meth:`Journal.make_fingerprint`)."""
    return json.loads(json.dumps(facets, sort_keys=True, default=str))


def _facet_divergence(theirs: Optional[dict], ours: Optional[dict]) -> str:
    """Name the campaign facets that differ between a journal header and
    the current invocation — the actionable half of a fingerprint
    mismatch."""
    if not isinstance(theirs, dict) or not isinstance(ours, dict):
        return "workloads/models/seeds changed?"
    diverged = sorted(k for k in (theirs.keys() | ours.keys())
                      if theirs.get(k) != ours.get(k))
    if not diverged:
        return "workloads/models/seeds changed?"
    details = []
    for key in diverged:
        details.append(f"{key}: {theirs.get(key)!r} -> {ours.get(key)!r}")
    return "diverged " + "; ".join(details)


class Journal:
    """Append-only, crash-safe checkpoint log for a campaign.

    Layout: line one is a JSON header carrying a campaign ``fingerprint``
    (so ``--resume`` refuses to splice results from a *different* campaign
    into this one) and, when provided, the plain ``facets`` dict the
    fingerprint was derived from — which lets a mismatch name the exact
    field that diverged instead of shrugging at a hash.  Every further line
    is one completed task::

        {"key": "grep/minboost3", "sha": <sha256 of data>, "data": <base64
         pickle of the task's result payload>}

    Appends are flushed and fsync'd before :meth:`record` returns, so a
    journaled task survives any crash of the campaign process.  A crash
    *during* an append leaves a torn final line; loading verifies each line
    (newline-terminated, valid JSON, checksum match, payload unpickles) and
    truncates the file back to the last good record, warning once with the
    kept/dropped record counts.  The header itself is written atomically
    (temp + fsync + rename).
    """

    VERSION = 1

    def __init__(self, path: Path | str, fingerprint: str,
                 resume: bool = False,
                 facets: Optional[dict] = None) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.facets = facets
        #: key -> unpickled payload for every journaled task
        self.completed: dict[str, Any] = {}
        self.recovered_bytes = 0  # torn bytes truncated during load
        if resume and self.path.exists():
            good_offset = self._load()
            self._fh = open(self.path, "r+b")
            self._fh.seek(good_offset)
            self._fh.truncate()
        else:
            header = {"journal": "repro-campaign", "version": self.VERSION,
                      "fingerprint": fingerprint}
            if facets is not None:
                header["facets"] = _jsonable_facets(facets)
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.path, json.dumps(header) + "\n")
            self._fh = open(self.path, "ab")

    def _load(self) -> int:
        """Parse the journal, fill :attr:`completed`, and return the byte
        offset just past the last intact record."""
        raw = self.path.read_bytes()
        offset = raw.find(b"\n")
        if offset < 0:
            raise JournalError(f"{self.path}: no journal header")
        try:
            header = json.loads(raw[:offset].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise JournalError(f"{self.path}: unreadable journal header "
                               f"({err})") from None
        if (not isinstance(header, dict)
                or header.get("journal") != "repro-campaign"):
            raise JournalError(f"{self.path}: not a campaign journal")
        if header.get("version") != self.VERSION:
            raise JournalError(f"{self.path}: journal version "
                               f"{header.get('version')} != {self.VERSION}")
        if header.get("fingerprint") != self.fingerprint:
            diverged = _facet_divergence(
                header.get("facets"),
                _jsonable_facets(self.facets)
                if self.facets is not None else None)
            raise JournalError(
                f"{self.path}: journal belongs to a different campaign "
                f"({diverged}) — delete it or drop --resume to start over")
        good = offset + 1
        rest = raw[good:]
        pos = 0
        while True:
            newline = rest.find(b"\n", pos)
            if newline < 0:
                break  # torn tail: final line lost its newline to a crash
            payload = self._parse_record(rest[pos:newline])
            if payload is None:
                break  # torn or corrupt record: discard it and the rest
            self.completed[payload[0]] = payload[1]
            pos = newline + 1
        remainder = rest[pos:]
        dropped = remainder.count(b"\n")
        if remainder and not remainder.endswith(b"\n"):
            dropped += 1
        good += pos
        self.recovered_bytes = len(raw) - good
        if dropped:
            warnings.warn(
                f"{self.path}: journal tail torn or corrupt — kept "
                f"{len(self.completed)} record(s), dropped {dropped} "
                f"({self.recovered_bytes} bytes truncated); the dropped "
                f"task(s) will be recomputed")
        return good

    @staticmethod
    def _parse_record(line: bytes) -> Optional[tuple[str, Any]]:
        try:
            record = json.loads(line.decode("utf-8"))
            data = record["data"]
            if hashlib.sha256(data.encode()).hexdigest() != record["sha"]:
                return None
            return record["key"], pickle.loads(base64.b64decode(data))
        except Exception:
            return None

    def record(self, key: str, payload: Any) -> None:
        """Durably append one completed task.  Safe to call from signal-
        interrupted contexts: the line is fully written + fsync'd or the
        torn tail is discarded on the next load."""
        data = base64.b64encode(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)).decode()
        record = {"key": key,
                  "sha": hashlib.sha256(data.encode()).hexdigest(),
                  "data": data}
        self._fh.write(json.dumps(record).encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    @staticmethod
    def make_fingerprint(**facets) -> str:
        """Stable fingerprint of the facets that define a campaign."""
        text = json.dumps(facets, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()
