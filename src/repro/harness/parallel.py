"""Deterministic task execution for the experiment drivers.

``bench`` and ``verify`` fan independent cells — (workload, configuration)
and (workload, model) buckets respectively — across worker processes.  Two
properties make the parallel reports byte-identical to the serial ones:

* **ordered merging** — outcomes are returned in task submission order
  regardless of completion order, so aggregation happens in exactly the
  order the serial loop would have used;
* **per-task error capture** — a worker never lets an exception escape; it
  returns the same one-line rendering the serial path would have recorded,
  and the caller feeds it into the existing degradation machinery
  (``Lab.errors``, campaign oracle errors).

``jobs=1`` runs tasks in-process, preserving debuggable single-process
behavior (breakpoints, shared state, no pickling) — unless the supervision
policy demands capabilities only a child process can provide (wall-clock
timeouts, chaos injection), in which case a one-worker supervised pool is
used instead.

Supervision (timeouts, hung/killed-worker replacement, bounded retries with
seeded backoff) lives in :mod:`repro.harness.resilience`; this module is the
stable entry point both drivers call.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

__all__ = ["TaskOutcome", "run_tasks"]


@dataclass
class TaskOutcome:
    """What one task produced: a value, or the error that replaced it."""

    index: int
    value: Any = None
    #: one-line ``TypeName: message`` rendering, None on success
    error: Optional[str] = None
    #: failure taxonomy: ok | exception | timeout | killed | unpicklable
    kind: str = "ok"
    #: how many attempts this outcome consumed (retries count)
    attempts: int = 1
    #: full traceback text for ``exception`` outcomes (workers cannot ship
    #: the exception object itself — it may not be picklable)
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _guarded(worker: Callable[[Any], Any], index: int, task: Any
             ) -> TaskOutcome:
    """Run one task, converting any exception into a picklable outcome.

    The exception object never crosses a process boundary — only its type
    name, message, and formatted traceback do — so exceptions holding
    unpicklable state (open files, locks, lambdas) degrade to one failed
    task instead of crashing the pool.
    """
    try:
        return TaskOutcome(index, value=worker(task))
    except Exception as err:
        try:
            message = f"{type(err).__name__}: {err}"
        except Exception:  # a __str__ that itself raises
            message = f"{type(err).__name__}: <unprintable exception>"
        try:
            tb = traceback.format_exc()
        except Exception:
            tb = None
        return TaskOutcome(index, error=message, kind="exception",
                           traceback=tb)


def _run_serial(worker: Callable[[Any], Any], tasks: Sequence[Any],
                on_result: Optional[Callable[[TaskOutcome], None]] = None,
                ) -> list[TaskOutcome]:
    outcomes: list[TaskOutcome] = []
    for i, t in enumerate(tasks):
        try:
            outcome = _guarded(worker, i, t)
        except KeyboardInterrupt:
            from repro.harness.resilience import CampaignInterrupted
            raise CampaignInterrupted(completed=i, total=len(tasks)) from None
        outcomes.append(outcome)
        if on_result is not None:
            on_result(outcome)
    return outcomes


def run_tasks(worker: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: int = 1, policy=None, chaos=None,
              on_result: Optional[Callable[[TaskOutcome], None]] = None,
              ) -> list[TaskOutcome]:
    """Run ``worker`` over ``tasks``, returning outcomes in task order.

    ``worker`` must be a module-level function and each task picklable when
    execution crosses a process boundary (``jobs > 1``, a ``policy`` with a
    wall-clock timeout, or ``chaos``).  Worker processes use the ``fork``
    start method where available so they inherit imported modules instead
    of re-importing them.

    ``policy`` is a :class:`repro.harness.resilience.SupervisionPolicy`
    (per-task timeouts, bounded retries with seeded backoff); ``chaos`` a
    :class:`repro.harness.resilience.ChaosConfig` for fault-injection
    self-tests.  ``on_result`` is invoked once per task *as it completes*
    (in completion order, not task order) — the hook the checkpoint journal
    hangs off.

    A ``KeyboardInterrupt`` (SIGINT, or SIGTERM routed through
    :func:`repro.harness.resilience.graceful_signals`) terminates every
    worker and raises
    :class:`repro.harness.resilience.CampaignInterrupted`.
    """
    needs_pool = ((jobs > 1 and len(tasks) > 1) or chaos is not None
                  or (policy is not None and policy.preemptive))
    if not needs_pool:
        return _run_serial(worker, tasks, on_result)
    from repro.harness.resilience import run_supervised
    return run_supervised(worker, tasks, jobs=jobs, policy=policy,
                          chaos=chaos, on_result=on_result)
