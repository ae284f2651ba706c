"""Deterministic task execution for the campaign drivers.

``bench``, ``verify`` and ``fuzz`` each fan independent tasks — (workload,
configuration) cells, (workload, model) buckets and generated-program
seeds — through :func:`run_tasks`, the one run loop they share.  Three
properties make every report byte-identical at any ``--jobs``:

* **one worker** — a driver hands the same bound-method worker over the
  same plain-data tasks whether they run in process or in a pool; pool
  workers are forked from the driver, so they inherit its state instead of
  rebuilding it;
* **ordered merging** — outcomes are returned in task submission order
  regardless of completion order, so aggregation happens in exactly the
  order a serial run uses;
* **per-task error capture** — a worker never lets an exception escape; it
  returns a one-line rendering, and the caller feeds it into its existing
  degradation machinery (``Lab.errors``, campaign oracle errors).

``run_tasks`` also owns the checkpoint journal: journaled tasks are
restored instead of run, and every clean outcome is journaled the moment
it completes.

``jobs=1`` runs tasks in-process, preserving debuggable single-process
behavior (breakpoints, shared state, no pickling) — unless the supervision
policy demands capabilities only a child process can provide (wall-clock
timeouts, chaos injection), in which case a one-worker supervised pool is
used instead.

Supervision (timeouts, hung/killed-worker replacement, bounded retries with
seeded backoff) and the journal itself live in
:mod:`repro.harness.resilience`.
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
    #: ok | restored (value read back from the journal), or the failure
    #: taxonomy: exception | timeout | killed | unpicklable
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


def run_tasks(worker: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: int = 1, policy=None, chaos=None, journal=None,
              keys: Optional[Sequence[str]] = None) -> list[TaskOutcome]:
    """Run ``worker`` over ``tasks``, returning outcomes in task order.

    Each task must be picklable when execution crosses a process boundary
    (``jobs > 1``, a ``policy`` with a wall-clock timeout, or ``chaos``).
    The worker itself never crosses one: worker processes use the ``fork``
    start method where available, so they inherit the worker — a driver's
    bound method, with the driver's state — and the imported modules.

    ``policy`` is a :class:`repro.harness.resilience.SupervisionPolicy`
    (per-task timeouts, bounded retries with seeded backoff); ``chaos`` a
    :class:`repro.harness.resilience.ChaosConfig` for fault-injection
    self-tests.

    ``journal`` (a :class:`repro.harness.resilience.Journal`, with ``keys``
    naming each task's record) makes the run crash-safe: a task whose key
    is already journaled is not run — its outcome carries the journaled
    value with ``kind="restored"`` — and every clean outcome is journaled
    the moment it completes.  A failed outcome (a worker exception, or a
    timeout, killed worker or exhausted retries) is not journaled, so a
    resumed run retries it.

    A ``KeyboardInterrupt`` (SIGINT, or SIGTERM routed through
    :func:`repro.harness.resilience.graceful_signals`) terminates every
    worker and raises
    :class:`repro.harness.resilience.CampaignInterrupted`, counting
    restored tasks as completed.
    """
    from repro.harness.resilience import CampaignInterrupted

    outcomes: list[Optional[TaskOutcome]] = [None] * len(tasks)
    todo: list[int] = []
    for i in range(len(tasks)):
        if journal is not None and keys[i] in journal.completed:
            outcomes[i] = TaskOutcome(i, value=journal.completed[keys[i]],
                                      kind="restored")
        else:
            todo.append(i)

    def finish(outcome: TaskOutcome) -> None:
        # Outcomes arrive indexed among the tasks that ran; journal and
        # return them under the task's own index.
        i = outcome.index = todo[outcome.index]
        outcomes[i] = outcome
        if journal is not None and outcome.error is None:
            journal.record(keys[i], outcome.value)

    needs_pool = ((jobs > 1 and len(todo) > 1) or chaos is not None
                  or (policy is not None and policy.preemptive))
    try:
        if needs_pool:
            from repro.harness.resilience import run_supervised
            run_supervised(worker, [tasks[i] for i in todo], jobs=jobs,
                           policy=policy, chaos=chaos, on_result=finish)
        else:
            for n, i in enumerate(todo):
                finish(_guarded(worker, n, tasks[i]))
    except KeyboardInterrupt:
        done = sum(outcome is not None for outcome in outcomes)
        raise CampaignInterrupted(done, len(tasks)) from None
    return outcomes
