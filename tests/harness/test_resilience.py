"""The supervision layer: timeouts, worker replacement, retries, journals,
chaos injection, and graceful shutdown."""

import json
import multiprocessing
import os
import signal
import time
import warnings
from pathlib import Path

import pytest

from repro.harness import resilience
from repro.harness.resilience import (
    CampaignInterrupted, ChaosConfig, Journal, JournalError,
    SupervisionPolicy, graceful_signals, run_supervised,
)

#: fast retry schedule so the supervision tests don't sleep for real
FAST = dict(backoff=0.01, jitter=0.1)


# Workers must be module-level for pickling across the pool.
def _square(x):
    return x * x


def _sleepy(task):
    value, seconds = task
    time.sleep(seconds)
    return value


def _exit_on_two(x):
    if x == 2:
        os._exit(9)
    return x


def _flaky(task):
    """Fail until the ``needed``-th attempt, tracked via marker files (each
    attempt runs in a fresh worker process, so memory won't do)."""
    x, marker_dir, needed = task
    markers = Path(marker_dir)
    attempt = len(list(markers.glob(f"{x}-*"))) + 1
    (markers / f"{x}-{attempt}").touch()
    if attempt < needed:
        raise RuntimeError(f"flaky task {x} failing attempt {attempt}")
    return x * 10


def _return_lambda(x):
    return lambda: x


def _sigterm_is_default(_):
    return signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


# ------------------------------------------------------------------- policy
def test_policy_backoff_deterministic_and_bounded():
    policy = SupervisionPolicy(retries=5, backoff=0.5, backoff_cap=2.0,
                               jitter=0.5, seed=3)
    delays = [policy.delay(4, attempt) for attempt in range(1, 6)]
    assert delays == [policy.delay(4, attempt) for attempt in range(1, 6)]
    for attempt, delay in enumerate(delays, start=1):
        base = min(2.0, 0.5 * 2 ** (attempt - 1))
        assert base <= delay <= base * 1.5
    # The jitter is per-(task, attempt): sibling tasks don't thunder in herd.
    assert policy.delay(4, 1) != policy.delay(5, 1)


def test_policy_attempt_budget():
    assert SupervisionPolicy().attempts_allowed() == 1
    assert SupervisionPolicy(retries=2).attempts_allowed() == 3


def test_preemptive_property():
    assert not SupervisionPolicy().preemptive
    assert not SupervisionPolicy(retries=3).preemptive
    assert SupervisionPolicy(timeout=1.0).preemptive


# -------------------------------------------------------------- supervision
def test_run_supervised_preserves_order():
    outcomes = run_supervised(_square, list(range(10)), jobs=3)
    assert [o.index for o in outcomes] == list(range(10))
    assert [o.value for o in outcomes] == [i * i for i in range(10)]
    assert all(o.ok and o.attempts == 1 for o in outcomes)


def test_hung_worker_is_killed_and_reported():
    policy = SupervisionPolicy(timeout=0.5)
    tasks = [(0, 0.0), (1, 60.0), (2, 0.0)]
    outcomes = run_supervised(_sleepy, tasks, jobs=2, policy=policy)
    assert outcomes[0].ok and outcomes[2].ok
    assert outcomes[1].kind == "timeout"
    assert "timeout" in outcomes[1].error


def test_killed_worker_is_replaced_and_siblings_survive():
    outcomes = run_supervised(_exit_on_two, [1, 2, 3, 4], jobs=2)
    assert [o.ok for o in outcomes] == [True, False, True, True]
    assert outcomes[1].kind == "killed"
    assert "died mid-task" in outcomes[1].error


def test_retries_eventually_succeed(tmp_path):
    policy = SupervisionPolicy(retries=3, **FAST)
    tasks = [(x, str(tmp_path), 3) for x in range(3)]
    outcomes = run_supervised(_flaky, tasks, jobs=2, policy=policy)
    assert [o.value for o in outcomes] == [0, 10, 20]
    assert all(o.attempts == 3 for o in outcomes)


def test_retry_exhaustion_records_the_budget(tmp_path):
    policy = SupervisionPolicy(retries=2, **FAST)
    outcomes = run_supervised(_flaky, [(7, str(tmp_path), 99)], jobs=1,
                              policy=policy)
    assert outcomes[0].kind == "exception"
    assert "(attempt 3/3)" in outcomes[0].error


def test_unpicklable_result_degrades_to_one_task():
    outcomes = run_supervised(_return_lambda, [1], jobs=1)
    assert outcomes[0].kind == "unpicklable"
    assert "not picklable" in outcomes[0].error


def test_unpicklable_task_fails_without_hanging():
    outcomes = run_supervised(_square, [lambda: 1], jobs=1)
    assert outcomes[0].kind == "unpicklable"
    assert "task not picklable" in outcomes[0].error


# -------------------------------------------------------------------- chaos
def test_chaos_run_converges_to_clean_values():
    clean = [o.value for o in run_supervised(_square, list(range(12)),
                                             jobs=2)]
    chaos = ChaosConfig(seed=5, hang=0.0)  # kills + corruptions, no hangs
    policy = SupervisionPolicy(retries=2, seed=5, **FAST)
    outcomes = run_supervised(_square, list(range(12)), jobs=2,
                              policy=policy, chaos=chaos)
    assert [o.value for o in outcomes] == clean
    assert all(o.ok for o in outcomes)


def test_chaos_hang_is_reaped_by_the_watchdog():
    chaos = ChaosConfig(seed=1, kill=0.0, corrupt=0.0, hang=1.0,
                        max_faults=1, hang_seconds=60.0)
    policy = SupervisionPolicy(timeout=0.4, retries=1, **FAST)
    outcomes = run_supervised(_square, [2, 3], jobs=2, policy=policy,
                              chaos=chaos)
    assert [o.value for o in outcomes] == [4, 9]
    assert all(o.attempts == 2 for o in outcomes)  # hang, reap, clean retry


def test_chaos_never_fires_past_max_faults():
    chaos = ChaosConfig(seed=0, kill=1.0, max_faults=2)
    chaos.misbehave(0, 3)  # would os._exit the test process if it fired


# ---------------------------------------------------------------- interrupts
def test_campaign_interrupted_is_a_keyboard_interrupt():
    err = CampaignInterrupted(3, 10)
    assert isinstance(err, KeyboardInterrupt)
    assert err.completed == 3 and err.total == 10
    assert "3/10" in str(err)


def test_graceful_signals_routes_sigterm_and_restores_handler():
    before = signal.getsignal(signal.SIGTERM)
    with pytest.raises(KeyboardInterrupt):
        with graceful_signals():
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.5)  # let the handler run at a bytecode boundary
    assert signal.getsignal(signal.SIGTERM) is before


def test_second_interrupt_during_teardown_leaves_no_worker(monkeypatch):
    """Ctrl-C interrupts the pool, and a second one lands in the first
    worker's teardown: every worker is still destroyed, and the interrupt
    propagates."""
    def interrupted_wait(*args):
        raise KeyboardInterrupt

    real_destroy = resilience._Slot.destroy
    calls = []

    def destroy(slot, graceful=False):
        calls.append(slot)
        if len(calls) == 1:
            os.kill(os.getpid(), signal.SIGINT)
        real_destroy(slot, graceful)

    monkeypatch.setattr(resilience, "_conn_wait", interrupted_wait)
    monkeypatch.setattr(resilience._Slot, "destroy", destroy)
    with pytest.raises(KeyboardInterrupt):
        run_supervised(_sleepy, [(i, 5) for i in range(3)], jobs=3)
    assert multiprocessing.active_children() == []


def test_pool_workers_drop_the_inherited_sigterm_handler():
    """Forked workers must not keep graceful_signals' handler: the SIGTERM
    multiprocessing sends leftover workers at exit would surface as a
    KeyboardInterrupt traceback from each of them."""
    with graceful_signals():
        outcomes = run_supervised(_sigterm_is_default, [0], jobs=1)
    assert outcomes[0].value is True


# ------------------------------------------------------------------ journal
@pytest.fixture
def fingerprint():
    return Journal.make_fingerprint(command="test", seeds=3)


def test_journal_round_trip(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    journal = Journal(path, fingerprint)
    journal.record("grep/scalar", (1, None))
    journal.record("grep/global", ("x", ["y"]))
    journal.close()
    resumed = Journal(path, fingerprint, resume=True)
    assert resumed.completed == {"grep/scalar": (1, None),
                                 "grep/global": ("x", ["y"])}
    assert resumed.recovered_bytes == 0
    resumed.record("grep/boost1", (3, None))
    resumed.close()
    again = Journal(path, fingerprint, resume=True)
    assert set(again.completed) == {"grep/scalar", "grep/global",
                                    "grep/boost1"}
    again.close()


def test_journal_truncates_torn_tail(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    journal = Journal(path, fingerprint)
    journal.record("a", 1)
    journal.record("b", 2)
    journal.close()
    intact = path.read_bytes()
    # A crash mid-append: half a record, no trailing newline.
    path.write_bytes(intact + b'{"key": "c", "sha": "0123", "da')
    resumed = Journal(path, fingerprint, resume=True)
    assert set(resumed.completed) == {"a", "b"}
    assert resumed.recovered_bytes > 0
    resumed.record("c", 3)  # appends cleanly after the truncation
    resumed.close()
    final = Journal(path, fingerprint, resume=True)
    assert final.completed == {"a": 1, "b": 2, "c": 3}
    final.close()


def test_journal_checksum_guards_each_record(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    journal = Journal(path, fingerprint)
    journal.record("a", 1)
    journal.record("b", 2)
    journal.close()
    header, rec_a, rec_b = path.read_bytes().splitlines(keepends=True)
    # Corrupt record a's payload: it and everything after it is discarded.
    path.write_bytes(header + rec_a.replace(b'"data": "', b'"data": "!')
                     + rec_b)
    resumed = Journal(path, fingerprint, resume=True)
    assert resumed.completed == {}
    resumed.close()


def test_journal_rejects_a_different_campaign(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    Journal(path, fingerprint).close()
    with pytest.raises(JournalError, match="different campaign"):
        Journal(path, "another-fingerprint", resume=True)


def test_journal_rejects_a_non_journal_file(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    path.write_text("hello\nworld\n")
    with pytest.raises(JournalError):
        Journal(path, fingerprint, resume=True)


def test_journal_without_resume_starts_fresh(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    journal = Journal(path, fingerprint)
    journal.record("a", 1)
    journal.close()
    fresh = Journal(path, fingerprint, resume=False)
    assert fresh.completed == {}
    fresh.close()
    assert Journal(path, fingerprint, resume=True).completed == {}


def test_make_fingerprint_is_stable_and_sensitive():
    assert (Journal.make_fingerprint(a=1, b=[2, 3])
            == Journal.make_fingerprint(b=[2, 3], a=1))
    assert (Journal.make_fingerprint(a=1)
            != Journal.make_fingerprint(a=2))


def test_torn_tail_truncation_warns_with_counts(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    journal = Journal(path, fingerprint)
    journal.record("a", 1)
    journal.record("b", 2)
    journal.close()
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"key": "c", "sha": "0123", "da')
    with pytest.warns(UserWarning, match=r"kept 2 record\(s\), dropped 1"):
        Journal(path, fingerprint, resume=True).close()


def test_clean_resume_does_not_warn(tmp_path, fingerprint):
    path = tmp_path / "c.journal"
    journal = Journal(path, fingerprint)
    journal.record("a", 1)
    journal.close()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Journal(path, fingerprint, resume=True).close()


def test_fingerprint_mismatch_names_the_diverged_facet(tmp_path):
    path = tmp_path / "c.journal"
    theirs = dict(command="bench", seeds=3, workloads=["grep"])
    Journal(path, Journal.make_fingerprint(**theirs),
            facets=theirs).close()
    ours = dict(command="bench", seeds=5, workloads=["grep", "awk"])
    with pytest.raises(JournalError) as err:
        Journal(path, Journal.make_fingerprint(**ours), resume=True,
                facets=ours)
    message = str(err.value)
    assert "seeds: 3 -> 5" in message
    assert "workloads: ['grep'] -> ['grep', 'awk']" in message
    assert "command" not in message.split("diverged")[1]


def test_fingerprint_mismatch_without_facets_stays_generic(tmp_path,
                                                           fingerprint):
    path = tmp_path / "c.journal"
    Journal(path, fingerprint).close()
    with pytest.raises(JournalError, match="workloads/models/seeds changed"):
        Journal(path, "another-fingerprint", resume=True)


def test_extra_record_fields_are_ignored(tmp_path, fingerprint):
    # Older journals carried an optional "meta" dict beside each record's
    # checksummed payload; they must still resume, with the field ignored.
    path = tmp_path / "c.journal"
    journal = Journal(path, fingerprint)
    journal.record("a", 1)
    journal.record("b", 2)
    journal.close()
    header, first, second = path.read_bytes().splitlines(keepends=True)
    record = json.loads(first)
    record["meta"] = {"by": "worker-0"}
    path.write_bytes(header + json.dumps(record).encode() + b"\n" + second)
    resumed = Journal(path, fingerprint, resume=True)
    assert resumed.completed == {"a": 1, "b": 2}
    assert resumed.recovered_bytes == 0
    resumed.close()


# ---------------------------------------------- cross-process jitter pinning
def test_retry_jitter_is_deterministic_across_processes():
    # The seeded backoff jitter must be a pure function of (seed, index,
    # attempt) — not of hash randomization, process start time, or any
    # other per-process state.  Compute the same delay grid in two fresh
    # interpreters (different PYTHONHASHSEED to be sure) and in-process.
    import subprocess
    import sys

    snippet = (
        "from repro.harness.resilience import SupervisionPolicy\n"
        "p = SupervisionPolicy(seed=42, backoff=0.25, jitter=0.5)\n"
        "grid = [p.delay(i, a) for i in range(8) for a in range(1, 4)]\n"
        "print(repr(grid))\n"
    )
    outs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + env.get("PYTHONPATH", "").split(os.pathsep))
        result = subprocess.run([sys.executable, "-c", snippet],
                                capture_output=True, text=True, env=env,
                                check=True, cwd=str(Path(__file__).parents[2]))
        outs.append(result.stdout.strip())
    assert outs[0] == outs[1]
    policy = SupervisionPolicy(seed=42, backoff=0.25, jitter=0.5)
    local = repr([policy.delay(i, a)
                  for i in range(8) for a in range(1, 4)])
    assert outs[0] == local
