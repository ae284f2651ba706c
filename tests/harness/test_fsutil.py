"""Tests for the crash-safe write primitives and the filesystem lease
(harness/fsutil.py)."""

import json
import os
import time

import pytest

from repro.harness.fsutil import Lease, atomic_write_bytes, atomic_write_json


def test_atomic_write_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old content, longer than the new content\n")
    atomic_write_json(path, {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}
    assert path.read_text().endswith("}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


# -------------------------------------------------------------------- leases
@pytest.fixture
def path(tmp_path):
    return tmp_path / "journal.lease"


def test_acquire_is_exclusive(path):
    a = Lease(path)
    b = Lease(path)
    assert a.try_acquire()
    assert not b.try_acquire()
    assert a.held() and not b.held()


def test_release_frees_the_lease(path):
    a = Lease(path)
    assert a.try_acquire()
    a.release()
    assert not path.exists()
    assert Lease(path).try_acquire()


def test_release_without_holding_is_a_noop(path):
    a, b = Lease(path), Lease(path)
    assert a.try_acquire()
    b.release()  # b never held it
    assert path.exists() and a.held()


def test_refresh_advances_the_heartbeat(path):
    a = Lease(path, ttl=5.0)
    assert a.try_acquire()
    first = Lease.read(path)
    time.sleep(0.02)
    assert a.refresh()
    assert Lease.read(path).stamp > first.stamp


def test_live_lease_cannot_be_stolen(path):
    a = Lease(path, ttl=60.0)
    assert a.try_acquire()
    thief = Lease(path, ttl=60.0)
    assert not thief.try_steal()
    assert a.held()


def test_stale_heartbeat_is_stolen(path):
    # A lease from a live pid whose heartbeat is ancient: steal it.  (The
    # dead-pid fast path is covered separately; here only the TTL matters.)
    a = Lease(path, ttl=0.05)
    assert a.try_acquire()
    time.sleep(0.12)
    thief = Lease(path, ttl=0.05)
    assert thief.try_steal()
    assert thief.held() and not a.held()


def test_dead_pid_is_stale_immediately(path):
    a = Lease(path, ttl=3600.0)
    assert a.try_acquire()
    # Rewrite the lease naming a dead pid on this host (fork a child that
    # exits immediately; its pid is then guaranteed dead after waitpid).
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    info = json.loads(path.read_text())
    info["pid"] = pid
    atomic_write_bytes(path, (json.dumps(info) + "\n").encode())
    thief = Lease(path, ttl=3600.0)
    assert thief.try_steal()
    assert thief.held()


def test_steal_race_has_exactly_one_winner(path):
    a = Lease(path, ttl=0.01)
    assert a.try_acquire()
    time.sleep(0.05)
    thieves = [Lease(path, ttl=0.01) for _ in range(4)]
    winners = [t for t in thieves if t.try_steal()]
    assert len(winners) == 1
    assert winners[0].held()


def test_owner_notices_a_theft_on_refresh(path):
    a = Lease(path, ttl=0.05)
    assert a.try_acquire()
    time.sleep(0.12)
    thief = Lease(path, ttl=0.05)
    assert thief.try_steal()
    # The previous owner's next heartbeat must report the loss...
    assert not a.refresh()
    # ...and must not have clobbered the thief's lease.
    assert thief.held()


def test_garbage_lease_file_is_treated_as_absent(path):
    path.write_text("not json at all\n")
    assert Lease.read(path) is None
    thief = Lease(path)
    assert thief.try_steal()
    assert thief.held()


def test_read_missing_file_is_none(path):
    assert Lease.read(path) is None


def test_is_stale_of_missing_lease(path):
    lease = Lease(path, ttl=1.0)
    assert lease.is_stale(None)


def test_acquire_creates_parent_directories(tmp_path):
    lease = Lease(tmp_path / "deep" / "nested" / "x.lease")
    assert lease.try_acquire()
    assert lease.held()


# ------------------------------------------------- monotonic-clock staleness
class _FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _mock_lease(path, ttl, clock):
    """A Lease whose staleness clock is ``clock`` — no sleeping in tests."""
    class MockedLease(Lease):
        _monotonic = staticmethod(clock)
    return MockedLease(path, ttl=ttl)


def test_wall_clock_jump_cannot_expire_a_live_lease(path):
    # The owner heartbeats on schedule, but the wall clock leaps a day
    # forward (NTP step).  Staleness is monotonic-based, so the lease must
    # survive; under the old wall-clock rule every live lease in the fleet
    # would have mass-expired at that instant.
    clock = _FakeClock()
    a = _mock_lease(path, ttl=10.0, clock=clock)
    assert a.try_acquire()
    info = json.loads(path.read_text())
    info["stamp"] -= 86400.0  # the heartbeat *looks* a day old on the wall
    atomic_write_bytes(path, (json.dumps(info) + "\n").encode())
    clock.now += 1.0  # but only a second passed on the monotonic clock
    assert not a.is_stale(Lease.read(path))
    thief = _mock_lease(path, ttl=10.0, clock=clock)
    assert not thief.try_steal()
    assert a.held()


def test_monotonic_ttl_expiry_is_stale(path):
    clock = _FakeClock()
    a = _mock_lease(path, ttl=10.0, clock=clock)
    assert a.try_acquire()
    clock.now += 10.5
    assert a.is_stale(Lease.read(path))


def test_negative_monotonic_delta_is_stale(path):
    # A monotonic reading *ahead* of ours means the lease was written in a
    # different boot (CLOCK_MONOTONIC restarts at boot) — stale, whatever
    # the wall clock says.
    clock = _FakeClock(now=5.0)  # "just rebooted"
    a = _mock_lease(path, ttl=3600.0, clock=clock)
    assert a.try_acquire()
    info = json.loads(path.read_text())
    info["mono"] = 999999.0  # from the previous boot's long uptime
    atomic_write_bytes(path, (json.dumps(info) + "\n").encode())
    assert a.is_stale(Lease.read(path))


def test_legacy_lease_without_mono_falls_back_to_wall_clock(path):
    clock = _FakeClock()
    a = _mock_lease(path, ttl=0.05, clock=clock)
    assert a.try_acquire()
    info = json.loads(path.read_text())
    del info["mono"]  # a lease file written by older code
    info["stamp"] = time.time() - 1.0  # wall-old beyond the ttl
    atomic_write_bytes(path, (json.dumps(info) + "\n").encode())
    assert a.is_stale(Lease.read(path))
    info["stamp"] = time.time()  # wall-fresh
    atomic_write_bytes(path, (json.dumps(info) + "\n").encode())
    assert not a.is_stale(Lease.read(path))


def test_payload_carries_both_clocks(path):
    a = Lease(path)
    assert a.try_acquire()
    info = Lease.read(path)
    assert info.mono is not None
    assert abs(info.stamp - time.time()) < 60.0
    assert abs(info.mono - time.monotonic()) < 60.0
