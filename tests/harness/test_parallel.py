"""The deterministic parallel executor and its bench/verify integration."""

import pytest

from repro.harness.experiments import BENCH_CONFIG_KEYS, Lab
from repro.harness.parallel import run_tasks
from repro.harness.report import bench_json, render_all
from repro.harness.resilience import CampaignInterrupted, Journal
from repro.workloads.registry import Workload

SOURCE = """
global xs[8];
global n = 0;
func main() {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (xs[i] > 3) { s = s + xs[i]; }
    }
    print(s);
}
"""


def _stub(name="awk", eval_inputs=None):
    return Workload(name=name, paper_benchmark="n/a", description="stub",
                    source=SOURCE,
                    train={"xs": [1, 5, 2, 6, 3, 7, 4, 8], "n": 8},
                    eval=(eval_inputs if eval_inputs is not None
                          else {"xs": [8, 1, 7, 2, 6, 3, 5, 4], "n": 8}))


# Workers for the run_tasks tests.
def _square(x):
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise ValueError(f"boom {x}")
    return x


class _UnpicklableError(Exception):
    """An exception no pickle can ship: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.resource = lambda: None


def _raise_unpicklable(x):
    if x == 1:
        raise _UnpicklableError("cannot cross the pipe")
    return x


def _interrupt_on_three(x):
    if x == 3:
        raise KeyboardInterrupt
    return x


FINGERPRINT = Journal.make_fingerprint(command="run-tasks-test")


def _journal(path, *records):
    """A resumed journal holding ``records`` (key, payload) pairs."""
    journal = Journal(path, FINGERPRINT)
    for key, payload in records:
        journal.record(key, payload)
    journal.close()
    return Journal(path, FINGERPRINT, resume=True)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_tasks_preserves_order(jobs):
    outcomes = run_tasks(_square, list(range(8)), jobs=jobs)
    assert [o.index for o in outcomes] == list(range(8))
    assert [o.value for o in outcomes] == [i * i for i in range(8)]
    assert all(o.ok for o in outcomes)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_tasks_captures_errors_per_task(jobs):
    outcomes = run_tasks(_explode_on_three, [1, 2, 3, 4], jobs=jobs)
    assert [o.ok for o in outcomes] == [True, True, False, True]
    assert outcomes[2].error == "ValueError: boom 3"
    assert outcomes[2].value is None
    assert outcomes[3].value == 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_unpicklable_exception_degrades_to_one_task(jobs):
    """Regression: an exception holding unpicklable state used to crash the
    pool when the worker tried to send it home.  Only its type name,
    message, and traceback text cross the process boundary."""
    outcomes = run_tasks(_raise_unpicklable, [0, 1, 2], jobs=jobs)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[1].kind == "exception"
    assert "_UnpicklableError" in outcomes[1].error
    assert "cannot cross the pipe" in outcomes[1].error
    assert "_raise_unpicklable" in (outcomes[1].traceback or "")


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_tasks_restores_and_journals(jobs, tmp_path):
    """A journaled task is restored, not run; every clean outcome is
    journaled, a failed one is not."""
    journal = _journal(tmp_path / "j", ("t0", "from the journal"))
    outcomes = run_tasks(_explode_on_three, [1, 2, 3], jobs=jobs,
                         journal=journal, keys=["t0", "t1", "t2"])
    journal.close()
    assert [o.kind for o in outcomes] == ["restored", "ok", "exception"]
    assert [o.value for o in outcomes] == ["from the journal", 2, None]
    resumed = Journal(tmp_path / "j", FINGERPRINT, resume=True)
    resumed.close()
    assert resumed.completed == {"t0": "from the journal", "t1": 2}


def test_interrupt_counts_restored_tasks(tmp_path):
    journal = _journal(tmp_path / "j", ("t0", 1))
    with pytest.raises(CampaignInterrupted) as info:
        run_tasks(_interrupt_on_three, [1, 2, 3, 4], journal=journal,
                  keys=["t0", "t1", "t2", "t3"])
    journal.close()
    # t0 restored, t1 run, t2 interrupted
    assert (info.value.completed, info.value.total) == (2, 4)


@pytest.mark.parametrize("jobs", [1, 2])
def test_supervised_populate_ships_worker_errors_home(jobs):
    """The bench integration: an exception a cell does not catch (here a
    TypeError from a ``None`` input word) is shipped home as text (type
    name + message, never the object) and lands in ``Lab.errors`` as an ERR
    cell, the same way in process and across the pool."""
    lab = Lab([_stub(eval_inputs={"xs": [None], "n": 1})])
    lab.populate(jobs=jobs)
    assert all("TypeError" in lab.errors[("awk", key)]
               for key in BENCH_CONFIG_KEYS)
    assert {f["kind"] for f in lab.failures.values()} == {"exception"}
    from repro.harness.report import render_errors
    assert "awk/scalar: TypeError" in render_errors(lab)


@pytest.mark.parametrize("jobs", [1, 2])
def test_populate_measures_the_labs_own_workloads(jobs):
    """Pool workers fork from the Lab, so a stub that shares a registry
    workload's name is measured as itself, not as the registry's awk."""
    lazy = Lab([_stub()])
    text_lazy = render_all(lazy)
    eager = Lab([_stub()])
    eager.populate(jobs=jobs)
    assert render_all(eager) == text_lazy
    assert not eager.errors


def test_policy_timeout_forces_a_supervised_pool():
    from repro.harness.resilience import SupervisionPolicy
    outcomes = run_tasks(_square, [1, 2], jobs=1,
                         policy=SupervisionPolicy(timeout=60.0))
    assert [o.value for o in outcomes] == [1, 4]


def test_bench_config_keys_cover_all_report_configs():
    assert "scalar" in BENCH_CONFIG_KEYS
    assert "dynamic" in BENCH_CONFIG_KEYS
    assert "dynamic_rename" in BENCH_CONFIG_KEYS
    assert len(BENCH_CONFIG_KEYS) == len(set(BENCH_CONFIG_KEYS))


def test_populate_serial_matches_lazy_render():
    lazy = Lab([_stub()])
    text_lazy = render_all(lazy)
    eager = Lab([_stub()])
    eager.populate(jobs=1)
    assert render_all(eager) == text_lazy


def test_cell_captures_value_and_key_errors():
    lab = Lab([_stub()])
    # Unknown configuration key: escapes as KeyError without the broadened
    # catch and would abort the whole report.
    assert lab.cell("awk", "no_such_config") is None
    assert "KeyError" in lab.errors[("awk", "no_such_config")]

    # A bad input image surfaces as ValueError from make_input_image.
    lab2 = Lab([_stub(eval_inputs={"nonexistent_global": 1})])
    assert lab2.cell("awk", "scalar") is None
    assert "ValueError" in lab2.errors[("awk", "scalar")]
    # The report still renders, degraded.
    assert "ERR" in render_all(lab2)


def test_bench_json_schema_and_degradation():
    lab = Lab([_stub()])
    data = bench_json(lab)
    assert data["schema"] == "repro-bench/1"
    assert data["table1"][0]["name"] == "awk"
    assert isinstance(data["table1"][0]["cycles"], int)
    assert set(data["figure8"]["geomeans"]) == {"bb", "global", "global_inf"}
    assert data["errors"] == {}

    degraded = bench_json(Lab([_stub(eval_inputs={"nonexistent_global": 1})]))
    assert degraded["table1"][0]["cycles"] is None
    assert any("ValueError" in v for v in degraded["errors"].values())
