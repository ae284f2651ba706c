"""Cycle-exact golden table for the dynamically-scheduled machine.

Every cell of the bench's dynamic matrix (9 workloads x 5
``DYNAMIC_CONFIGS`` variants, eval input) must reproduce its committed
record exactly: the result counters, digests of the output and of final
memory, the BTB counters, and every dynamic ``SimStats`` counter.  Each
cell runs twice, with a ``SimStats`` sink and without one; the run without
a sink is the one ``bench`` times, and it must match on every field it
exposes.

The exit-path cases pin the state a run leaves behind when it stops early,
with and without the load/store queue: a trap raised at commit, and a
workload cut short by ``max_cycles`` (the fuzz campaign reads ``sim.result``
and ``sim.mem`` after that ``RuntimeError``).

The table changes only with an intended change to the machine's timing,
never to make a refactor pass.  Refresh it with

    PYTHONPATH=src python tests/hw/test_dynamic_golden.py --refresh
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.frontend import compile_source
from repro.harness.experiments import DYNAMIC_CONFIGS
from repro.harness.pipeline import SCALAR_CONFIG, compile_minic, make_input_image
from repro.hw.dynamic import DynamicSim
from repro.hw.exceptions import Trap
from repro.obs.stats import SimStats
from repro.opt import allocate_program, optimize_program
from repro.workloads import all_workloads, get

GOLDEN = Path(__file__).with_name("dynamic_golden.json")

#: counters only the ``SimStats`` sink collects
SINK_COUNTERS = ("rob_high_water", "rob_occupancy_sum",
                 "fetch_queue_high_water", "fetch_stall_cycles",
                 "rename_stall_events", "flushes")
#: memory-speculation counters the simulator and its LSQ keep themselves
SIM_COUNTERS = ("memdep_squashes", "memdep_stall_cycles", "stlf_hits",
                "lsq_high_water", "lsq_occupancy_sum")

WORKLOADS = [w.name for w in all_workloads()]
CELLS = [(w, k) for w in WORKLOADS for k in DYNAMIC_CONFIGS]

# A store-and-call loop with a slow-resolving aliasing store (memory-order
# squashes under speculation), then a store to an unmapped address that
# traps at commit.
TRAP_SOURCE = """
global buf[8];
global k = 3;
func bump(p, v) {
    storew(p, loadw(p) + v);
    return loadw(p);
}
func main() {
    var a = addr(buf);
    var s = 0;
    for (var i = 0; i < 6; i = i + 1) {
        var slow = (a * k * k) / (k * k);
        storew(slow + 4 * (i & 1), i);
        s = s + bump(a, i);
    }
    print(s);
    storew(1, s);
    print(7);
}
"""

#: the conservative memory pipeline, and an LSQ with memory-dependence
#: speculation
EXIT_CONFIGS = {"nolsq": DYNAMIC_CONFIGS["dynamic"],
                "lsq": DYNAMIC_CONFIGS["dynamic_memdep"]}
#: the cycle budget of the cut-short workload run
LIMIT_WORKLOAD = "xlisp"
LIMIT_CYCLES = 20_000


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _workload_program(name: str):
    w = get(name)
    program = compile_minic(w.source, SCALAR_CONFIG, w.train).program
    return program, make_input_image(program, w.eval)


def _observe(sim: DynamicSim, stats=None) -> dict:
    """Everything a finished (or stopped) run exposes, as plain values."""
    r = sim.result
    record = {
        "cycles": r.cycle_count,
        "instrs": r.instr_count,
        "nops": r.nop_count,
        "branches": r.branch_count,
        "mispredicts": r.mispredict_count,
        "output": _digest(json.dumps(r.output).encode()),
        "memory": _digest(sim.mem.snapshot()),
        "btb_hits": sim.btb.hits,
        "btb_misses": sim.btb.misses,
        "memdep_squashes": sim.memdep_squashes,
        "memdep_stall_cycles": sim.memdep_stall_cycles,
        "stlf_hits": sim.lsq.stlf_hits if sim.lsq else 0,
        "lsq_high_water": sim.lsq.high_water if sim.lsq else 0,
        "lsq_occupancy_sum": sim.lsq.occupancy_sum if sim.lsq else 0,
    }
    if stats is not None:
        for name in SINK_COUNTERS + SIM_COUNTERS:
            record[name] = getattr(stats, name)
    return record


def run_cell(workload: str, config_key: str, with_sink: bool) -> dict:
    program, image = _workload_program(workload)
    stats = SimStats() if with_sink else None
    sim = DynamicSim(program, config=DYNAMIC_CONFIGS[config_key],
                     input_image=image, stats=stats)
    sim.run()
    return _observe(sim, stats)


def _exit_record(sim: DynamicSim, err: Exception) -> dict:
    record = _observe(sim)
    record["sim_cycle"] = sim.cycle
    trap = sim.result.trap
    record["trap"] = None if trap is None else f"{trap.kind.name}@{trap.addr}"
    record["error"] = f"{type(err).__name__}: {err}"
    record["lsq_entries"] = len(sim.lsq.entries) if sim.lsq else 0
    return record


def run_exit(case: str, lsq_key: str) -> dict:
    config = EXIT_CONFIGS[lsq_key]
    if case == "trap":
        program = compile_source(TRAP_SOURCE)
        optimize_program(program)
        allocate_program(program)
        sim = DynamicSim(program, config=config)
        expected = Trap
    else:
        program, image = _workload_program(LIMIT_WORKLOAD)
        sim = DynamicSim(program, config=config, input_image=image,
                         max_cycles=LIMIT_CYCLES)
        expected = RuntimeError
    with pytest.raises(expected) as info:
        sim.run()
    return _exit_record(sim, info.value)


EXITS = [(case, lsq) for case in ("trap", "limit") for lsq in EXIT_CONFIGS]


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return _golden()


@pytest.mark.parametrize("workload,config_key", CELLS)
def test_cell_matches_golden(golden, workload, config_key):
    expected = golden["cells"][f"{workload}/{config_key}"]
    assert run_cell(workload, config_key, with_sink=True) == expected
    bare = run_cell(workload, config_key, with_sink=False)
    assert bare == {k: v for k, v in expected.items()
                    if k not in SINK_COUNTERS}


@pytest.mark.parametrize("case,lsq_key", EXITS)
def test_exit_state_matches_golden(golden, case, lsq_key):
    assert run_exit(case, lsq_key) == golden["exits"][f"{case}/{lsq_key}"]


def test_exit_cases_exercise_what_they_claim(golden):
    exits = golden["exits"]
    for lsq_key in EXIT_CONFIGS:
        trap = exits[f"trap/{lsq_key}"]
        assert trap["trap"] is not None and trap["cycles"] == trap["sim_cycle"]
        limit = exits[f"limit/{lsq_key}"]
        assert limit["error"] == f"RuntimeError: exceeded {LIMIT_CYCLES} cycles"
        assert limit["sim_cycle"] == LIMIT_CYCLES + 1
    assert exits["trap/lsq"]["memdep_squashes"] > 0
    assert exits["limit/lsq"]["memdep_squashes"] > 0
    assert exits["limit/lsq"]["lsq_entries"] > 0


def refresh() -> None:
    doc = {
        "cells": {f"{w}/{k}": run_cell(w, k, with_sink=True)
                  for w, k in CELLS},
        "exits": {f"{case}/{lsq}": run_exit(case, lsq) for case, lsq in EXITS},
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(doc['cells'])} cells, "
          f"{len(doc['exits'])} exit cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--refresh"]:
        sys.exit(f"usage: {sys.argv[0]} --refresh")
    refresh()
