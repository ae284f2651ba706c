"""Experiment drivers: regenerate every table and figure of Section 4.3.

All experiments share a :class:`Lab`, which memoises the expensive
compile+simulate steps per (workload, configuration):

* **Table 1** — per-benchmark scalar cycles, scalar IPC, and static
  branch-prediction accuracy (profile trained on the *train* input,
  measured on the *eval* input);
* **Figure 8** — speedup of the base 2-issue superscalar over the scalar
  machine, basic-block scheduling vs global scheduling (no boosting), with
  register allocation before scheduling and under the infinite register
  model;
* **Table 2** — percentage cycle-count improvement over global scheduling
  for the Squashing / Boost1 / MinBoost3 / Boost7 hardware models;
* **Figure 9** — speedup over scalar of MinBoost3 (32 regs / infinite regs)
  versus the dynamically-scheduled machine (without / with register
  renaming).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.harness.cache import CompileCache
from repro.harness.parallel import run_tasks
from repro.harness.pipeline import (
    CompileConfig, CompiledProgram, SCALAR_CONFIG, compile_minic,
    make_input_image,
)
from repro.hw.dynamic import DynamicConfig, DynamicSim
from repro.hw.exceptions import ExecutionResult, Trap
from repro.obs.stats import SimStats
from repro.verify.errors import Divergence, DivergenceError
from repro.sched.boostmodel import (
    BOOST1, BOOST7, MINBOOST3, NO_BOOST, SQUASHING,
)
from repro.sched.machine import SUPERSCALAR
from repro.workloads import Workload, all_workloads

#: named configurations used by the experiments
CONFIGS: dict[str, CompileConfig] = {
    "scalar": SCALAR_CONFIG,
    "bb": CompileConfig(machine=SUPERSCALAR, model=NO_BOOST, scheduler="bb"),
    "global": CompileConfig(machine=SUPERSCALAR, model=NO_BOOST),
    "global_inf": CompileConfig(machine=SUPERSCALAR, model=NO_BOOST,
                                regalloc="infinite"),
    "squashing": CompileConfig(machine=SUPERSCALAR, model=SQUASHING),
    "boost1": CompileConfig(machine=SUPERSCALAR, model=BOOST1),
    "minboost3": CompileConfig(machine=SUPERSCALAR, model=MINBOOST3),
    "boost7": CompileConfig(machine=SUPERSCALAR, model=BOOST7),
    "minboost3_inf": CompileConfig(machine=SUPERSCALAR, model=MINBOOST3,
                                   regalloc="infinite"),
}

#: dynamically-scheduled machine variants measured by the bench report, in
#: report order — the two paper-era comparators plus the memory-speculative
#: baselines layered on them (see docs/memory-speculation.md): a 16-entry
#: load/store queue with store-to-load forwarding, the same plus
#: memory-dependence speculation, and the speculative machine with a
#: variable-rate (4-wide refill) front end
DYNAMIC_CONFIGS: dict[str, DynamicConfig] = {
    "dynamic": DynamicConfig(rename=False),
    "dynamic_rename": DynamicConfig(rename=True),
    "dynamic_lsq": DynamicConfig(rename=True, lsq_size=16, stlf=True),
    "dynamic_memdep": DynamicConfig(rename=True, lsq_size=16, stlf=True,
                                    memdep_speculate=True),
    "dynamic_vfr": DynamicConfig(rename=True, lsq_size=16, stlf=True,
                                 memdep_speculate=True, fetch_rate=4),
}

#: every configuration the bench report measures, in report order — the
#: static compile configs plus the dynamically-scheduled machine variants
BENCH_CONFIG_KEYS: list[str] = list(CONFIGS) + list(DYNAMIC_CONFIGS)


def geometric_mean(values: list[float]) -> Optional[float]:
    if not values:
        return None  # every contributing cell failed — render as ERR
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Lab:
    """Memoising compile-and-measure service shared by all experiments.

    :meth:`measure` is strict (raises on any failure); :meth:`cell` and
    :meth:`speedup` degrade gracefully, returning ``None`` and recording the
    failure in :attr:`errors` so one broken (workload, configuration) pair
    costs its own table cells, not the whole benchmark report.

    ``sabotage`` names a workload whose non-scalar simulations are
    deliberately strangled (a 1000-cycle watchdog) — the mechanism behind
    ``bench --sabotage``, which demonstrates and tests that degradation.
    """

    #: cycle budget for sabotaged runs — far below any real workload
    SABOTAGE_CYCLES = 1000

    def __init__(self, workloads: Optional[list[Workload]] = None,
                 sabotage: Optional[str] = None,
                 cache: Optional[CompileCache] = None,
                 collect_stats: bool = False) -> None:
        self.workloads = workloads if workloads is not None else all_workloads()
        self.sabotage = sabotage
        self.cache = cache
        #: attach repro.obs scheduler/simulator counters to every cell
        self.collect_stats = collect_stats
        self._compiled: dict[tuple[str, str], CompiledProgram] = {}
        self._measured: dict[tuple[str, str], ExecutionResult] = {}
        self._reference: dict[str, list[int]] = {}
        #: (workload, config) -> error text for every degraded cell
        self.errors: dict[tuple[str, str], str] = {}
        #: (workload, config) -> structured failure record (kind:
        #: exception/timeout/killed/unpicklable, attempts, error) for cells
        #: whose worker raised or that degraded at the *harness* level,
        #: rather than failing inside :meth:`cell`
        self.failures: dict[tuple[str, str], dict] = {}
        #: journal keys of cells restored by ``populate(journal=...)``
        self.resumed: set[tuple[str, str]] = set()

    def workload(self, name: str) -> Workload:
        for w in self.workloads:
            if w.name == name:
                return w
        raise KeyError(name)

    def compiled(self, wname: str, config_key: str) -> CompiledProgram:
        key = (wname, config_key)
        if key not in self._compiled:
            w = self.workload(wname)
            if self.cache is not None:
                self._compiled[key] = self.cache.compile_minic(
                    w.source, CONFIGS[config_key], w.train)
            else:
                self._compiled[key] = compile_minic(
                    w.source, CONFIGS[config_key], w.train)
        return self._compiled[key]

    def reference_output(self, wname: str) -> list[int]:
        if wname not in self._reference:
            w = self.workload(wname)
            cp = self.compiled(wname, "scalar")
            self._reference[wname] = cp.run_functional(w.eval).output
        return self._reference[wname]

    def measure(self, wname: str, config_key: str) -> ExecutionResult:
        """Run one configuration on the eval input, checking correctness
        against the functional reference."""
        key = (wname, config_key)
        if key in self._measured:
            return self._measured[key]
        w = self.workload(wname)
        sabotaged = (self.sabotage == wname and config_key != "scalar")
        if config_key in DYNAMIC_CONFIGS:
            base = self.compiled(wname, "scalar")
            image = make_input_image(base.program, w.eval)
            # DynamicSim never mutates its config, so sharing the
            # registry instances across cells is safe.
            config = DYNAMIC_CONFIGS[config_key]
            kwargs = {"max_cycles": self.SABOTAGE_CYCLES} if sabotaged else {}
            if self.collect_stats:
                kwargs["stats"] = SimStats()
            result = DynamicSim(base.program, config=config,
                                input_image=image, **kwargs).run()
        else:
            cp = self.compiled(wname, config_key)
            kwargs = {"max_cycles": self.SABOTAGE_CYCLES} if sabotaged else {}
            if self.collect_stats:
                kwargs["stats"] = SimStats()
            result = cp.run(w.eval, **kwargs)
            if self.collect_stats:
                result.sched_stats = cp.stats
        expected = self.reference_output(wname)
        if result.output != expected:
            raise DivergenceError(
                divergences=[Divergence(
                    "output", f"{expected[:4]}...", f"{result.output[:4]}...",
                    f"lengths {len(expected)} vs {len(result.output)}")],
                workload=wname, config=config_key,
                plan_text="(benchmark run, no faults injected)")
        self._measured[key] = result
        return result

    def cell(self, wname: str, config_key: str) -> Optional[ExecutionResult]:
        """:meth:`measure`, degraded: a failed cell returns ``None`` and is
        recorded in :attr:`errors` instead of aborting the experiment."""
        key = (wname, config_key)
        if key in self.errors:
            return None
        try:
            return self.measure(wname, config_key)
        except (Trap, RuntimeError, ValueError, KeyError) as err:
            # ValueError/KeyError cover caller mistakes surfacing inside the
            # pipeline — a bad input image from make_input_image, an unknown
            # configuration key — which must cost one cell, not the report.
            self.errors[key] = f"{type(err).__name__}: {err}"
            return None

    def speedup(self, wname: str, config_key: str) -> Optional[float]:
        """Cycle-count speedup of a configuration over the scalar machine;
        ``None`` if either measurement failed."""
        scalar = self.cell(wname, "scalar")
        other = self.cell(wname, config_key)
        if scalar is None or other is None:
            return None
        return scalar.cycle_count / other.cycle_count

    # ------------------------------------------------------------- parallelism
    def populate(self, jobs: int = 1, policy=None, chaos=None,
                 journal=None) -> None:
        """Pre-compute every bench cell, optionally across worker processes.

        Every (workload, config) cell runs :meth:`_cell_task` through
        :func:`repro.harness.parallel.run_tasks`: in process at ``jobs=1``,
        where cells share this Lab's memos (each workload's reference
        output is computed once), or in supervised workers forked from this
        Lab (``jobs>1``, a ``policy`` carrying a timeout, or ``chaos``).
        Outcomes merge in cell order, so the rendered report is
        byte-identical at any ``jobs``.  The on-disk compile cache (when
        configured) keeps the workers from recompiling what siblings
        already built.

        ``journal`` (a :class:`repro.harness.resilience.Journal`) makes the
        campaign crash-safe: journaled cells are restored instead of re-run
        (and listed in :attr:`resumed`), and each newly completed cell is
        durably appended the moment it finishes.  A cell whose worker
        raised, or that failed at the harness level (timeout, killed
        worker, exhausted retries), is recorded in :attr:`errors` (rendered
        as ``ERR`` cells) plus, structured, in :attr:`failures`; it is not
        journaled, so a resumed campaign retries it.
        """
        cells = [(w.name, key)
                 for w in self.workloads for key in BENCH_CONFIG_KEYS]
        outcomes = run_tasks(self._cell_task, cells, jobs, policy, chaos,
                             journal, keys=[f"{w}/{k}" for w, k in cells])
        for cell, outcome in zip(cells, outcomes):
            if outcome.kind == "restored":
                self.resumed.add(cell)
            if outcome.error is not None:
                self.errors[cell] = outcome.error
                self.failures[cell] = {
                    "kind": outcome.kind, "attempts": outcome.attempts,
                    "error": outcome.error}
                continue
            result, cell_error = outcome.value
            if cell_error is not None:
                self.errors[cell] = cell_error
            elif result is not None:
                self._measured[cell] = result

    def _cell_task(self, cell: tuple[str, str]
                   ) -> tuple[Optional[ExecutionResult], Optional[str]]:
        """One bench cell: :meth:`cell`, returned as (result, recorded error
        text) — the journaled payload."""
        return self.cell(*cell), self.errors.get(cell)


# ------------------------------------------------------------------ Table 1
@dataclass
class Table1Row:
    name: str
    cycles: Optional[int]
    ipc: Optional[float]
    prediction_accuracy: Optional[float]


def table1(lab: Lab) -> list[Table1Row]:
    rows = []
    for w in lab.workloads:
        res = lab.cell(w.name, "scalar")
        if res is None:
            rows.append(Table1Row(w.name, None, None, None))
            continue
        rows.append(Table1Row(
            name=w.name,
            cycles=res.cycle_count,
            ipc=res.ipc,
            prediction_accuracy=res.prediction_accuracy,
        ))
    return rows


# ----------------------------------------------------------------- Figure 8
@dataclass
class Figure8Row:
    name: str
    bb_speedup: Optional[float]
    global_speedup: Optional[float]
    global_inf_speedup: Optional[float]


def figure8(lab: Lab) -> tuple[list[Figure8Row], dict[str, float]]:
    rows = []
    for w in lab.workloads:
        rows.append(Figure8Row(
            name=w.name,
            bb_speedup=lab.speedup(w.name, "bb"),
            global_speedup=lab.speedup(w.name, "global"),
            global_inf_speedup=lab.speedup(w.name, "global_inf"),
        ))
    means = {
        "bb": geometric_mean([r.bb_speedup for r in rows
                              if r.bb_speedup is not None]),
        "global": geometric_mean([r.global_speedup for r in rows
                                  if r.global_speedup is not None]),
        "global_inf": geometric_mean([r.global_inf_speedup for r in rows
                                      if r.global_inf_speedup is not None]),
    }
    return rows, means


# ------------------------------------------------------------------ Table 2
TABLE2_MODELS = ("squashing", "boost1", "minboost3", "boost7")


@dataclass
class Table2Row:
    name: str
    #: model key -> % improvement over global; None where a run failed
    improvements: dict[str, Optional[float]]


def table2(lab: Lab) -> tuple[list[Table2Row], dict[str, float]]:
    rows = []
    for w in lab.workloads:
        base_res = lab.cell(w.name, "global")
        improvements: dict[str, Optional[float]] = {}
        for key in TABLE2_MODELS:
            res = lab.cell(w.name, key)
            if base_res is None or res is None:
                improvements[key] = None
            else:
                improvements[key] = (base_res.cycle_count
                                     / res.cycle_count - 1.0) * 100.0
        rows.append(Table2Row(name=w.name, improvements=improvements))
    means = {}
    for key in TABLE2_MODELS:
        gm = geometric_mean([1.0 + r.improvements[key] / 100.0 for r in rows
                             if r.improvements[key] is not None])
        means[key] = None if gm is None else (gm - 1.0) * 100.0
    return rows, means


# ----------------------------------------------------------------- Figure 9
@dataclass
class Figure9Row:
    name: str
    minboost3_speedup: Optional[float]
    minboost3_inf_speedup: Optional[float]
    dynamic_speedup: Optional[float]
    dynamic_rename_speedup: Optional[float]


def figure9(lab: Lab) -> tuple[list[Figure9Row], dict[str, float]]:
    rows = []
    for w in lab.workloads:
        rows.append(Figure9Row(
            name=w.name,
            minboost3_speedup=lab.speedup(w.name, "minboost3"),
            minboost3_inf_speedup=lab.speedup(w.name, "minboost3_inf"),
            dynamic_speedup=lab.speedup(w.name, "dynamic"),
            dynamic_rename_speedup=lab.speedup(w.name, "dynamic_rename"),
        ))
    means = {
        "minboost3": geometric_mean(
            [r.minboost3_speedup for r in rows
             if r.minboost3_speedup is not None]),
        "minboost3_inf": geometric_mean(
            [r.minboost3_inf_speedup for r in rows
             if r.minboost3_inf_speedup is not None]),
        "dynamic": geometric_mean(
            [r.dynamic_speedup for r in rows
             if r.dynamic_speedup is not None]),
        "dynamic_rename": geometric_mean(
            [r.dynamic_rename_speedup for r in rows
             if r.dynamic_rename_speedup is not None]),
    }
    return rows, means


# ------------------------------------------------- Figure 9 under stronger
# baselines: the memory-speculative dynamic-machine matrix
@dataclass
class DynamicMatrixRow:
    name: str
    minboost3_speedup: Optional[float]
    #: dynamic-variant key -> speedup over scalar; None where a run failed
    speedups: dict[str, Optional[float]]


def dynamic_matrix(lab: Lab) -> tuple[list[DynamicMatrixRow],
                                      dict[str, Optional[float]]]:
    """Speedup over scalar for every dynamic-machine variant, next to
    MinBoost3 — the paper's Figure 9 comparison re-run against baselines
    the paper never had to beat (LSQ forwarding, memory-dependence
    speculation, variable fetch rate)."""
    rows = []
    for w in lab.workloads:
        rows.append(DynamicMatrixRow(
            name=w.name,
            minboost3_speedup=lab.speedup(w.name, "minboost3"),
            speedups={key: lab.speedup(w.name, key)
                      for key in DYNAMIC_CONFIGS},
        ))
    means: dict[str, Optional[float]] = {
        "minboost3": geometric_mean(
            [r.minboost3_speedup for r in rows
             if r.minboost3_speedup is not None]),
    }
    for key in DYNAMIC_CONFIGS:
        means[key] = geometric_mean(
            [r.speedups[key] for r in rows
             if r.speedups[key] is not None])
    return rows, means
