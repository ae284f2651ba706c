"""Differential fuzz campaigns over generated Minic programs.

One campaign cell is ``(program, plan, machine, model, backend)``:

* the **oracle** for a program/plan pair is the functional simulator on the
  ``reference`` backend — the slow, readable interpreter nothing else is
  allowed to disagree with;
* **backend cells** re-run the functional machine on each other backend
  (``interp``, ``translate``) and demand identical output, trap identity,
  and final memory — this is the cross-check that guards the translating
  backend's generated code;
* **model cells** run the scheduled superscalar machine for each boosting
  model × backend under the same fault plan, compared against the oracle
  with the usual differential rules (trap precision, prefix-consistent
  output under traps, byte-identical memory on clean exits);
* **dynamic cells** run the dynamically-scheduled comparator on the benign
  plan, one cell per variant in ``DYNAMIC_FUZZ_VARIANTS`` — renaming
  on/off, the load/store queue with store-to-load forwarding, and
  memory-dependence speculation at two queue sizes (the tight queue also
  exercises LSQ-full dispatch stalls) — the dynamic machine has no
  fault-hook port, so injected plans stay out of its cells.

Plans are deterministic per ``(program seed, plan index)``; plan index 0 is
always the explicit benign plan, the rest are drawn by
:func:`repro.verify.faults.make_plan` (traps + prediction flips).  A plan
that carries a trap forces both machines onto the interpreter engine
(generated code has no fault-hook port), so the translating backend is
genuinely exercised by the benign and flip-only cells.

The campaign rides the same run loop as ``bench``/``verify``
(:func:`repro.harness.parallel.run_tasks`): the supervised worker pool
(``--jobs``, timeouts, retries, ``--chaos``) and the append-only journal
(``--journal``/``--resume``).  Results merge in serial seed order, so the
formatted report is byte-identical at any parallelism.

Divergences are grouped by **signature** — ``machine/model/backend/
observables/oracle-disposition`` — and the first divergence of each
signature is handed to the :mod:`repro.verify.fuzz.reduce` delta debugger,
which shrinks the generated source while the exact cell keeps reproducing
the exact signature.  Minimized sources land in a persistent triage corpus,
one directory per signature, each with a copy-pasteable one-line repro.

``--sabotage`` plants a deliberate bug so the whole loop can prove it would
notice one: a fuzzer that has never caught anything is indistinguishable
from a fuzzer that cannot.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.frontend import compile_source
from repro.harness.parallel import run_tasks
from repro.harness.pipeline import make_input_image, prepare_ir, schedule_ir
from repro.hw.dynamic import DynamicConfig, DynamicSim
from repro.hw.exceptions import Trap
from repro.obs.stats import FuzzStats
from repro.program.procedure import clone_program
from repro.sched.schedprog import ScheduledProgram
from repro.verify.campaign import CAMPAIGN_CONFIGS, BrokenShiftBuffer
from repro.verify.differential import DifferentialChecker, RunOutcome
from repro.verify.errors import Divergence
from repro.verify.faults import FaultPlan, apply_flips, make_plan
from repro.verify.fuzz.generator import GenConfig, generate_program
from repro.verify.fuzz.reduce import reduce_source

#: boosting models a fuzz campaign exercises by default: one eager-squash
#: model and the deepest boosting model — the two ends of the recovery
#: design space (more via ``--models``)
DEFAULT_FUZZ_MODELS = ("squashing", "boost7")

#: dynamic-machine comparator variants, benign plan only (subset via
#: ``--dynamic-variants``); generated programs lean on raw storew/loadw
#: aliasing, so the speculative variants are the forwarding/squash hunters
DYNAMIC_FUZZ_VARIANTS: dict[str, DynamicConfig] = {
    "norename": DynamicConfig(rename=False),
    "rename": DynamicConfig(rename=True),
    "lsq": DynamicConfig(rename=True, lsq_size=16, stlf=True),
    "memdep": DynamicConfig(rename=True, lsq_size=16, stlf=True,
                            memdep_speculate=True),
    "memdep-tight": DynamicConfig(rename=True, lsq_size=4, stlf=True,
                                  memdep_speculate=True),
}

#: deliberate bugs ``--sabotage`` can plant (self-test of the whole loop)
SABOTAGES = {
    "shiftbuf": "superscalar exception shift buffer silently drops "
                "committing boosted faults",
    "drop-print": "superscalar machine loses the last element of its "
                  "PRINT stream",
}

#: execution bounds for campaign cells — generated programs are small, so
#: anything that runs away is itself a finding (reported as oracle error)
_MAX_STEPS = 10_000_000
_MAX_CYCLES = 20_000_000
_WALL_LIMIT = 60.0
#: tighter bounds for reduction-predicate replays (they run many times)
_REDUCE_STEPS = 4_000_000
_REDUCE_CYCLES = 8_000_000
_REDUCE_WALL = 15.0


def _plan_seed(program_seed: int, index: int) -> int:
    """Plan seeds, decoupled from program seeds so neighbouring programs
    never share plan streams (100003 is prime and > any plan count)."""
    return program_seed * 100_003 + index


def fuzz_repro_cmd(seed: int, config: GenConfig, plans: int,
                   model: Optional[str] = None,
                   backend: Optional[str] = None,
                   sabotage: Optional[str] = None) -> str:
    """A copy-pasteable one-line repro for one generated program's cells.

    Regenerating from ``--seed-start N --count 1`` replays the identical
    program, inputs, and plan stream; naming the model/backend narrows the
    rerun to the diverging cell's row and column of the matrix.
    """
    cmd = (f"python -m repro fuzz --count 1 --seed-start {seed} "
           f"--plans {plans} --size {config.size}")
    default = GenConfig(size=config.size)
    if config.pred_lo != default.pred_lo:
        cmd += f" --pred-lo {config.pred_lo}"
    if config.pred_hi != default.pred_hi:
        cmd += f" --pred-hi {config.pred_hi}"
    if model is not None:
        cmd += f" --models {model}"
    if backend is not None and backend != "-":
        cmd += f" --backends {backend}"
    if sabotage:
        cmd += f" --sabotage {sabotage}"
    return cmd


def _signature(machine: str, model: str, backend: str,
               divergences: list[Divergence], oracle: RunOutcome) -> str:
    """Stable divergence signature: which cell disagreed, on which
    observables, under which oracle disposition (clean / trap kind)."""
    obs = "+".join(sorted({d.observable for d in divergences}))
    disposition = oracle.trap.kind.name if oracle.trap is not None else "clean"
    return f"{machine}/{model}/{backend}/{obs}/{disposition}"


@dataclass
class FuzzDivergence:
    """One diverging campaign cell, with everything triage needs."""

    program: str
    seed: int
    machine: str            # "functional" | "superscalar" | "dynamic"
    model: str              # boost model key, rename mode, or "-"
    backend: str            # execution engine, or "-" (dynamic machine)
    plan_seed: int
    plan_index: int
    plan_text: str
    benign: bool
    signature: str
    divergences: list[Divergence]
    repro_cmd: str
    source: str
    reduced_source: Optional[str] = None
    reduce_note: str = ""

    def describe(self) -> str:
        lines = [f"divergence in {self.program} cell "
                 f"{self.machine}/{self.model}/{self.backend} "
                 f"plan[{self.plan_index}]"]
        lines.append(f"  plan: {self.plan_text}")
        lines.append(f"  signature: {self.signature}")
        for d in self.divergences:
            lines.append(f"  - {d}")
        if self.reduce_note:
            lines.append(f"  {self.reduce_note}")
        lines.append(f"  repro: {self.repro_cmd}")
        return "\n".join(lines)


@dataclass
class FuzzProgramResult:
    """Aggregated outcome of one generated program's cells."""

    name: str
    seed: int
    plans: int = 0
    runs: int = 0
    trapped: int = 0
    flipped: int = 0
    injected_hits: int = 0
    backend_cells: int = 0
    model_cells: int = 0
    dynamic_cells: int = 0
    divergent: int = 0
    errors: int = 0
    instr_count: int = 0
    compile_error: Optional[str] = None


@dataclass
class TriageEntry:
    """One bucket of the persistent triage corpus."""

    signature: str
    bucket: str
    program: str
    seed: int
    occurrences: int
    reduced_lines: int
    note: str


@dataclass
class FuzzSummary:
    results: list[FuzzProgramResult] = field(default_factory=list)
    divergences: list[FuzzDivergence] = field(default_factory=list)
    oracle_errors: list[str] = field(default_factory=list)
    triage: list[TriageEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.divergences and not self.oracle_errors
                and not any(r.compile_error for r in self.results))

    def stats(self) -> FuzzStats:
        s = FuzzStats()
        for r in self.results:
            if r.compile_error is not None:
                s.compile_errors += 1
                continue
            s.programs += 1
            s.runs += r.runs
            s.plans += r.plans
            s.trapped += r.trapped
            s.flipped += r.flipped
            s.injected_hits += r.injected_hits
            s.divergent += r.divergent
            s.backend_cells += r.backend_cells
            s.model_cells += r.model_cells
            s.dynamic_cells += r.dynamic_cells
        s.oracle_errors = len(self.oracle_errors)
        s.reduced = sum(1 for d in self.divergences
                        if d.reduced_source is not None)
        s.triage_buckets = len(self.triage)
        return s

    def format(self) -> str:
        s = self.stats()
        lines = [
            f"fuzz campaign: {s.programs} programs, {s.runs} comparisons "
            f"({s.backend_cells} backend, {s.model_cells} model, "
            f"{s.dynamic_cells} dynamic cells)",
            f"plans: {s.plans} total, {s.trapped} trapping oracle runs, "
            f"{s.flipped} prediction-flipped, "
            f"{s.injected_hits} injected fault hits",
        ]
        for r in self.results:
            if r.compile_error is not None:
                lines.append(f"COMPILE ERROR {r.name}: {r.compile_error}")
        buckets: dict[str, int] = {}
        for d in self.divergences:
            buckets[d.signature] = buckets.get(d.signature, 0) + 1
        lines.append(f"divergences: {len(self.divergences)} in "
                     f"{len(buckets)} signature bucket(s), "
                     f"oracle errors: {len(self.oracle_errors)}")
        for sig in sorted(buckets):
            lines.append(f"  [{buckets[sig]}x] {sig}")
        for entry in self.triage:
            lines.append(f"  triage: {entry.bucket} "
                         f"({entry.reduced_lines} lines) {entry.note}")
        for d in self.divergences:
            lines.append("")
            lines.append(d.describe())
        for msg in self.oracle_errors:
            lines.append(f"oracle error: {msg}")
        return "\n".join(lines)


# ---------------------------------------------------------------- cell engine
def _apply_sabotage(sabotage: Optional[str], outcome: RunOutcome) -> None:
    if sabotage == "drop-print" and outcome.output:
        outcome.output = outcome.output[:-1]


def _shiftbuf_factory(sabotage: Optional[str]):
    if sabotage == "shiftbuf":
        return lambda levels: BrokenShiftBuffer(levels)
    return None


def _run_dynamic_outcome(program, image, variant: str,
                         max_cycles: int) -> RunOutcome:
    sim = DynamicSim(program, config=DYNAMIC_FUZZ_VARIANTS[variant],
                     max_cycles=max_cycles, input_image=image)
    outcome = RunOutcome(machine=f"dynamic/{variant}")
    try:
        sim.run()
    except Trap as trap:
        outcome.trap = trap
    except RuntimeError as err:
        outcome.error = f"{type(err).__name__}: {err}"
    outcome.output = sim.result.output
    outcome.trap = outcome.trap or sim.result.trap
    outcome.instr_count = sim.result.instr_count
    outcome.mispredicts = sim.result.mispredict_count
    if outcome.error is None:
        outcome.memory = sim.mem.snapshot()
    return outcome


def _run_program(seed: int, config: GenConfig, model_keys: list[str],
                 backends: list[str], nplans: int, sabotage: Optional[str],
                 dyn_variants: list[str],
                 max_steps: int = _MAX_STEPS, max_cycles: int = _MAX_CYCLES,
                 wall_limit: Optional[float] = _WALL_LIMIT,
                 ) -> tuple[FuzzProgramResult, list[FuzzDivergence],
                            list[str]]:
    """All cells of one generated program — the unit of parallelism."""
    gp = generate_program(seed, config)
    res = FuzzProgramResult(name=gp.name, seed=seed)
    divergences: list[FuzzDivergence] = []
    errors: list[str] = []

    def repro(model=None, backend=None):
        return fuzz_repro_cmd(seed, config, nplans, model=model,
                              backend=backend, sabotage=sabotage)

    try:
        prepared = prepare_ir(compile_source(gp.source),
                              CAMPAIGN_CONFIGS[model_keys[0]], gp.train,
                              max_profile_steps=max_steps)
    except Exception as err:  # a generator bug, not a finding to swallow
        res.compile_error = f"{type(err).__name__}: {err}"
        errors.append(f"{gp.name}: failed to compile/prepare: "
                      f"{res.compile_error} (repro: {repro()})")
        return res, divergences, errors

    image = make_input_image(prepared, gp.eval)
    ref = clone_program(prepared)
    oracle_checker = DifferentialChecker(
        max_steps=max_steps, max_cycles=max_cycles,
        wall_clock_limit=wall_limit, backend="reference")
    shiftbuf = _shiftbuf_factory(sabotage)

    base_scheds: dict[str, ScheduledProgram] = {}
    for mk in model_keys:
        prog = clone_program(prepared)
        base_scheds[mk], _ = schedule_ir(prog, CAMPAIGN_CONFIGS[mk])

    plans = [FaultPlan(seed=_plan_seed(seed, 0))]
    plans += [make_plan(prepared, _plan_seed(seed, i))
              for i in range(1, nplans)]
    res.plans = len(plans)

    def record(machine, model, backend, plan, pidx, divs, oracle):
        res.divergent += 1
        divergences.append(FuzzDivergence(
            program=gp.name, seed=seed, machine=machine, model=model,
            backend=backend, plan_seed=plan.seed, plan_index=pidx,
            plan_text=plan.describe(), benign=(pidx == 0),
            signature=_signature(machine, model, backend, divs, oracle),
            divergences=divs, source=gp.source,
            repro_cmd=repro(model=model if machine == "superscalar" else None,
                            backend=backend)))

    for pidx, plan in enumerate(plans):
        try:
            oracle = oracle_checker.run_reference(ref, plan, image)
        except RuntimeError as err:
            res.errors += 1
            errors.append(f"{gp.name} plan[{pidx}]: oracle run failed: "
                          f"{type(err).__name__}: {err} (repro: {repro()})")
            continue
        res.trapped += 1 if oracle.trap is not None else 0
        res.flipped += 1 if plan.flips else 0
        if pidx == 0:
            res.instr_count = oracle.instr_count

        # functional machine across backends (the oracle is "reference")
        for b in backends:
            if b == "reference":
                continue
            res.backend_cells += 1
            res.runs += 1
            checker = DifferentialChecker(
                max_steps=max_steps, max_cycles=max_cycles,
                wall_clock_limit=wall_limit, backend=b)
            try:
                other = checker.run_reference(ref, plan, image)
            except RuntimeError as err:
                res.errors += 1
                errors.append(f"{gp.name} plan[{pidx}] functional/{b}: "
                              f"{type(err).__name__}: {err} "
                              f"(repro: {repro(backend=b)})")
                continue
            divs = DifferentialChecker.compare(oracle, other)
            if divs:
                record("functional", "-", b, plan, pidx, divs, oracle)

        # scheduled superscalar machine: models × backends
        flipped_scheds: dict[str, ScheduledProgram] = {}
        for mk in model_keys:
            if plan.flips:
                if mk not in flipped_scheds:
                    prog = clone_program(prepared)
                    apply_flips(prog, plan.flips)
                    flipped_scheds[mk], _ = schedule_ir(
                        prog, CAMPAIGN_CONFIGS[mk])
                sched = flipped_scheds[mk]
            else:
                sched = base_scheds[mk]
            for b in backends:
                res.model_cells += 1
                res.runs += 1
                checker = DifferentialChecker(
                    max_steps=max_steps, max_cycles=max_cycles,
                    wall_clock_limit=wall_limit, backend=b,
                    shiftbuf_factory=shiftbuf)
                try:
                    ssc = checker.run_superscalar(sched, plan, image)
                except RuntimeError as err:
                    res.errors += 1
                    errors.append(f"{gp.name} plan[{pidx}] {mk}/{b}: "
                                  f"{type(err).__name__}: {err} "
                                  f"(repro: {repro(model=mk, backend=b)})")
                    continue
                _apply_sabotage(sabotage, ssc)
                res.injected_hits += ssc.injected_hits
                divs = DifferentialChecker.compare(oracle, ssc)
                if divs:
                    record("superscalar", mk, b, plan, pidx, divs, oracle)

        # dynamically-scheduled comparator: benign plan only (no fault port)
        if pidx == 0:
            for variant in dyn_variants:
                res.dynamic_cells += 1
                res.runs += 1
                dyn = _run_dynamic_outcome(ref, image, variant, max_cycles)
                divs = DifferentialChecker.compare(oracle, dyn)
                if divs:
                    record("dynamic", variant, "-", plan, pidx, divs,
                           oracle)

    return res, divergences, errors


# ------------------------------------------------------------------- campaign
class FuzzCampaign:
    """Generate ``count`` programs from ``seed_start`` and run every cell."""

    def __init__(
        self,
        count: int = 50,
        seed_start: int = 0,
        config: GenConfig = GenConfig(),
        model_keys: Optional[list[str]] = None,
        backends: Optional[list[str]] = None,
        plans: int = 4,
        sabotage: Optional[str] = None,
        dynamic_variants: Optional[list[str]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        from repro.hw.backend import BACKENDS

        self.count = count
        self.seed_start = seed_start
        self.config = config
        self.model_keys = list(model_keys or DEFAULT_FUZZ_MODELS)
        bad = [m for m in self.model_keys if m not in CAMPAIGN_CONFIGS]
        if bad:
            raise ValueError(f"unknown model(s) {bad}; "
                             f"available: {sorted(CAMPAIGN_CONFIGS)}")
        self.backends = list(backends or BACKENDS)
        bad = [b for b in self.backends if b not in BACKENDS]
        if bad:
            raise ValueError(f"unknown backend(s) {bad}; "
                             f"available: {list(BACKENDS)}")
        if plans < 1:
            raise ValueError("--plans must be at least 1 (the benign plan)")
        self.plans = plans
        self.dynamic_variants = list(dynamic_variants
                                     or DYNAMIC_FUZZ_VARIANTS)
        bad = [v for v in self.dynamic_variants
               if v not in DYNAMIC_FUZZ_VARIANTS]
        if bad:
            raise ValueError(f"unknown dynamic variant(s) {bad}; "
                             f"available: {list(DYNAMIC_FUZZ_VARIANTS)}")
        if sabotage is not None and sabotage not in SABOTAGES:
            raise ValueError(f"unknown sabotage {sabotage!r}; "
                             f"available: {sorted(SABOTAGES)}")
        self.sabotage = sabotage
        self.progress = progress or (lambda msg: None)

    # ----------------------------------------------------------------- facets
    def facets(self) -> dict:
        """The identity of this campaign, for journal fingerprints."""
        return {
            "kind": "fuzz",
            "count": self.count,
            "seed_start": self.seed_start,
            "gen": self.config.key(),
            "models": list(self.model_keys),
            "backends": list(self.backends),
            "plans": self.plans,
            "sabotage": self.sabotage or "",
            "dynamic_variants": list(self.dynamic_variants),
        }

    # -------------------------------------------------------------------- run
    def run(self, jobs: int = 1, policy=None, chaos=None, journal=None
            ) -> FuzzSummary:
        """Run every program through :meth:`_program`; merge order is seed
        order at any ``jobs``, and ``journal`` restores and records
        programs as ``fuzz/<seed>``."""
        seeds = range(self.seed_start, self.seed_start + self.count)
        outcomes = run_tasks(self._program, seeds, jobs, policy, chaos,
                             journal, keys=[f"fuzz/{s:08d}" for s in seeds])
        summary = FuzzSummary()
        for seed, outcome in zip(seeds, outcomes):
            if outcome.error is not None:
                summary.results.append(FuzzProgramResult(
                    name=f"fuzz-{seed:06d}", seed=seed))
                summary.oracle_errors.append(
                    f"fuzz-{seed:06d}: worker failed: {outcome.error} "
                    f"(repro: "
                    + fuzz_repro_cmd(seed, self.config, self.plans,
                                     sabotage=self.sabotage) + ")")
                continue
            res, divergences, errors = outcome.value
            summary.results.append(res)
            summary.divergences.extend(divergences)
            summary.oracle_errors.extend(errors)
            if divergences:
                self.progress(f"  DIVERGENCE {res.name}: "
                              + ", ".join(d.signature for d in divergences))
            elif res.compile_error:
                self.progress(f"  COMPILE ERROR {res.name}")
        return summary

    def _program(self, seed: int) -> tuple[FuzzProgramResult,
                                           list[FuzzDivergence], list[str]]:
        """All cells of one generated program — the journaled payload."""
        return _run_program(seed, self.config, self.model_keys,
                            self.backends, self.plans, self.sabotage,
                            self.dynamic_variants)

    # -------------------------------------------------------- reduce + triage
    def _cell_signature(self, source: str, fd: FuzzDivergence
                        ) -> Optional[str]:
        """Replay exactly the diverging cell on candidate source; None when
        the candidate no longer compiles, runs away, or stops diverging."""
        try:
            prog = compile_source(source)
        except Exception:
            return None
        gp = generate_program(fd.seed, self.config)
        train = {k: v for k, v in gp.train.items() if k in prog.data}
        try:
            prepared = prepare_ir(prog, CAMPAIGN_CONFIGS[self.model_keys[0]],
                                  train, max_profile_steps=_REDUCE_STEPS)
            eval_in = {k: v for k, v in gp.eval.items()
                       if k in prepared.data}
            image = make_input_image(prepared, eval_in)
        except Exception:
            return None
        plan = (FaultPlan(seed=fd.plan_seed) if fd.benign
                else make_plan(prepared, fd.plan_seed))
        ref = clone_program(prepared)
        oracle_checker = DifferentialChecker(
            max_steps=_REDUCE_STEPS, max_cycles=_REDUCE_CYCLES,
            wall_clock_limit=_REDUCE_WALL, backend="reference")
        try:
            oracle = oracle_checker.run_reference(ref, plan, image)
            if fd.machine == "functional":
                checker = DifferentialChecker(
                    max_steps=_REDUCE_STEPS, max_cycles=_REDUCE_CYCLES,
                    wall_clock_limit=_REDUCE_WALL, backend=fd.backend)
                other = checker.run_reference(ref, plan, image)
            elif fd.machine == "superscalar":
                prog2 = clone_program(prepared)
                if plan.flips:
                    apply_flips(prog2, plan.flips)
                sched, _ = schedule_ir(prog2, CAMPAIGN_CONFIGS[fd.model])
                checker = DifferentialChecker(
                    max_steps=_REDUCE_STEPS, max_cycles=_REDUCE_CYCLES,
                    wall_clock_limit=_REDUCE_WALL, backend=fd.backend,
                    shiftbuf_factory=_shiftbuf_factory(self.sabotage))
                other = checker.run_superscalar(sched, plan, image)
                _apply_sabotage(self.sabotage, other)
            else:  # dynamic — fd.model names the variant
                other = _run_dynamic_outcome(ref, image, fd.model,
                                             _REDUCE_CYCLES)
        except Exception:
            return None
        divs = DifferentialChecker.compare(oracle, other)
        if not divs:
            return None
        return _signature(fd.machine, fd.model, fd.backend, divs, oracle)

    def finalize(self, summary: FuzzSummary,
                 triage_dir: Optional[Path] = None,
                 reduce: bool = True) -> FuzzSummary:
        """Reduce the first divergence of each signature and file the
        triage corpus.  Runs serially in the parent *after* the merge, on
        the already-deterministic divergence list — parallelism cannot
        change which divergence represents a bucket."""
        by_signature: dict[str, list[FuzzDivergence]] = {}
        for fd in summary.divergences:
            by_signature.setdefault(fd.signature, []).append(fd)
        for sig in sorted(by_signature):
            group = by_signature[sig]
            fd = group[0]
            if reduce:
                self.progress(f"  reducing {fd.program} [{sig}] ...")
                try:
                    result = reduce_source(
                        fd.source,
                        lambda src: self._cell_signature(src, fd) == sig)
                    fd.reduced_source = result.source
                    fd.reduce_note = result.summary()
                except ValueError as err:
                    fd.reduce_note = f"reduction skipped: {err}"
            entry = TriageEntry(
                signature=sig, bucket=_bucket_name(sig), program=fd.program,
                seed=fd.seed, occurrences=len(group),
                reduced_lines=len((fd.reduced_source
                                   or fd.source).splitlines()),
                note=fd.reduce_note or "not reduced")
            if triage_dir is not None:
                _write_bucket(Path(triage_dir), fd, entry)
            summary.triage.append(entry)
        return summary


def _bucket_name(signature: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", signature.lower()).strip("-")[:60]
    digest = hashlib.sha256(signature.encode()).hexdigest()[:8]
    return f"{slug}-{digest}"


def _write_bucket(triage_dir: Path, fd: FuzzDivergence,
                  entry: TriageEntry) -> None:
    """File one signature bucket: minimized source, original source, and a
    machine-readable record with the one-line repro."""
    bucket = triage_dir / entry.bucket
    bucket.mkdir(parents=True, exist_ok=True)
    (bucket / "repro.mc").write_text(fd.reduced_source or fd.source)
    (bucket / "original.mc").write_text(fd.source)
    record = {
        "schema": "repro-triage/1",
        "signature": fd.signature,
        "program": fd.program,
        "seed": fd.seed,
        "plan_seed": fd.plan_seed,
        "plan_index": fd.plan_index,
        "plan": fd.plan_text,
        "machine": fd.machine,
        "model": fd.model,
        "backend": fd.backend,
        "divergences": [str(d) for d in fd.divergences],
        "occurrences": entry.occurrences,
        "reduce": entry.note,
        "repro": fd.repro_cmd,
    }
    tmp = bucket / "record.json.tmp"
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    tmp.replace(bucket / "record.json")


__all__ = ["DEFAULT_FUZZ_MODELS", "DYNAMIC_FUZZ_VARIANTS", "FuzzCampaign",
           "FuzzDivergence", "FuzzProgramResult", "FuzzSummary", "SABOTAGES",
           "TriageEntry", "fuzz_repro_cmd"]
