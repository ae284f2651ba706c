"""Verification campaigns over the workload suite × boosting models × seeds.

One campaign cell is ``(workload, model, seed)``: a seeded fault plan is
drawn, the workload is scheduled for the model (re-scheduled from a clone
when the plan flips predictions — flips must be visible to the trace
selector), and the differential checker runs both machines.  The expensive
preparation (front end, optimizer, allocator, profile) happens once per
workload; the unflipped schedule once per (workload, model).

When a cell diverges the campaign *minimizes* the provocation before
reporting: it replays the cell with the benign plan, the trap alone, and
the flips alone, and blames the smallest plan that still disagrees.

The campaign also carries a **self-test**: it plants a deliberately broken
exception shift buffer (one that drops every committing fault) in the
superscalar machine and hunts seeds until the checker catches the resulting
misbehaviour.  A differential checker that cannot see a sabotaged machine
proves nothing about a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.frontend import compile_source
from repro.harness.cache import CompileCache
from repro.hw.backend import backend_choice
from repro.harness.parallel import run_tasks
from repro.harness.pipeline import (
    CompileConfig, make_input_image, prepare_ir, schedule_ir,
)
from repro.hw.exceptions import ExceptionShiftBuffer, PendingBoostException
from repro.program.procedure import Program, clone_program
from repro.sched.boostmodel import BOOST1, BOOST7, MINBOOST3, NO_BOOST, SQUASHING
from repro.sched.machine import SUPERSCALAR
from repro.verify.differential import CheckReport, DifferentialChecker
from repro.verify.errors import DivergenceError
from repro.verify.faults import FaultPlan, apply_flips, make_plan
from repro.workloads import all_workloads

#: model configurations the campaign exercises (all share one preparation:
#: same optimizer, allocator, and profile settings)
CAMPAIGN_CONFIGS: dict[str, CompileConfig] = {
    "global": CompileConfig(machine=SUPERSCALAR, model=NO_BOOST),
    "squashing": CompileConfig(machine=SUPERSCALAR, model=SQUASHING),
    "boost1": CompileConfig(machine=SUPERSCALAR, model=BOOST1),
    "minboost3": CompileConfig(machine=SUPERSCALAR, model=MINBOOST3),
    "boost7": CompileConfig(machine=SUPERSCALAR, model=BOOST7),
}

DEFAULT_MODELS = ("squashing", "boost1", "minboost3", "boost7")


def verify_repro_cmd(workload: str, model: str, seed: Optional[int] = None,
                     seeds: Optional[int] = None,
                     seed_start: int = 0) -> str:
    """A copy-pasteable one-line repro for a campaign cell.

    Every divergence and failure record carries one of these so triage
    never starts by reconstructing flags from a report by hand.  The
    current backend is always named: a repro that silently depends on the
    reader's ``REPRO_SIM_BACKEND`` is not a repro.
    """
    from repro.hw.backend import backend_choice

    cmd = f"python -m repro verify --workloads {workload} --models {model}"
    if seed is not None:
        cmd += f" --seed {seed}"
    elif seeds is not None:
        cmd += f" --seeds {seeds} --seed-start {seed_start}"
    return cmd + f" --backend {backend_choice()}"


@dataclass
class CampaignResult:
    """Aggregated outcome of one (workload, model) bucket."""

    workload: str
    config: str
    runs: int = 0
    trapped: int = 0
    clean: int = 0
    flipped: int = 0
    injected_hits: int = 0
    recoveries: int = 0
    boosted_squashed: int = 0
    divergent: int = 0
    errors: int = 0


@dataclass
class CampaignSummary:
    results: list[CampaignResult] = field(default_factory=list)
    divergences: list[DivergenceError] = field(default_factory=list)
    oracle_errors: list[str] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return sum(r.runs for r in self.results)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.oracle_errors

    def format(self) -> str:
        lines = ["workload   model      runs  trap clean  flip   hits "
                 "recov squash   DIVERGE"]
        for r in self.results:
            lines.append(
                f"{r.workload:<10} {r.config:<10} {r.runs:>4} {r.trapped:>5} "
                f"{r.clean:>5} {r.flipped:>5} {r.injected_hits:>6} "
                f"{r.recoveries:>5} {r.boosted_squashed:>6} "
                f"{r.divergent:>9}")
        lines.append(f"total runs: {self.runs}, "
                     f"divergences: {len(self.divergences)}, "
                     f"oracle errors: {len(self.oracle_errors)}")
        for err in self.divergences:
            lines.append("")
            lines.append(err.describe())
        for msg in self.oracle_errors:
            lines.append(f"oracle error: {msg}")
        return "\n".join(lines)


class VerifyCampaign:
    def __init__(
        self,
        workload_names: Optional[list[str]] = None,
        model_keys: Optional[list[str]] = None,
        seeds: int = 20,
        seed_start: int = 0,
        progress: Optional[Callable[[str], None]] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        available = {w.name: w for w in all_workloads()}
        names = workload_names or sorted(available)
        unknown = [n for n in names if n not in available]
        if unknown:
            raise ValueError(f"unknown workload(s) {unknown}; "
                             f"available: {sorted(available)}")
        self.workloads = [available[n] for n in names]
        self.model_keys = list(model_keys or DEFAULT_MODELS)
        bad = [m for m in self.model_keys if m not in CAMPAIGN_CONFIGS]
        if bad:
            raise ValueError(f"unknown model(s) {bad}; "
                             f"available: {sorted(CAMPAIGN_CONFIGS)}")
        self.seeds = seeds
        self.seed_start = seed_start
        self.checker = DifferentialChecker()
        self.progress = progress or (lambda msg: None)
        self.cache = cache
        #: the last workload this process prepared: (name, prepared program,
        #: input image, fault plans)
        self._last_prepared: Optional[tuple] = None

    # ------------------------------------------------------------------- run
    def run(self, jobs: int = 1, policy=None, chaos=None, journal=None
            ) -> CampaignSummary:
        """Run every (workload, model) bucket through :meth:`_bucket` and
        merge in bucket order, so the formatted summary is byte-identical
        at any ``jobs``.

        ``journal`` (a :class:`repro.harness.resilience.Journal`) makes the
        campaign crash-safe: buckets already journaled are restored instead
        of re-run — their workload is not even re-prepared — and every
        completed bucket is durably appended the moment it finishes, so a
        SIGKILL'd campaign resumed with the same journal produces a
        byte-identical summary.  ``policy``/``chaos`` select supervised
        execution (timeouts, worker replacement, retries, fault
        injection)."""
        buckets = [(w.name, model_key)
                   for w in self.workloads for model_key in self.model_keys]
        outcomes = run_tasks(self._bucket, buckets, jobs, policy, chaos,
                             journal, keys=[f"{w}/{m}" for w, m in buckets])
        summary = CampaignSummary()
        for (wname, model_key), outcome in zip(buckets, outcomes):
            if outcome.error is not None:
                summary.results.append(
                    CampaignResult(workload=wname, config=model_key))
                summary.oracle_errors.append(
                    f"{wname}/{model_key}: worker failed: "
                    f"{outcome.error} (repro: "
                    + verify_repro_cmd(wname, model_key, seeds=self.seeds,
                                       seed_start=self.seed_start) + ")")
                continue
            bucket, divergences, oracle_errors = outcome.value
            summary.results.append(bucket)
            summary.divergences.extend(divergences)
            summary.oracle_errors.extend(oracle_errors)
        return summary

    def _bucket(self, task: tuple[str, str]
                ) -> tuple[CampaignResult, list[DivergenceError], list[str]]:
        """One (workload, model) bucket — the journaled payload.  The last
        prepared workload is memoized: buckets arrive in workload order, so
        a process prepares each workload once (a retry can bring one
        back)."""
        wname, model_key = task
        if self._last_prepared is None or self._last_prepared[0] != wname:
            self.progress(f"preparing {wname} ...")
            w = next(w for w in self.workloads if w.name == wname)
            prepared = self._prepare(w)
            image = make_input_image(prepared, w.eval)
            plans = [make_plan(prepared, seed) for seed in
                     range(self.seed_start, self.seed_start + self.seeds)]
            self._last_prepared = (wname, prepared, image, plans)
        _, prepared, image, plans = self._last_prepared
        return self._run_bucket(wname, model_key, prepared, image, plans)

    def _prepare(self, w) -> Program:
        config = CAMPAIGN_CONFIGS[self.model_keys[0]]
        if self.cache is not None:
            return self.cache.prepare_ir(w.source, config, w.train)
        return prepare_ir(compile_source(w.source), config, w.train)

    def _run_bucket(self, wname: str, model_key: str, prepared: Program,
                    image, plans: list[FaultPlan],
                    ) -> tuple[CampaignResult, list[DivergenceError],
                               list[str]]:
        config = CAMPAIGN_CONFIGS[model_key]
        bucket = CampaignResult(workload=wname, config=model_key)
        divergences: list[DivergenceError] = []
        oracle_errors: list[str] = []
        base_prog = clone_program(prepared)
        base_ref = clone_program(prepared)
        base_sched, _ = schedule_ir(base_prog, config)
        for plan in plans:
            bucket.runs += 1
            try:
                if plan.flips:
                    bucket.flipped += 1
                    sched, ref = self._flipped(prepared, plan, config)
                else:
                    sched, ref = base_sched, base_ref
                report = self.checker.compare_only(
                    sched, ref, plan, image, workload=wname,
                    config=model_key)
            except RuntimeError as err:
                bucket.errors += 1
                oracle_errors.append(
                    f"{wname}/{model_key} seed={plan.seed}: "
                    f"{type(err).__name__}: {err} (repro: "
                    f"{verify_repro_cmd(wname, model_key, seed=plan.seed)})")
                continue
            bucket.trapped += 1 if report.trapped else 0
            bucket.clean += 1 if report.reference.completed else 0
            bucket.injected_hits += report.superscalar.injected_hits
            bucket.recoveries += report.superscalar.recoveries
            bucket.boosted_squashed += report.superscalar.boosted_squashed
            if report.divergences:
                bucket.divergent += 1
                err = self._minimize(wname, model_key, prepared, image,
                                     plan, base_sched, base_ref, report)
                divergences.append(err)
                self.progress(f"  DIVERGENCE {wname}/{model_key} "
                              f"seed={plan.seed}")
        self.progress(f"  {wname}/{model_key}: {bucket.runs} runs, "
                      f"{bucket.trapped} trapped, "
                      f"{bucket.recoveries} recoveries, "
                      f"{bucket.divergent} divergences")
        return bucket, divergences, oracle_errors

    def _flipped(self, prepared: Program, plan: FaultPlan,
                 config: CompileConfig):
        flipped = clone_program(prepared)
        apply_flips(flipped, plan.flips)
        ref = clone_program(flipped)
        sched, _ = schedule_ir(flipped, config)
        return sched, ref

    def _minimize(self, wname: str, model_key: str, prepared: Program,
                  image, plan: FaultPlan, base_sched, base_ref,
                  full_report: CheckReport) -> DivergenceError:
        """Blame the smallest sub-plan that still diverges."""
        variants: list[FaultPlan] = []
        if plan.traps or plan.flips:
            variants.append(FaultPlan(plan.seed))
        if plan.traps and plan.flips:
            variants.append(plan.without_flips())
            variants.append(plan.without_traps())
        config = CAMPAIGN_CONFIGS[model_key]
        for variant in variants:
            try:
                if variant.flips:
                    sched, ref = self._flipped(prepared, variant, config)
                else:
                    sched, ref = base_sched, base_ref
                report = self.checker.compare_only(
                    sched, ref, variant, image, workload=wname,
                    config=model_key)
            except RuntimeError:
                continue
            if report.divergences:
                return DivergenceError(
                    divergences=report.divergences, workload=wname,
                    config=model_key, seed=plan.seed,
                    plan_text=variant.describe(), minimized=True,
                    backend=backend_choice(),
                    context={"full_plan": plan.describe()})
        return DivergenceError(
            divergences=full_report.divergences, workload=wname,
            config=model_key, seed=plan.seed, plan_text=plan.describe(),
            backend=backend_choice(),
            context={"reference": full_report.reference.summary(),
                     "superscalar": full_report.superscalar.summary()})


# ------------------------------------------------------------------ self-test
class BrokenShiftBuffer(ExceptionShiftBuffer):
    """Sabotaged hardware: committing boosted faults are silently dropped.

    A machine built with this buffer completes runs whose reference traps
    (or commits garbage a faulted instruction never produced) — the checker
    MUST notice, or the whole campaign is security theatre.
    """

    def shift(self, committing_branch_uid: int
              ) -> Optional[PendingBoostException]:
        super().shift(committing_branch_uid)
        return None


#: micro workload for the self-test: the load sits on the dominant arm of
#: the inner branch, so the global scheduler boosts it above the branch —
#: an injected fault on it must travel through the shift buffer to surface
_SELFTEST_SOURCE = """
global buf[8] = { 3, 1, 4, 1, 5, 9, 2, 6 };

func main() {
    var acc = 0;
    var i = 0;
    while (i < 32) {
        var v = 0 - 1;
        if (i % 8 < 7) {
            v = buf[i % 8];
        }
        acc = acc + v;
        print(acc);
        i = i + 1;
    }
}
"""


@dataclass
class SelfTestResult:
    caught: bool
    seed: Optional[int] = None
    seeds_tried: int = 0
    detail: str = ""

    def format(self) -> str:
        if self.caught:
            return (f"self-test PASSED: broken shift buffer caught at "
                    f"seed {self.seed} ({self.seeds_tried} seeds tried)\n"
                    f"{self.detail}")
        return (f"self-test FAILED: broken shift buffer escaped "
                f"{self.seeds_tried} seeds — the checker is blind")


def run_selftest(max_seeds: int = 64,
                 model_key: str = "minboost3") -> SelfTestResult:
    """Hunt seeds until the checker convicts the broken shift buffer.

    Every seed also runs against the *healthy* machine first; a divergence
    there would mean the checker (not the sabotage) is broken, and the
    self-test fails loudly rather than claiming a catch.
    """
    config = CAMPAIGN_CONFIGS[model_key]
    prepared = prepare_ir(compile_source(_SELFTEST_SOURCE), config, None)
    healthy = DifferentialChecker()
    broken = DifferentialChecker(
        shiftbuf_factory=lambda levels: BrokenShiftBuffer(levels))

    tried = 0
    for seed in range(max_seeds):
        plan = make_plan(prepared, seed)
        if not plan.traps:
            continue  # only a deferred fault can expose the sabotage
        tried += 1
        if plan.flips:
            program = clone_program(prepared)
            apply_flips(program, plan.flips)
        else:
            program = clone_program(prepared)
        ref = clone_program(program)
        sched, _ = schedule_ir(program, config)
        sane = healthy.compare_only(sched, ref, plan, None,
                                    workload="selftest", config=model_key)
        if sane.divergences:
            return SelfTestResult(
                caught=False, seed=seed, seeds_tried=tried,
                detail="healthy machine diverged: "
                       + "; ".join(str(d) for d in sane.divergences))
        try:
            broken.check(sched, ref, plan, None, workload="selftest",
                         config=model_key)
        except DivergenceError as err:
            return SelfTestResult(caught=True, seed=seed, seeds_tried=tried,
                                  detail=err.describe())
    return SelfTestResult(caught=False, seeds_tried=tried)
