"""Differential execution: scheduled machine vs functional reference.

Both machines run the same workload under the same :class:`FaultPlan`; the
checker then compares every observable that is *architecturally defined*:

* **trap identity** — kind, architectural instruction uid, faulting address.
  This is the paper's precision claim (Section 2.3): however far an
  excepting instruction was boosted, the fault must surface attributed to
  exactly the instruction the sequential semantics would blame.
* **output** — the PRINT stream.  Exact equality on clean exits.  When a
  run traps, the streams need only be prefix-consistent: the schedule may
  legally reorder a PRINT with an *independent* excepting instruction
  inside one basic block, so the two machines can cut the (identical)
  stream at slightly different points.
* **final memory** — compared byte-for-byte, but only when both machines
  exit cleanly, for the same reason: an independent store may legally sit
  on either side of the fault point within a block.

Register files are deliberately *not* compared: safe speculation leaves
different values in dead-at-exit registers, and that is correct behaviour,
not a divergence.

A machine failure (schedule-contract violation, shadow-state overflow,
watchdog timeout) on the superscalar side while the reference behaves is
itself a divergence — a wedged machine is as wrong as a corrupted one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.hw.exceptions import ExceptionShiftBuffer, Trap
from repro.hw.functional import FunctionalSim
from repro.hw.superscalar import SuperscalarSim
from repro.program.procedure import Program
from repro.sched.schedprog import ScheduledProgram
from repro.verify.errors import Divergence, DivergenceError
from repro.verify.faults import FaultInjector, FaultPlan


@dataclass
class RunOutcome:
    """What one machine observably did."""

    machine: str
    output: list[int] = field(default_factory=list)
    trap: Optional[Trap] = None
    memory: Optional[bytes] = None
    #: machine failure (watchdog, schedule violation, ...), if any
    error: Optional[str] = None
    instr_count: int = 0
    injected_hits: int = 0
    recoveries: int = 0
    boosted_executed: int = 0
    boosted_squashed: int = 0
    mispredicts: int = 0

    @property
    def completed(self) -> bool:
        return self.error is None and self.trap is None

    def memory_digest(self) -> str:
        if self.memory is None:
            return "(none)"
        return hashlib.sha256(self.memory).hexdigest()[:16]

    def summary(self) -> str:
        if self.error is not None:
            return f"{self.machine}: ERROR {self.error}"
        tail = f"trap={self.trap}" if self.trap is not None else "clean"
        return (f"{self.machine}: {len(self.output)} outputs, "
                f"{self.instr_count} instrs, {tail}")


def _trap_key(trap: Trap) -> tuple:
    return (trap.kind, trap.instr_uid, trap.addr)


@dataclass
class CheckReport:
    """Result of one differential run."""

    workload: str
    config: str
    plan: FaultPlan
    reference: RunOutcome
    superscalar: RunOutcome
    divergences: list[Divergence] = field(default_factory=list)
    backend: str = ""

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def trapped(self) -> bool:
        return self.reference.trap is not None

    def raise_if_divergent(self) -> None:
        if self.divergences:
            raise DivergenceError(
                divergences=self.divergences, workload=self.workload,
                config=self.config, seed=self.plan.seed,
                plan_text=self.plan.describe(), backend=self.backend,
                context={"reference": self.reference.summary(),
                         "superscalar": self.superscalar.summary()})


class DifferentialChecker:
    """Runs one scheduled program and its reference under a fault plan."""

    def __init__(
        self,
        max_cycles: int = 20_000_000,
        max_steps: int = 20_000_000,
        wall_clock_limit: Optional[float] = 60.0,
        shiftbuf_factory: Optional[Callable[[int], ExceptionShiftBuffer]] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.max_cycles = max_cycles
        self.max_steps = max_steps
        self.wall_clock_limit = wall_clock_limit
        #: substitute exception shift buffer, ``levels -> buffer`` — used by
        #: the self-test to plant deliberately broken hardware
        self.shiftbuf_factory = shiftbuf_factory
        #: execution engine for both machines (None: the environment's
        #: choice) — the fuzz campaign's cross-backend oracle sets this
        self.backend = backend

    @staticmethod
    def _hook(plan: FaultPlan) -> Optional[FaultInjector]:
        """An injector only when the plan actually targets an instruction.

        A hook with no targets is behaviourally inert, but its mere
        presence forces both simulators off the translating engine (the
        generated blocks have no per-instruction hook points) — so a
        benign or flip-only plan must run hook-free, or the backend under
        test silently degrades to the interpreter.
        """
        return FaultInjector(plan) if plan.traps else None

    # ------------------------------------------------------------------ runs
    def run_reference(self, reference: Program, plan: FaultPlan,
                      input_image) -> RunOutcome:
        injector = self._hook(plan)
        sim = FunctionalSim(reference, max_steps=self.max_steps,
                            input_image=input_image, fault_hook=injector,
                            wall_clock_limit=self.wall_clock_limit,
                            backend=self.backend)
        outcome = RunOutcome(machine="functional")
        try:
            sim.run()
        except Trap as trap:
            outcome.trap = trap
        outcome.output = sim.result.output
        outcome.trap = outcome.trap or sim.result.trap
        outcome.instr_count = sim.result.instr_count
        outcome.mispredicts = sim.result.mispredict_count
        outcome.injected_hits = injector.total_hits if injector else 0
        outcome.memory = sim.mem.snapshot()
        return outcome

    def run_superscalar(self, sched: ScheduledProgram, plan: FaultPlan,
                        input_image) -> RunOutcome:
        injector = self._hook(plan)
        shiftbuf = None
        if self.shiftbuf_factory is not None:
            shiftbuf = self.shiftbuf_factory(max(sched.model.max_level, 1))
        sim = SuperscalarSim(sched, max_cycles=self.max_cycles,
                             input_image=input_image, fault_hook=injector,
                             wall_clock_limit=self.wall_clock_limit,
                             shiftbuf=shiftbuf, backend=self.backend)
        outcome = RunOutcome(machine="superscalar")
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
        outcome.injected_hits = injector.total_hits if injector else 0
        outcome.recoveries = sim.recovery_invocations
        outcome.boosted_executed = sim.boosted_executed
        outcome.boosted_squashed = sim.boosted_squashed
        if outcome.error is None:
            outcome.memory = sim.mem.snapshot()
        return outcome

    # ------------------------------------------------------------ comparison
    @staticmethod
    def compare(ref: RunOutcome, ssc: RunOutcome) -> list[Divergence]:
        if ssc.error is not None:
            return [Divergence("machine-error", ref.summary(), ssc.error)]

        out: list[Divergence] = []
        trapped = ref.trap is not None or ssc.trap is not None
        if (ref.trap is None) != (ssc.trap is None):
            out.append(Divergence(
                "trap", str(ref.trap) if ref.trap else "no trap",
                str(ssc.trap) if ssc.trap else "no trap",
                "one machine faulted, the other did not"))
        elif ref.trap is not None and _trap_key(ref.trap) != _trap_key(ssc.trap):
            out.append(Divergence(
                "trap",
                f"{ref.trap.kind.name} uid={ref.trap.instr_uid} "
                f"addr={ref.trap.addr}",
                f"{ssc.trap.kind.name} uid={ssc.trap.instr_uid} "
                f"addr={ssc.trap.addr}",
                "fault surfaced imprecisely"))

        if trapped:
            short = min(len(ref.output), len(ssc.output))
            if ref.output[:short] != ssc.output[:short]:
                idx = next(i for i in range(short)
                           if ref.output[i] != ssc.output[i])
                out.append(Divergence(
                    "output", str(ref.output[idx]), str(ssc.output[idx]),
                    f"streams disagree at position {idx} (before the trap "
                    "cut-off, so block-local reordering cannot explain it)"))
        else:
            if ref.output != ssc.output:
                detail = f"lengths {len(ref.output)} vs {len(ssc.output)}"
                short = min(len(ref.output), len(ssc.output))
                for i in range(short):
                    if ref.output[i] != ssc.output[i]:
                        detail = f"first difference at position {i}"
                        break
                out.append(Divergence(
                    "output", f"{ref.output[:6]}...", f"{ssc.output[:6]}...",
                    detail))
            if (ref.memory is not None and ssc.memory is not None
                    and ref.memory != ssc.memory):
                offset = next(i for i, (a, b)
                              in enumerate(zip(ref.memory, ssc.memory))
                              if a != b)
                out.append(Divergence(
                    "memory", ref.memory_digest(), ssc.memory_digest(),
                    f"first differing byte at {offset:#x}"))
        return out

    # ----------------------------------------------------------------- check
    def check(
        self,
        sched: ScheduledProgram,
        reference: Program,
        plan: FaultPlan,
        input_image=None,
        workload: str = "?",
        config: str = "?",
    ) -> CheckReport:
        """Run both machines and compare; raises :class:`DivergenceError`
        on any disagreement."""
        ref = self.run_reference(reference, plan, input_image)
        ssc = self.run_superscalar(sched, plan, input_image)
        report = CheckReport(workload=workload, config=config, plan=plan,
                             reference=ref, superscalar=ssc,
                             divergences=self.compare(ref, ssc),
                             backend=self.backend or "")
        report.raise_if_divergent()
        return report

    def compare_only(self, sched, reference, plan, input_image=None,
                     workload: str = "?", config: str = "?") -> CheckReport:
        """Like :meth:`check` but never raises — the campaign's workhorse."""
        ref = self.run_reference(reference, plan, input_image)
        ssc = self.run_superscalar(sched, plan, input_image)
        return CheckReport(workload=workload, config=config, plan=plan,
                           reference=ref, superscalar=ssc,
                           divergences=self.compare(ref, ssc),
                           backend=self.backend or "")
