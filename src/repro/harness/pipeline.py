"""The compile-and-measure pipeline the experiments drive.

Mirrors the paper's flow (Section 4.3): Minic source → standard
optimizations → register allocation (round-robin or infinite) → *branch
profiling on a training input* → scheduling (basic-block or global, under a
boosting model) → execution-driven timing simulation on the evaluation
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.frontend import compile_source
from repro.hw.exceptions import ExecutionResult
from repro.hw.functional import FunctionalSim
from repro.hw.superscalar import SuperscalarSim
from repro.opt import (
    allocate_program, clean_program, dce_program, fold_program,
    optimize_program, propagate_program, unroll_program,
)
from repro.obs.stats import record_schedule_occupancy
from repro.program.procedure import Program, clone_program
from repro.sched.bbsched import schedule_program_bb
from repro.sched.boostmodel import BoostModel, NO_BOOST
from repro.sched.globalsched import GlobalScheduleStats, schedule_program_global
from repro.sched.machine import MachineConfig, SCALAR, SUPERSCALAR
from repro.sched.schedprog import ScheduledProgram

InputSet = dict[str, Union[list[int], bytes, int]]


@dataclass(frozen=True)
class CompileConfig:
    """One point in the paper's design space."""

    machine: MachineConfig = SUPERSCALAR
    model: BoostModel = NO_BOOST
    scheduler: str = "global"        # "bb" | "global"
    regalloc: str = "round_robin"    # "round_robin" | "infinite"
    optimize: bool = True
    #: unroll eligible innermost loops this many times (1 = off; §4.3.2)
    unroll: int = 1

    def describe(self) -> str:
        reg = "∞regs" if self.regalloc == "infinite" else "32regs"
        return (f"{self.machine.name}/{self.scheduler}/{self.model.name}/"
                f"{reg}")


#: The scalar R2000 baseline configuration of Table 1.
SCALAR_CONFIG = CompileConfig(machine=SCALAR, model=NO_BOOST, scheduler="bb")


def make_input_image(program: Program, inputs: Optional[InputSet]
                     ) -> list[tuple[int, bytes]]:
    """Turn a {global name: contents} mapping into a memory patch.

    Every name must be a global the program declares, and no two patches may
    overlap — both are caller mistakes that would otherwise surface as a bare
    ``KeyError`` or silent data corruption deep inside the simulator.
    """
    if not inputs:
        return []
    unknown = sorted(name for name in inputs if name not in program.data)
    if unknown:
        known = ", ".join(sorted(program.data.symbols())) or "(none)"
        raise ValueError(
            f"unknown input name(s) {', '.join(repr(n) for n in unknown)}; "
            f"program globals are: {known}")
    image: list[tuple[int, bytes]] = []
    spans: list[tuple[int, int, str]] = []
    for name, contents in inputs.items():
        addr = program.data.address_of(name)
        size = program.data.size_of(name)
        if isinstance(contents, int):
            raw = (contents & 0xFFFFFFFF).to_bytes(4, "little")
        elif isinstance(contents, bytes):
            raw = contents
        else:
            raw = b"".join((v & 0xFFFFFFFF).to_bytes(4, "little")
                           for v in contents)
        if len(raw) > size:
            raise ValueError(
                f"input for {name!r} is {len(raw)} bytes; buffer is {size}")
        for other_addr, other_end, other in spans:
            if addr < other_end and other_addr < addr + len(raw):
                raise ValueError(
                    f"input {name!r} overlaps input {other!r} "
                    f"({addr:#x}..{addr + len(raw):#x} vs "
                    f"{other_addr:#x}..{other_end:#x})")
        spans.append((addr, addr + len(raw), name))
        image.append((addr, raw))
    return image


def annotate_predictions(program: Program, profile) -> None:
    """Write profile-derived static predictions into the branch encodings."""
    program.invalidate_caches()
    for proc in program.procedures.values():
        for block in proc.blocks:
            term = block.terminator
            if term is None or not term.op.is_cond_branch:
                continue
            prob = profile.taken_prob(term.uid) if profile else None
            block.taken_prob = prob
            term.predict_taken = (prob is not None and prob >= 0.5)


@dataclass
class CompiledProgram:
    """A scheduled program plus everything needed to measure it."""

    config: CompileConfig
    program: Program
    sched: ScheduledProgram
    stats: Optional[GlobalScheduleStats] = None
    source_instr_count: int = 0
    #: pre-schedule snapshot of the IR — the functional oracle.  Scheduling
    #: mutates ``program`` in place in ways that are only correct under the
    #: schedule's interpretation, so the reference semantics live here.
    reference: Optional[Program] = None

    def run(self, inputs: Optional[InputSet] = None,
            **kwargs) -> ExecutionResult:
        image = make_input_image(self.program, inputs)
        sim = SuperscalarSim(self.sched, input_image=image, **kwargs)
        return sim.run()

    def run_functional(self, inputs: Optional[InputSet] = None,
                       **kwargs) -> ExecutionResult:
        oracle = self.reference if self.reference is not None else self.program
        image = make_input_image(oracle, inputs)
        return FunctionalSim(oracle, input_image=image, **kwargs).run()


def prepare_ir(
    program: Program,
    config: CompileConfig,
    train_inputs: Optional[InputSet] = None,
    max_profile_steps: int = 50_000_000,
) -> Program:
    """Everything before scheduling, in place: optimize, allocate, clean up,
    profile on the training input, and annotate static predictions.

    The returned program is *schedulable but not yet scheduled* — snapshot it
    with :func:`~repro.program.procedure.clone_program` to schedule the same
    preparation several times (the verification campaign does exactly this).
    """
    if config.optimize:
        optimize_program(program)
    if config.unroll > 1:
        unroll_program(program, factor=config.unroll)
        if config.optimize:
            optimize_program(program)
    allocate_program(program, model=config.regalloc)
    # Post-allocation cleanup: coalescing leaves self-moves behind.
    propagate_program(program)
    fold_program(program)
    dce_program(program)
    clean_program(program)

    image = make_input_image(program, train_inputs)
    profiler = FunctionalSim(program, profile=True, input_image=image,
                             max_steps=max_profile_steps)
    profiler.run()
    annotate_predictions(program, profiler.profile)
    return program


def schedule_ir(program: Program, config: CompileConfig
                ) -> tuple[ScheduledProgram, Optional[GlobalScheduleStats]]:
    """Schedule a prepared IR program (mutates it in place)."""
    if config.scheduler == "bb":
        stats = GlobalScheduleStats()
        sched = schedule_program_bb(program, config.machine, config.model,
                                    stats=stats)
        record_schedule_occupancy(sched, stats)
        return sched, stats
    if config.scheduler == "global":
        return schedule_program_global(program, config.machine, config.model)
    raise ValueError(f"unknown scheduler {config.scheduler!r}")


def compile_ir(
    program: Program,
    config: CompileConfig,
    train_inputs: Optional[InputSet] = None,
    max_profile_steps: int = 50_000_000,
) -> CompiledProgram:
    """Optimize, allocate, profile, and schedule an IR program (in place)."""
    prepare_ir(program, config, train_inputs, max_profile_steps)
    source_count = program.instruction_count()
    reference = clone_program(program)
    sched, stats = schedule_ir(program, config)
    # Generate the superscalar engine's code and compile every function of
    # it now, so it is part of the compile and of CompileCache payloads (the
    # unit is an attribute of the schedule and pickles with its code
    # objects): a warm run compiles nothing for this engine.  The
    # reference's functional unit is left to its first translate run,
    # which compiles only the superblocks it reaches: bench runs only the
    # scalar cell's reference.
    from repro.hw import translate
    unit = translate.superscalar_unit(sched)
    if unit is not None:
        unit.compile_all()
    return CompiledProgram(config=config, program=program, sched=sched,
                           stats=stats, source_instr_count=source_count,
                           reference=reference)


def compile_minic(
    source: str,
    config: CompileConfig,
    train_inputs: Optional[InputSet] = None,
    **kwargs,
) -> CompiledProgram:
    """Front-end + pipeline in one call.

    Each call recompiles from source: scheduling mutates the IR (boost
    labels, compensation code), so configurations never share a program.
    """
    return compile_ir(compile_source(source), config, train_inputs, **kwargs)
