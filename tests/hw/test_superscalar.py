"""Pipeline semantics of the statically-scheduled machine."""

import pytest

from repro.hw.superscalar import SimulationError, SuperscalarSim, run_scheduled
from repro.isa import Instruction, Opcode, Reg, ZERO
from repro.program import ProcBuilder, Program
from repro.sched.bbsched import schedule_program_bb
from repro.sched.boostmodel import BOOST1, MINBOOST3, NO_BOOST
from repro.sched.machine import SCALAR, SUPERSCALAR
from repro.sched.schedprog import (
    ScheduledBlock, ScheduledProcedure, ScheduledProgram,
)

T0, T1, T2, T3 = (Reg.named(f"t{i}") for i in range(4))


def simple_program(fill) -> Program:
    program = Program()
    b = ProcBuilder("main", data=program.data)
    fill(b, program)
    program.add(b.build())
    return program


def hand_schedule(program: Program, blocks, model=NO_BOOST) -> ScheduledProgram:
    """Build a ScheduledProgram from explicit (label, rows, term_cycle)."""
    sched = ScheduledProgram(program, SUPERSCALAR, model)
    sp = ScheduledProcedure("main")
    for label, rows, term_cycle in blocks:
        sp.add_block(ScheduledBlock(label, rows, term_cycle))
    sched.add(sp)
    return sched


def i(op, **kw):
    return Instruction(op, **kw)


def test_delay_cycle_executes_on_taken_branch():
    # branch taken; the delay-cycle instruction must still execute.
    program = simple_program(lambda b, p: None)
    program.procedures.clear()
    from repro.program import BasicBlock, Procedure
    entry = BasicBlock("entry")
    target = BasicBlock("target")
    proc = Procedure("main", [entry, target])
    program.add(proc)

    li1 = i(Opcode.LI, dst=T0, imm=1)
    br = i(Opcode.BEQ, srcs=(ZERO, ZERO), target="target",
           predict_taken=True)
    delay_instr = i(Opcode.LI, dst=T1, imm=42)
    pr0 = i(Opcode.PRINT, srcs=(T1,))
    halt = i(Opcode.HALT)
    sched = hand_schedule(program, [
        ("entry", [[li1, None], [br, None], [delay_instr, None]], 1),
        ("target", [[pr0, None], [halt, None]], 1),
    ])
    result = run_scheduled(sched)
    assert result.output == [42]


def test_stall_interlock_on_cross_block_latency():
    # A load in a block's final cycle; the consumer in the next block must
    # stall rather than read a stale value.
    program = Program()
    program.data.words("x", [77])
    from repro.program import BasicBlock, Procedure
    b1 = BasicBlock("entry")
    b2 = BasicBlock("next")
    program.add(Procedure("main", [b1, b2]))
    addr = program.data.address_of("x")

    li_addr = i(Opcode.LI, dst=T0, imm=addr)
    lw = i(Opcode.LW, dst=T1, srcs=(T0,), imm=0)
    use = i(Opcode.PRINT, srcs=(T1,))
    halt = i(Opcode.HALT)
    sched = hand_schedule(program, [
        ("entry", [[li_addr, None], [None, lw]], None),
        ("next", [[use, None], [halt, None]], 1),
    ])
    result = run_scheduled(sched)
    assert result.output == [77]       # interlock delivered the right value
    assert result.cycle_count > 4      # and charged a stall cycle


def test_operands_read_before_writes_within_a_cycle():
    # WAR within one row: the reader sees the old value.
    program = Program()
    from repro.program import BasicBlock, Procedure
    blk = BasicBlock("entry")
    program.add(Procedure("main", [blk]))
    set5 = i(Opcode.LI, dst=T0, imm=5)
    mv = i(Opcode.MOVE, dst=T1, srcs=(T0,))     # reads t0 (5)
    clobber = i(Opcode.LI, dst=T0, imm=9)       # same row, writes t0
    pr = i(Opcode.PRINT, srcs=(T1,))
    halt = i(Opcode.HALT)
    sched = hand_schedule(program, [
        ("entry", [[set5, None], [mv, clobber], [pr, None], [halt, None]], 3),
    ])
    result = run_scheduled(sched)
    assert result.output == [5]


@pytest.mark.parametrize("backend", ["reference", "interp", "translate"])
def test_boosted_store_without_buffer_is_a_simulation_error(backend):
    # A sequential entry block the translator could express on its own:
    # the boosted store in the loop block must still fail the whole run
    # with the simulator's error, on every engine.
    program = Program()
    program.data.words("x", [0])
    from repro.program import BasicBlock, Procedure
    entry = BasicBlock("entry")
    loop = BasicBlock("loop")
    program.add(Procedure("main", [entry, loop]))
    addr = program.data.address_of("x")
    li_addr = i(Opcode.LI, dst=T0, imm=addr)
    sw = i(Opcode.SW, srcs=(T0, T0), imm=0, boost=1)
    br = i(Opcode.BEQ, srcs=(ZERO, ZERO), target="loop", predict_taken=True)
    sched = hand_schedule(program, [
        ("entry", [[li_addr, None]], None),
        ("loop", [[br, sw], [None, None]], 0),
    ], model=MINBOOST3)  # MinBoost3 has no shadow store buffer
    with pytest.raises(SimulationError):
        SuperscalarSim(sched, max_cycles=100, backend=backend).run()


def test_mispredicted_branch_squashes_boosted_state():
    # A boosted write on the wrong path must never reach the register file.
    program = Program()
    from repro.program import BasicBlock, Procedure
    entry = BasicBlock("entry")
    away = BasicBlock("away")
    program.add(Procedure("main", [entry, away]))
    boosted_li = i(Opcode.LI, dst=T0, imm=666, boost=1)
    set_t0 = i(Opcode.LI, dst=T0, imm=1)
    br = i(Opcode.BNE, srcs=(ZERO, ZERO), target="away",
           predict_taken=True)  # bne zero,zero never taken -> mispredict
    pr = i(Opcode.PRINT, srcs=(T0,))
    halt = i(Opcode.HALT)
    sched = hand_schedule(program, [
        ("entry", [[set_t0, None], [br, boosted_li], [None, None]], 1),
        ("away", [[pr, None], [halt, None]], 1),
    ], model=BOOST1)
    # fall-through: 'away' is the next block either way in this layout
    result = run_scheduled(sched)
    assert result.output == [1]
    assert result.mispredict_count == 1


def test_correctly_predicted_branch_commits_boosted_state():
    program = Program()
    from repro.program import BasicBlock, Procedure
    entry = BasicBlock("entry")
    cont = BasicBlock("cont")
    program.add(Procedure("main", [entry, cont]))
    boosted_li = i(Opcode.LI, dst=T0, imm=42, boost=1)
    br = i(Opcode.BEQ, srcs=(ZERO, ZERO), target="cont", predict_taken=True)
    pr = i(Opcode.PRINT, srcs=(T0,))
    halt = i(Opcode.HALT)
    sched = hand_schedule(program, [
        ("entry", [[br, boosted_li], [None, None]], 0),
        ("cont", [[pr, None], [halt, None]], 1),
    ], model=BOOST1)
    result = run_scheduled(sched)
    assert result.output == [42]
    assert result.mispredict_count == 0


def test_nops_counted_separately():
    def fill(b, p):
        b.label("entry")
        b.li(T0, 3)
        b.print_(T0)
        b.halt()
    program = simple_program(fill)
    sched = schedule_program_bb(program, SCALAR)
    result = run_scheduled(sched)
    assert result.output == [3]
    assert result.instr_count == 3
