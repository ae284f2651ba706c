"""Boosted-exception handling end to end (Section 2.3).

The defining behaviours of boosting's exception model:

* a fault on a boosted instruction is *silent* while speculative;
* if the dependent branch mispredicts, the fault vanishes with the rest of
  the speculative state;
* if the branch is correctly predicted, the machine pays the recovery
  overhead, re-executes the compiler-generated recovery code, and the fault
  re-occurs *precisely* on a sequential instruction.
"""

import pytest

from repro.hw.exceptions import Trap, TrapKind
from repro.hw.superscalar import SuperscalarSim
from repro.isa import Opcode, Reg, ZERO
from repro.program import ProcBuilder, Program
from repro.sched.boostmodel import MINBOOST3
from repro.sched.globalsched import schedule_program_global
from repro.sched.machine import SUPERSCALAR

T0, T1, T2, T3, T4 = (Reg.named(f"t{i}") for i in range(5))


def faulting_program(cond_value: int) -> Program:
    """A program whose hot path loads through a null pointer.

    ``cond_value`` steers the branch: 0 keeps execution on the predicted
    (fall-through) path where the boosted load faults; 1 takes the branch
    away, so the speculative fault must vanish.
    """
    program = Program()
    program.data.words("good", [123])
    b = ProcBuilder("main", data=program.data)
    b.label("entry")
    b.li(T4, cond_value)
    b.li(T0, 0)                   # null pointer
    b.bne(T4, ZERO, "other")
    b.label("hot")
    b.lw(T2, T0, 0)               # will be boosted above the branch
    b.print_(T2)
    b.halt()
    b.label("other")
    b.li(T3, 7)
    b.print_(T3)
    b.halt()
    program.add(b.build())
    program.proc("main").block("entry").terminator.predict_taken = False
    return program


def schedule(program: Program):
    sched, stats = schedule_program_global(program, SUPERSCALAR, MINBOOST3)
    return sched, stats


def test_unsafe_load_gets_boosted():
    sched, stats = schedule(faulting_program(0))
    assert stats.boosted >= 1
    boosted = [i for p in sched.procedures.values()
               for blk in p.blocks for i in blk.instructions() if i.is_boosted]
    assert any(i.op is Opcode.LW for i in boosted)


def test_recovery_code_generated_for_unsafe_boost():
    sched, _ = schedule(faulting_program(0))
    main = sched.proc("main")
    assert main.recovery, "a boosted load must have recovery code"
    recov = next(iter(main.recovery.values()))
    assert recov.resume_label == "hot"
    assert any(i.op is Opcode.LW and i.boost == 0 for i in recov.instructions)


# Runs with no trap handler take the translate engine, so the boosted
# load's deferred fault, its squash and the recovery it triggers happen
# inside generated code; the reference interpreter must agree.
@pytest.mark.parametrize("backend", ["translate", "reference"])
def test_fault_on_predicted_path_is_precise(backend):
    sched, _ = schedule(faulting_program(0))
    sim = SuperscalarSim(sched, backend=backend)
    with pytest.raises(Trap) as info:
        sim.run()
    assert info.value.kind is TrapKind.ADDRESS_ERROR
    assert sim.recovery_invocations == 1
    # The trap surfaced from a *sequential* recovery instruction.
    assert sim.shiftbuf.pending() is False


def test_recovery_overhead_charged():
    sched, _ = schedule(faulting_program(0))
    sim = SuperscalarSim(sched, trap_handler=lambda t: 99)
    result = sim.run()
    assert result.output == [99]
    assert sim.recovery_invocations == 1

    # A run without the fault (valid pointer) must be faster by at least
    # the documented ~10-cycle recovery overhead.
    program = faulting_program(0)
    main = program.proc("main")
    li_null = main.block("entry").body[1]
    li_null.imm = program.data.address_of("good")
    sched2, _ = schedule(program)
    clean = SuperscalarSim(sched2).run()
    assert clean.output == [123]
    assert result.cycle_count >= clean.cycle_count + SUPERSCALAR.recovery_overhead


@pytest.mark.parametrize("backend", ["translate", "reference"])
def test_fault_squashed_on_mispredicted_path(backend):
    # Branch goes away from the boosted load: the program must complete with
    # no trap at all — this is what makes the motion "safe" in hardware.
    sched, _ = schedule(faulting_program(1))
    sim = SuperscalarSim(sched, backend=backend)
    result = sim.run()
    assert result.output == [7]
    assert result.trap is None
    assert sim.recovery_invocations == 0


def test_recovery_reexecutes_whole_pending_cohort():
    # Two boosted instructions commit at the same branch; when the faulting
    # one triggers recovery, the other's (squashed) effect must be
    # regenerated by the recovery code.
    program = Program()
    b = ProcBuilder("main", data=program.data)
    b.label("entry")
    b.li(T4, 0)
    b.li(T0, 0)
    b.li(T1, 5)
    b.bne(T4, ZERO, "other")
    b.label("hot")
    b.addi(T3, T1, 10)        # safe companion, but boosted for the schedule
    b.lw(T2, T0, 0)           # faulting load
    b.add(T2, T2, T3)
    b.print_(T2)
    b.halt()
    b.label("other")
    b.print_(T1)
    b.halt()
    program.add(b.build())
    program.proc("main").block("entry").terminator.predict_taken = False
    sched, stats = schedule(program)
    sim = SuperscalarSim(sched, trap_handler=lambda t: 1000)
    result = sim.run()
    assert result.output == [1015]
