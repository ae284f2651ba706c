"""Tests for the optimizer passes.

Each pass is checked two ways: the structural effect on a crafted snippet,
and semantic preservation (functional output unchanged) on a compiled
program.
"""

import itertools

import pytest

import repro.isa.instruction as isa_instruction
import repro.opt
from repro.frontend import compile_source
from repro.hw.functional import run_functional
from repro.isa import Instruction, Opcode, Reg, ZERO
from repro.opt import (
    clean_cfg, clean_program, cse_block, cse_program, dce_procedure,
    dce_program, fold_block, fold_program, licm_procedure, licm_program,
    optimize_program, propagate_block, propagate_program,
)
from repro.program import BasicBlock, ProcBuilder
from repro.program.procedure import Program, clone_program
from repro.workloads import all_workloads

T0, T1, T2, T3 = (Reg.named(f"t{i}") for i in range(4))


def block_of(*instrs) -> BasicBlock:
    b = BasicBlock("b")
    for i in instrs:
        b.append(i)
    return b


class TestConstFold:
    def test_fully_constant_op_becomes_li(self):
        blk = block_of(
            Instruction(Opcode.LI, dst=T0, imm=6),
            Instruction(Opcode.LI, dst=T1, imm=7),
            Instruction(Opcode.MUL, dst=T2, srcs=(T0, T1)),
        )
        fold_block(blk)
        assert blk.body[2].op is Opcode.LI and blk.body[2].imm == 42

    def test_add_zero_becomes_move(self):
        blk = block_of(
            Instruction(Opcode.LI, dst=T0, imm=0),
            Instruction(Opcode.ADD, dst=T2, srcs=(T1, T0)),
        )
        fold_block(blk)
        assert blk.body[1].op is Opcode.MOVE

    def test_reg_const_becomes_immediate_form(self):
        blk = block_of(
            Instruction(Opcode.LI, dst=T0, imm=8),
            Instruction(Opcode.ADD, dst=T2, srcs=(T1, T0)),
        )
        fold_block(blk)
        assert blk.body[1].op is Opcode.ADDI and blk.body[1].imm == 8

    def test_sllv_with_const_shamt(self):
        blk = block_of(
            Instruction(Opcode.LI, dst=T0, imm=3),
            Instruction(Opcode.SLLV, dst=T2, srcs=(T1, T0)),
        )
        fold_block(blk)
        assert blk.body[1].op is Opcode.SLL and blk.body[1].imm == 3

    def test_large_constant_not_immediate(self):
        blk = block_of(
            Instruction(Opcode.LI, dst=T0, imm=0x123456),
            Instruction(Opcode.ADD, dst=T2, srcs=(T1, T0)),
        )
        fold_block(blk)
        assert blk.body[1].op is Opcode.ADD  # out of 16-bit range

    def test_div_by_zero_not_folded(self):
        blk = block_of(
            Instruction(Opcode.LI, dst=T0, imm=1),
            Instruction(Opcode.LI, dst=T1, imm=0),
            Instruction(Opcode.DIV, dst=T2, srcs=(T0, T1)),
        )
        fold_block(blk)
        assert blk.body[2].op is Opcode.DIV  # trap must still happen

    def test_constant_branch_resolved(self):
        b = ProcBuilder("p")
        b.label("entry")
        b.li(T0, 1)
        b.bne(T0, ZERO, "away")
        b.label("mid")
        b.halt()
        b.label("away")
        b.halt()
        proc = b.build()
        fold_block(proc.block("entry"))
        assert proc.block("entry").terminator.op is Opcode.J


class TestCopyPropDceCse:
    def test_copy_propagated_through_move(self):
        blk = block_of(
            Instruction(Opcode.MOVE, dst=T1, srcs=(T0,)),
            Instruction(Opcode.ADD, dst=T2, srcs=(T1, T1)),
        )
        propagate_block(blk)
        assert blk.body[1].srcs == (T0, T0)

    def test_copy_killed_by_redefinition(self):
        blk = block_of(
            Instruction(Opcode.MOVE, dst=T1, srcs=(T0,)),
            Instruction(Opcode.LI, dst=T0, imm=9),
            Instruction(Opcode.ADD, dst=T2, srcs=(T1, T1)),
        )
        propagate_block(blk)
        assert blk.body[2].srcs == (T1, T1)

    def test_cse_reuses_pure_expression(self):
        blk = block_of(
            Instruction(Opcode.ADD, dst=T1, srcs=(T0, T0)),
            Instruction(Opcode.ADD, dst=T2, srcs=(T0, T0)),
        )
        cse_block(blk)
        assert blk.body[1].op is Opcode.MOVE

    def test_cse_load_killed_by_store(self):
        blk = block_of(
            Instruction(Opcode.LW, dst=T1, srcs=(T0,), imm=0),
            Instruction(Opcode.SW, srcs=(T2, T3), imm=0),
            Instruction(Opcode.LW, dst=T2, srcs=(T0,), imm=0),
        )
        cse_block(blk)
        assert blk.body[2].op is Opcode.LW  # store invalidates the load

    def test_dce_removes_dead_code(self):
        b = ProcBuilder("p")
        b.label("entry")
        b.li(T0, 1)     # dead
        b.li(T1, 2)
        b.print_(T1)
        b.halt()
        proc = b.build()
        dce_procedure(proc)
        ops = [i.op for i in proc.block("entry").body]
        assert ops == [Opcode.LI, Opcode.PRINT]

    def test_dce_keeps_stores_and_prints(self):
        b = ProcBuilder("p")
        b.label("entry")
        b.li(T0, 0x2000)
        b.sw(T0, T0, 0)
        b.halt()
        proc = b.build()
        dce_procedure(proc)
        assert any(i.op is Opcode.SW for i in proc.block("entry").body)


class TestCfgCleanAndLicm:
    def test_jump_to_next_removed(self):
        b = ProcBuilder("p")
        b.label("a")
        b.li(T0, 1)
        b.j("b")
        b.label("b")
        b.halt()
        proc = b.build()
        clean_cfg(proc)
        assert len(proc.blocks) == 1  # merged after the jump is dropped

    def test_unreachable_block_removed(self):
        b = ProcBuilder("p")
        b.label("a")
        b.halt()
        b.label("dead")
        b.li(T0, 1)
        b.halt()
        proc = b.build()
        clean_cfg(proc)
        assert not proc.has_block("dead")

    def test_jump_threading(self):
        b = ProcBuilder("p")
        b.label("a")
        b.beq(T0, ZERO, "trampoline")
        b.label("fall")
        b.halt()
        b.label("trampoline")
        b.j("final")
        b.label("final")
        b.halt()
        proc = b.build()
        clean_cfg(proc)
        assert proc.block("a").terminator.target == "final"

    def test_licm_hoists_invariant(self):
        b = ProcBuilder("p")
        v0, v1 = b.vreg(), b.vreg()
        b.label("entry")
        b.li(T0, 10)
        b.label("loop")
        b.li(v0, 1234)          # invariant
        b.add(T1, T1, v0)
        b.addi(T0, T0, -1)
        b.bgtz(T0, "loop")
        b.label("exit")
        b.halt()
        proc = b.build()
        assert licm_procedure(proc)
        loop_ops = [i.op for i in proc.block("loop").body]
        assert Opcode.LI not in loop_ops or all(
            i.imm != 1234 for i in proc.block("loop").body
            if i.op is Opcode.LI)

    def test_licm_skips_loop_with_call(self):
        b = ProcBuilder("p")
        v0 = b.vreg()
        b.label("entry")
        b.label("loop")
        b.li(v0, 1234)
        b.jal("callee")
        b.label("latch")
        b.bgtz(T0, "loop")
        b.label("exit")
        b.halt()
        proc = b.build()
        assert not licm_procedure(proc)


class TestEndToEnd:
    SOURCE = """
global xs[6] = {4, 8, 15, 16, 23, 42};
func main() {
    var s = 0;
    for (var i = 0; i < 6; i = i + 1) {
        s = s + xs[i] * 2 + 1;
    }
    print(s);
    print(3 * 4 + 0);
}
"""

    def test_optimizer_preserves_semantics(self):
        raw = compile_source(self.SOURCE)
        before = run_functional(raw).output
        optimize_program(raw)
        after = run_functional(raw).output
        assert before == after == [sum(x * 2 + 1 for x in
                                       [4, 8, 15, 16, 23, 42]), 12]

    def test_optimizer_shrinks_code(self):
        raw = compile_source(self.SOURCE)
        before = raw.instruction_count()
        optimize_program(raw)
        assert raw.instruction_count() < before


def _ir(program: Program) -> list:
    return [(proc.name, block.label,
             [(str(i), i.uid, i.origin) for i in block.instructions()])
            for proc in program.procedures.values() for block in proc.blocks]


@pytest.fixture
def rounds(monkeypatch):
    """Counts ``optimize_program`` rounds: each one folds once."""
    count = [0]

    def counting_fold(program):
        count[0] += 1
        return fold_program(program)

    monkeypatch.setattr(repro.opt, "fold_program", counting_fold)
    return count


class TestFixedPoint:
    def test_round_that_undoes_itself_ends_the_loop(self, rounds):
        # Folding turns each move into ``li v, 0``; CSE turns the repeated
        # ``li`` back into the move.  Both report a change every round.
        b = ProcBuilder("main")
        v0, v1, v2 = b.vreg(), b.vreg(), b.vreg()
        b.label("entry")
        b.li(v1, 0)
        b.move(v0, v1)
        b.move(v2, v1)
        b.print_(v0)
        b.print_(v2)
        b.halt()
        program = Program()
        program.add(b.build())
        before = _ir(program)
        optimize_program(program)
        assert _ir(program) == before
        assert rounds[0] == 1

    @pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
    def test_workload_matches_all_ten_rounds(self, w, rounds, monkeypatch):
        program = compile_source(w.source)
        reference = clone_program(program)
        # Both runs draw fresh uids from the same start, so uids compare.
        start = next(isa_instruction._uid_counter)
        monkeypatch.setattr(isa_instruction, "_uid_counter",
                            itertools.count(start))
        optimize_program(program)
        assert rounds[0] <= 4
        monkeypatch.setattr(isa_instruction, "_uid_counter",
                            itertools.count(start))
        clean_program(reference)
        for _ in range(10):
            fold_program(reference)
            propagate_program(reference)
            licm_program(reference)
            cse_program(reference)
            dce_program(reference)
            clean_program(reference)
        assert _ir(program) == _ir(reference)
