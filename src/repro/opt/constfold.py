"""Local constant folding and algebraic simplification.

Per basic block: track registers with known constant values, fold
fully-constant operations into ``li``, simplify identities (``x+0``,
``x*1``, ``x<<0``, ...), and statically resolve conditional branches whose
operands are known.  Division/remainder by a known zero is left alone — the
trap must still happen at run time.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.alu import branch_taken, execute_alu
from repro.hw.exceptions import Trap
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.program.block import BasicBlock
from repro.program.procedure import Procedure, Program
from repro.analysis.liveness import instr_defs

_FOLDABLE = {
    Opcode.ADD, Opcode.ADDI, Opcode.SUB, Opcode.AND, Opcode.ANDI, Opcode.OR,
    Opcode.ORI, Opcode.XOR, Opcode.XORI, Opcode.NOR, Opcode.SLT, Opcode.SLTI,
    Opcode.SLTU, Opcode.SLTIU, Opcode.SLL, Opcode.SRL, Opcode.SRA,
    Opcode.SLLV, Opcode.SRLV, Opcode.SRAV, Opcode.MUL, Opcode.MOVE,
}


def _const_of(consts: dict[Reg, int], reg: Reg) -> Optional[int]:
    if reg.is_zero:
        return 0
    return consts.get(reg)


def _simplify_identity(instr: Instruction,
                       consts: dict[Reg, int]) -> Optional[Instruction]:
    """Rewrite ``x+0``-style identities into a MOVE (or nothing)."""
    op = instr.op
    if op in (Opcode.ADD, Opcode.OR, Opcode.XOR):
        a, b = instr.srcs
        ca, cb = _const_of(consts, a), _const_of(consts, b)
        if cb == 0:
            return Instruction(Opcode.MOVE, dst=instr.dst, srcs=(a,))
        if ca == 0:
            return Instruction(Opcode.MOVE, dst=instr.dst, srcs=(b,))
    if op in (Opcode.ADDI, Opcode.ORI, Opcode.XORI) and (instr.imm or 0) == 0:
        return Instruction(Opcode.MOVE, dst=instr.dst, srcs=(instr.srcs[0],))
    if op is Opcode.SUB and _const_of(consts, instr.srcs[1]) == 0:
        return Instruction(Opcode.MOVE, dst=instr.dst, srcs=(instr.srcs[0],))
    if op in (Opcode.SLL, Opcode.SRL, Opcode.SRA) and (instr.imm or 0) == 0:
        return Instruction(Opcode.MOVE, dst=instr.dst, srcs=(instr.srcs[0],))
    if op is Opcode.MUL:
        a, b = instr.srcs
        if _const_of(consts, b) == 1:
            return Instruction(Opcode.MOVE, dst=instr.dst, srcs=(a,))
        if _const_of(consts, a) == 1:
            return Instruction(Opcode.MOVE, dst=instr.dst, srcs=(b,))
    return None


# reg-reg opcode -> immediate form, when the second operand is a small
# known constant (16-bit signed immediate range on a real MIPS).
_IMM_FORMS = {
    Opcode.ADD: Opcode.ADDI,
    Opcode.AND: Opcode.ANDI,
    Opcode.OR: Opcode.ORI,
    Opcode.XOR: Opcode.XORI,
    Opcode.SLT: Opcode.SLTI,
    Opcode.SLTU: Opcode.SLTIU,
    Opcode.SLLV: Opcode.SLL,
    Opcode.SRLV: Opcode.SRL,
    Opcode.SRAV: Opcode.SRA,
}
_IMM_MIN, _IMM_MAX = -(1 << 15), (1 << 15) - 1


def _to_immediate_form(instr: Instruction,
                       consts: dict[Reg, int]) -> Optional[Instruction]:
    """``add d, a, c`` with c constant becomes ``addi d, a, c`` — removing
    the dependence on the constant's producer."""
    imm_op = _IMM_FORMS.get(instr.op)
    if imm_op is None:
        return None
    a, b = instr.srcs
    cb = _const_of(consts, b)
    if cb is None and instr.op.info.commutative:
        ca = _const_of(consts, a)
        if ca is not None:
            a, cb = b, ca
    if cb is None:
        return None
    value = cb - 0x100000000 if cb >= 0x80000000 else cb
    if imm_op in (Opcode.SLL, Opcode.SRL, Opcode.SRA):
        value &= 31
    elif not _IMM_MIN <= value <= _IMM_MAX:
        return None
    if imm_op is Opcode.SLTIU:
        value = cb  # unsigned comparison keeps the raw value
        if not 0 <= value <= 0xFFFF:
            return None
    return Instruction(imm_op, dst=instr.dst, srcs=(a,), imm=value)


def fold_block(block: BasicBlock) -> bool:
    changed = False
    consts: dict[Reg, int] = {}
    new_body: list[Instruction] = []
    for instr in block.body:
        op = instr.op
        folded = instr
        if op in _FOLDABLE and instr.dst is not None:
            values = [_const_of(consts, r) for r in instr.srcs]
            if all(v is not None for v in values):
                try:
                    result = execute_alu(instr, *values)
                except Trap:
                    result = None
                if result is not None:
                    folded = Instruction(Opcode.LI, dst=instr.dst,
                                         imm=result, uid=instr.uid)
            elif op is not Opcode.MOVE:
                simpler = _simplify_identity(instr, consts)
                if simpler is None:
                    simpler = _to_immediate_form(instr, consts)
                if simpler is not None:
                    simpler.uid = instr.uid
                    folded = simpler
        if folded is not instr:
            changed = True
        # Update the constant environment.
        for reg in instr_defs(folded):
            consts.pop(reg, None)
        if folded.op is Opcode.LI and folded.dst is not None:
            consts[folded.dst] = folded.imm & 0xFFFFFFFF
        elif folded.op is Opcode.LUI and folded.dst is not None:
            consts[folded.dst] = (folded.imm << 16) & 0xFFFFFFFF
        elif folded.op is Opcode.MOVE and folded.dst is not None:
            src_const = _const_of(consts, folded.srcs[0])
            if src_const is not None:
                consts[folded.dst] = src_const
        new_body.append(folded)
    block.body = new_body

    # Statically resolve a conditional branch with constant operands.
    term = block.terminator
    if term is not None and term.op.is_cond_branch:
        values = [_const_of(consts, r) for r in term.srcs]
        if all(v is not None for v in values):
            if branch_taken(term, *values):
                block.terminator = Instruction(Opcode.J, target=term.target,
                                               uid=term.uid)
            else:
                block.terminator = None
            changed = True
    return changed


def fold_procedure(proc: Procedure) -> bool:
    changed = False
    for block in proc.blocks:
        changed |= fold_block(block)
    return changed


def fold_program(program: Program) -> bool:
    changed = False
    for proc in program.procedures.values():
        changed |= fold_procedure(proc)
    return changed
