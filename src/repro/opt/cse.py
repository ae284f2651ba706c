"""Local common-subexpression elimination by value numbering.

Within a basic block, pure operations with identical opcodes, operand value
numbers, and immediates are computed once.  Loads participate too, keyed by
a *memory epoch* that advances on every store or call, which keeps the pass
sound without alias analysis.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.liveness import instr_defs
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.program.block import BasicBlock
from repro.program.procedure import Procedure, Program

_PURE = {
    Opcode.ADD, Opcode.ADDI, Opcode.SUB, Opcode.AND, Opcode.ANDI, Opcode.OR,
    Opcode.ORI, Opcode.XOR, Opcode.XORI, Opcode.NOR, Opcode.SLT, Opcode.SLTI,
    Opcode.SLTU, Opcode.SLTIU, Opcode.SLL, Opcode.SRL, Opcode.SRA,
    Opcode.SLLV, Opcode.SRLV, Opcode.SRAV, Opcode.MUL, Opcode.LI, Opcode.LUI,
}
_LOADS = {Opcode.LW, Opcode.LB, Opcode.LBU}


def cse_block(block: BasicBlock) -> bool:
    changed = False
    value_num: dict[Reg, int] = {}
    next_vn = [0]
    epoch = [0]
    available: dict[tuple, Reg] = {}  # expression key -> register holding it

    def vn_of(reg: Reg) -> int:
        if reg.is_zero:
            return -1
        if reg not in value_num:
            value_num[reg] = next_vn[0]
            next_vn[0] += 1
        return value_num[reg]

    def kill(reg: Reg) -> None:
        value_num.pop(reg, None)
        for key in [k for k, holder in available.items() if holder is reg]:
            del available[key]

    new_body: list[Instruction] = []
    for instr in block.body:
        op = instr.op
        key: Optional[tuple] = None
        if op in _PURE and instr.dst is not None:
            srcs = instr.srcs
            if op.info.commutative:
                vns = tuple(sorted(vn_of(r) for r in srcs))
            else:
                vns = tuple(vn_of(r) for r in srcs)
            key = (op, vns, instr.imm)
        elif op in _LOADS and instr.dst is not None:
            key = (op, vn_of(instr.srcs[0]), instr.imm, epoch[0])

        if key is not None and key in available:
            holder = available[key]
            replacement = Instruction(Opcode.MOVE, dst=instr.dst,
                                      srcs=(holder,), uid=instr.uid)
            kill(instr.dst)
            value_num[instr.dst] = vn_of(holder)
            new_body.append(replacement)
            changed = True
            continue

        for reg in instr_defs(instr):
            kill(reg)
        if instr.op.is_store or instr.op.is_call:
            epoch[0] += 1
        if key is not None:
            value_num[instr.dst] = next_vn[0]
            next_vn[0] += 1
            available[key] = instr.dst
        new_body.append(instr)
    block.body = new_body
    return changed


def cse_procedure(proc: Procedure) -> bool:
    changed = False
    for block in proc.blocks:
        changed |= cse_block(block)
    return changed


def cse_program(program: Program) -> bool:
    changed = False
    for proc in program.procedures.values():
        changed |= cse_procedure(proc)
    return changed
