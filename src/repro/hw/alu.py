"""Shared operation semantics for all machine models.

Register values are kept as unsigned 32-bit integers (0 .. 2**32-1); signed
operations convert on the way in and out.  Divide truncates toward zero and
traps on a zero divisor (C semantics on the R2000's runtime).
"""

from __future__ import annotations

from repro.hw.exceptions import Trap, TrapKind
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

MASK32 = 0xFFFFFFFF


def u32(x: int) -> int:
    return x & MASK32


def s32(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x >= 0x80000000 else x


def _div(a: int, b: int, _imm: int) -> int:
    if b == 0:
        raise Trap(TrapKind.DIV_ZERO)
    q = abs(s32(a)) // abs(s32(b))
    return u32(-q if (s32(a) < 0) != (s32(b) < 0) else q)


def _rem(a: int, b: int, _imm: int) -> int:
    if b == 0:
        raise Trap(TrapKind.DIV_ZERO)
    q = abs(s32(a)) % abs(s32(b))
    return u32(-q if s32(a) < 0 else q)


#: ``op -> f(a, b, imm)`` for every non-memory, non-branch opcode.  The
#: simulators' pre-decoded fast paths look the function up once per static
#: instruction instead of walking an ``is``-chain per dynamic instruction.
ALU_FUNCS = {
    Opcode.ADD: lambda a, b, imm: (a + b) & MASK32,
    Opcode.ADDI: lambda a, b, imm: (a + imm) & MASK32,
    Opcode.SUB: lambda a, b, imm: (a - b) & MASK32,
    Opcode.AND: lambda a, b, imm: a & b,
    Opcode.ANDI: lambda a, b, imm: a & (imm & MASK32),
    Opcode.OR: lambda a, b, imm: a | b,
    Opcode.ORI: lambda a, b, imm: a | (imm & MASK32),
    Opcode.XOR: lambda a, b, imm: a ^ b,
    Opcode.XORI: lambda a, b, imm: a ^ (imm & MASK32),
    Opcode.NOR: lambda a, b, imm: ~(a | b) & MASK32,
    Opcode.SLT: lambda a, b, imm: 1 if s32(a) < s32(b) else 0,
    Opcode.SLTI: lambda a, b, imm: 1 if s32(a) < imm else 0,
    Opcode.SLTU: lambda a, b, imm: 1 if a < b else 0,
    Opcode.SLTIU: lambda a, b, imm: 1 if a < (imm & MASK32) else 0,
    Opcode.LUI: lambda a, b, imm: (imm << 16) & MASK32,
    Opcode.LI: lambda a, b, imm: imm & MASK32,
    Opcode.MOVE: lambda a, b, imm: a,
    Opcode.SLL: lambda a, b, imm: (a << (imm & 31)) & MASK32,
    Opcode.SRL: lambda a, b, imm: a >> (imm & 31),
    Opcode.SRA: lambda a, b, imm: (s32(a) >> (imm & 31)) & MASK32,
    Opcode.SLLV: lambda a, b, imm: (a << (b & 31)) & MASK32,
    Opcode.SRLV: lambda a, b, imm: a >> (b & 31),
    Opcode.SRAV: lambda a, b, imm: (s32(a) >> (b & 31)) & MASK32,
    Opcode.MUL: lambda a, b, imm: (s32(a) * s32(b)) & MASK32,
    Opcode.DIV: _div,
    Opcode.REM: _rem,
}


def execute_alu(instr: Instruction, a: int = 0, b: int = 0) -> int:
    """Compute the result of a non-memory, non-branch instruction.

    ``a``/``b`` are the source register values (unsigned 32-bit); the
    immediate is taken from the instruction.  Raises :class:`Trap` for
    divide-by-zero.
    """
    fn = ALU_FUNCS.get(instr.op)
    if fn is None:
        raise ValueError(f"execute_alu cannot evaluate {instr}")
    try:
        return fn(a, b, instr.imm or 0)
    except Trap as trap:
        trap.instr_uid = instr.uid
        raise


#: ``op -> f(a, b)`` for the conditional branches.
BRANCH_FUNCS = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLEZ: lambda a, b: s32(a) <= 0,
    Opcode.BGTZ: lambda a, b: s32(a) > 0,
    Opcode.BLTZ: lambda a, b: s32(a) < 0,
    Opcode.BGEZ: lambda a, b: s32(a) >= 0,
}


def branch_taken(instr: Instruction, a: int = 0, b: int = 0) -> bool:
    """Evaluate a conditional branch's condition."""
    fn = BRANCH_FUNCS.get(instr.op)
    if fn is None:
        raise ValueError(f"{instr} is not a conditional branch")
    return fn(a, b)


# --------------------------------------------------------------------------
# Expression templates for the translating backend (repro.hw.translate).
#
# Each entry renders the same semantics as the ALU_FUNCS/BRANCH_FUNCS lambda
# above as a Python *expression* over operand expressions, so generated
# code inlines the operation instead of calling through the table.
# ``{a}``/``{b}`` are operand expressions (already masked unsigned 32-bit
# values); immediates are folded into literals by ``alu_expr``.
# ``tests/hw/test_translate.py`` sweeps every template against its table
# function so the two can never drift apart.
#
# Signed tricks: for masked 32-bit x, ``(x ^ 0x80000000) - 0x80000000`` is
# s32(x), and xoring the top bit of both sides turns a signed comparison
# into an unsigned one.

_H = 0x80000000


def alu_expr(op: Opcode, a: str, b: str, imm: int):
    """Inline expression for ``ALU_FUNCS[op](a, b, imm)``, or ``None`` when
    the operation cannot be inlined (traps, out-of-range immediates) and
    must go through the table function instead."""
    m, h = MASK32, _H
    if op is Opcode.ADD:
        return f"({a} + {b}) & {m}"
    if op is Opcode.ADDI:
        return f"({a} + {imm}) & {m}"
    if op is Opcode.SUB:
        return f"({a} - {b}) & {m}"
    if op is Opcode.AND:
        return f"{a} & {b}"
    if op is Opcode.ANDI:
        return f"{a} & {imm & m}"
    if op is Opcode.OR:
        return f"{a} | {b}"
    if op is Opcode.ORI:
        return f"{a} | {imm & m}"
    if op is Opcode.XOR:
        return f"{a} ^ {b}"
    if op is Opcode.XORI:
        return f"{a} ^ {imm & m}"
    if op is Opcode.NOR:
        return f"~({a} | {b}) & {m}"
    if op is Opcode.SLT:
        return f"1 if ({a} ^ {h}) < ({b} ^ {h}) else 0"
    if op is Opcode.SLTI:
        if not -(2 ** 31) <= imm < 2 ** 31:
            return None
        return f"1 if ({a} ^ {h}) < {(imm & m) ^ _H} else 0"
    if op is Opcode.SLTU:
        return f"1 if {a} < {b} else 0"
    if op is Opcode.SLTIU:
        return f"1 if {a} < {imm & m} else 0"
    if op is Opcode.LUI:
        return f"{(imm << 16) & m}"
    if op is Opcode.LI:
        return f"{imm & m}"
    if op is Opcode.MOVE:
        return a
    if op is Opcode.SLL:
        return f"({a} << {imm & 31}) & {m}"
    if op is Opcode.SRL:
        return f"{a} >> {imm & 31}"
    if op is Opcode.SRA:
        return f"((({a} ^ {h}) - {h}) >> {imm & 31}) & {m}"
    if op is Opcode.SLLV:
        return f"({a} << ({b} & 31)) & {m}"
    if op is Opcode.SRLV:
        return f"{a} >> ({b} & 31)"
    if op is Opcode.SRAV:
        return f"((({a} ^ {h}) - {h}) >> ({b} & 31)) & {m}"
    if op is Opcode.MUL:
        # (s32(a) * s32(b)) & MASK32 == (a * b) & MASK32 (mod-2**32).
        return f"({a} * {b}) & {m}"
    return None  # DIV/REM trap — they stay table calls


def branch_expr(op: Opcode, a: str, b: str) -> str:
    """Inline condition expression for ``BRANCH_FUNCS[op](a, b)``, over
    masked unsigned 32-bit operand expressions."""
    h = _H
    if op is Opcode.BEQ:
        return f"{a} == {b}"
    if op is Opcode.BNE:
        return f"{a} != {b}"
    if op is Opcode.BLEZ:  # s32(a) <= 0
        return f"({a} == 0 or {a} >= {h})"
    if op is Opcode.BGTZ:  # s32(a) > 0
        return f"0 < {a} < {h}"
    if op is Opcode.BLTZ:  # s32(a) < 0
        return f"{a} >= {h}"
    if op is Opcode.BGEZ:  # s32(a) >= 0
        return f"{a} < {h}"
    raise ValueError(f"{op} is not a conditional branch")
