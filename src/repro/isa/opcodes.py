"""Opcode table for the MIPS-R2000-like ISA.

Every opcode carries the static properties the compiler and the hardware
models need:

* the functional-unit class it executes on (Section 4.3.1 distributes the
  units between the two sides of the 2-issue machine),
* its result latency in cycles (loads have a single delay slot, exactly as on
  the R2000; multiply/divide are long-latency),
* whether it *can except* — the property that makes a speculative upward code
  motion **unsafe** (Section 2.1), and
* its control-flow role (conditional branch, jump, call, ...).

Arithmetic is 32-bit two's-complement wrapping (MIPS ``addu`` semantics);
the trapping operations are the memory accesses (addressing faults) and
integer divide (divide-by-zero).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FU(enum.Enum):
    """Functional-unit classes of the superscalar machine."""

    ALU = "alu"          # integer ALU — one on each side of the machine
    SHIFT = "shift"      # shifter — side A only
    BRANCH = "branch"    # branch unit — side A only
    MULDIV = "muldiv"    # integer multiply/divide — side A only
    MEM = "mem"          # memory port — side B only
    NONE = "none"        # pseudo-ops that occupy no unit (NOP)


class Format(enum.Enum):
    """Operand formats, used by the printer/parser and the simulators."""

    RRR = "rrr"        # dst, src1, src2
    RRI = "rri"        # dst, src1, imm
    RI = "ri"          # dst, imm
    RR = "rr"          # dst, src
    LOAD = "load"      # dst, offset(base)
    STORE = "store"    # src, offset(base)
    BRANCH2 = "br2"    # src1, src2, target
    BRANCH1 = "br1"    # src1, target
    JUMP = "jump"      # target
    JREG = "jreg"      # src (jr) — jalr also writes ra
    SRC1 = "src1"      # src (print)
    NONE = "none"      # nop, halt


@dataclass(frozen=True)
class OpInfo:
    """Static description of one opcode."""

    mnemonic: str
    fu: FU
    fmt: Format
    latency: int = 1
    can_except: bool = False
    is_cond_branch: bool = False
    is_jump: bool = False
    is_call: bool = False
    is_indirect: bool = False
    is_load: bool = False
    is_store: bool = False
    writes_dst: bool = False
    commutative: bool = False

    @property
    def is_branch(self) -> bool:
        """Any control-transfer instruction (conditional or not)."""
        return self.is_cond_branch or self.is_jump

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store


class Opcode(enum.Enum):
    """All opcodes of the ISA.  ``info`` holds the static properties."""

    # --- ALU -------------------------------------------------------------
    ADD = OpInfo("add", FU.ALU, Format.RRR, writes_dst=True, commutative=True)
    ADDI = OpInfo("addi", FU.ALU, Format.RRI, writes_dst=True)
    SUB = OpInfo("sub", FU.ALU, Format.RRR, writes_dst=True)
    AND = OpInfo("and", FU.ALU, Format.RRR, writes_dst=True, commutative=True)
    ANDI = OpInfo("andi", FU.ALU, Format.RRI, writes_dst=True)
    OR = OpInfo("or", FU.ALU, Format.RRR, writes_dst=True, commutative=True)
    ORI = OpInfo("ori", FU.ALU, Format.RRI, writes_dst=True)
    XOR = OpInfo("xor", FU.ALU, Format.RRR, writes_dst=True, commutative=True)
    XORI = OpInfo("xori", FU.ALU, Format.RRI, writes_dst=True)
    NOR = OpInfo("nor", FU.ALU, Format.RRR, writes_dst=True, commutative=True)
    SLT = OpInfo("slt", FU.ALU, Format.RRR, writes_dst=True)
    SLTI = OpInfo("slti", FU.ALU, Format.RRI, writes_dst=True)
    SLTU = OpInfo("sltu", FU.ALU, Format.RRR, writes_dst=True)
    SLTIU = OpInfo("sltiu", FU.ALU, Format.RRI, writes_dst=True)
    LUI = OpInfo("lui", FU.ALU, Format.RI, writes_dst=True)
    LI = OpInfo("li", FU.ALU, Format.RI, writes_dst=True)
    MOVE = OpInfo("move", FU.ALU, Format.RR, writes_dst=True)

    # --- Shifter (side A only) -------------------------------------------
    SLL = OpInfo("sll", FU.SHIFT, Format.RRI, writes_dst=True)
    SRL = OpInfo("srl", FU.SHIFT, Format.RRI, writes_dst=True)
    SRA = OpInfo("sra", FU.SHIFT, Format.RRI, writes_dst=True)
    SLLV = OpInfo("sllv", FU.SHIFT, Format.RRR, writes_dst=True)
    SRLV = OpInfo("srlv", FU.SHIFT, Format.RRR, writes_dst=True)
    SRAV = OpInfo("srav", FU.SHIFT, Format.RRR, writes_dst=True)

    # --- Multiply / divide (side A only, long latency) ---------------------
    MUL = OpInfo("mul", FU.MULDIV, Format.RRR, latency=4, writes_dst=True,
                 commutative=True)
    DIV = OpInfo("div", FU.MULDIV, Format.RRR, latency=12, can_except=True,
                 writes_dst=True)
    REM = OpInfo("rem", FU.MULDIV, Format.RRR, latency=12, can_except=True,
                 writes_dst=True)

    # --- Memory (side B only; one delay slot, may fault) -------------------
    LW = OpInfo("lw", FU.MEM, Format.LOAD, latency=2, can_except=True,
                is_load=True, writes_dst=True)
    LB = OpInfo("lb", FU.MEM, Format.LOAD, latency=2, can_except=True,
                is_load=True, writes_dst=True)
    LBU = OpInfo("lbu", FU.MEM, Format.LOAD, latency=2, can_except=True,
                 is_load=True, writes_dst=True)
    SW = OpInfo("sw", FU.MEM, Format.STORE, can_except=True, is_store=True)
    SB = OpInfo("sb", FU.MEM, Format.STORE, can_except=True, is_store=True)

    # --- Control transfer (side A; one delay slot) -------------------------
    BEQ = OpInfo("beq", FU.BRANCH, Format.BRANCH2, is_cond_branch=True)
    BNE = OpInfo("bne", FU.BRANCH, Format.BRANCH2, is_cond_branch=True)
    BLEZ = OpInfo("blez", FU.BRANCH, Format.BRANCH1, is_cond_branch=True)
    BGTZ = OpInfo("bgtz", FU.BRANCH, Format.BRANCH1, is_cond_branch=True)
    BLTZ = OpInfo("bltz", FU.BRANCH, Format.BRANCH1, is_cond_branch=True)
    BGEZ = OpInfo("bgez", FU.BRANCH, Format.BRANCH1, is_cond_branch=True)
    J = OpInfo("j", FU.BRANCH, Format.JUMP, is_jump=True)
    JAL = OpInfo("jal", FU.BRANCH, Format.JUMP, is_jump=True, is_call=True,
                 writes_dst=True)
    JR = OpInfo("jr", FU.BRANCH, Format.JREG, is_jump=True, is_indirect=True)
    JALR = OpInfo("jalr", FU.BRANCH, Format.JREG, is_jump=True, is_call=True,
                  is_indirect=True, writes_dst=True)

    # --- Pseudo / system ---------------------------------------------------
    NOP = OpInfo("nop", FU.NONE, Format.NONE)
    HALT = OpInfo("halt", FU.BRANCH, Format.NONE)
    PRINT = OpInfo("print", FU.ALU, Format.SRC1)

    def __init__(self, info: OpInfo) -> None:
        # Plain attributes so call sites read ``op.is_load`` etc. without a
        # property call and a trip through the enum's ``value`` descriptor:
        # the passes and simulators read these flags millions of times.
        self.info = info
        self.mnemonic = info.mnemonic
        self.fu = info.fu
        self.fmt = info.fmt
        self.latency = info.latency
        self.can_except = info.can_except
        self.is_cond_branch = info.is_cond_branch
        self.is_jump = info.is_jump
        self.is_call = info.is_call
        self.is_indirect = info.is_indirect
        self.is_load = info.is_load
        self.is_store = info.is_store
        self.writes_dst = info.writes_dst
        self.commutative = info.commutative
        self.is_branch = info.is_branch
        self.is_mem = info.is_mem


#: Mnemonic -> Opcode lookup for the assembly parser.
BY_MNEMONIC: dict[str, Opcode] = {op.mnemonic: op for op in Opcode}
