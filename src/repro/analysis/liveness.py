"""Live-variable analysis (Section 3.2.2 uses live-IN sets to detect illegal
speculative movements).

Calls are handled with the standard calling-convention abstraction: a call
*uses* the argument registers plus ``$sp``/``$gp`` and *defines* (clobbers)
all caller-saved registers.  Returns keep the return value and the
callee-saved registers live.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.registers import (
    A0, A1, A2, A3, FP, GP, RA, S_REGS, SP, T_REGS, V0, V1, Reg,
)
from repro.program.cfg import CFG
from repro.analysis.dataflow import solve_backward

#: Registers a callee may clobber (defined by a call site).  The calling
#: convention of this compiler is caller-saves-everything: the code generator
#: spills live values around calls, so callees are free to use every register
#: except ``$sp``/``$gp``/``$fp``.
CALL_DEFS: frozenset[Reg] = frozenset((V0, V1, A0, A1, A2, A3, RA,
                                       *T_REGS, *S_REGS))
#: Registers a call site reads (arguments + environment).
CALL_USES: frozenset[Reg] = frozenset((A0, A1, A2, A3, SP, GP))
#: Registers live at a return.
RETURN_LIVE: frozenset[Reg] = frozenset((V0, V1, SP, GP, FP))


def instr_uses(instr: Instruction) -> frozenset[Reg]:
    uses = frozenset(instr.uses())
    if instr.op.is_call:
        uses |= CALL_USES
    return uses


def instr_defs(instr: Instruction) -> frozenset[Reg]:
    defs = frozenset(instr.defs())
    if instr.op.is_call:
        defs |= CALL_DEFS
    return defs


class Liveness:
    """Per-block live-IN/live-OUT register sets for one procedure."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        # GEN (upward-exposed uses) and KILL (definitions), one scan a block.
        gen: dict[str, frozenset[Reg]] = {}
        kill: dict[str, frozenset[Reg]] = {}
        for block in cfg.proc.blocks:
            upward: set[Reg] = set()
            defined: set[Reg] = set()
            for instr in block.instructions():
                upward.update(u for u in instr_uses(instr) if u not in defined)
                defined.update(instr_defs(instr))
            gen[block.label] = frozenset(upward)
            kill[block.label] = frozenset(defined)

        result = solve_backward(cfg, gen.__getitem__, kill.__getitem__,
                                boundary=RETURN_LIVE)
        self.live_in: dict[str, frozenset[Reg]] = result.in_
        self.live_out: dict[str, frozenset[Reg]] = result.out

    def live_before_each(self, label: str) -> list[frozenset[Reg]]:
        """Live set immediately *before* each instruction of the block
        (body followed by terminator), computed by a backward scan."""
        block = self.cfg.proc.block(label)
        instrs = list(block.instructions())
        live = set(self.live_out[label])
        before: list[frozenset[Reg]] = [frozenset()] * len(instrs)
        for i in range(len(instrs) - 1, -1, -1):
            instr = instrs[i]
            live -= instr_defs(instr)
            live |= instr_uses(instr)
            before[i] = frozenset(live)
        return before

    def dead_at_entry(self, label: str, reg: Reg) -> bool:
        """True if ``reg`` carries no useful value into block ``label`` —
        the legality test for speculative movement onto the other path."""
        return reg not in self.live_in[label]
