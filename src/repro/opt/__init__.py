"""Classic optimizations (the paper's "standard optimizations", §4.3) and
register allocation."""

from repro.opt.cfgclean import clean_cfg, clean_program
from repro.opt.constfold import fold_block, fold_procedure, fold_program
from repro.opt.copyprop import (
    propagate_block, propagate_procedure, propagate_program,
)
from repro.opt.cse import cse_block, cse_procedure, cse_program
from repro.opt.dce import dce_procedure, dce_program
from repro.opt.licm import licm_procedure, licm_program
from repro.opt.unroll import unroll_loop, unroll_program
from repro.opt.regalloc import (
    RegPressureError, allocate_infinite_procedure, allocate_procedure,
    allocate_program, verify_no_virtuals,
)
from repro.program.procedure import Program


def _snapshot(program: Program) -> list:
    """Block labels and instruction fields in layout order: all of the IR
    the optimization passes read or write."""
    return [(block.label, [(i.op, i.dst, i.srcs, i.imm, i.target, i.uid)
                           for i in block.instructions()])
            for proc in program.procedures.values() for block in proc.blocks]


def optimize_program(program: Program, max_rounds: int = 10) -> Program:
    """Run the scalar optimization pipeline to a fixed point (in place).

    A round that reports changes can still leave the IR as it found it:
    folding turns ``move d, s`` with ``s`` a known constant into ``li d, c``,
    and CSE turns the repeated ``li`` back into the ``move``.  Every later
    round would do the same, so the pipeline stops there too.
    """
    program.invalidate_caches()
    clean_program(program)
    before = _snapshot(program)
    for _ in range(max_rounds):
        changed = fold_program(program)
        changed |= propagate_program(program)
        changed |= licm_program(program)
        changed |= cse_program(program)
        changed |= dce_program(program)
        clean_program(program)
        if not changed:
            break
        after = _snapshot(program)
        if after == before:
            break
        before = after
    return program


__all__ = [
    "RegPressureError", "allocate_infinite_procedure", "allocate_procedure",
    "allocate_program", "clean_cfg", "clean_program", "cse_block",
    "cse_procedure", "cse_program", "dce_procedure", "dce_program",
    "fold_block", "fold_procedure", "fold_program", "licm_procedure",
    "licm_program", "optimize_program",
    "propagate_block", "propagate_procedure", "propagate_program",
    "unroll_loop", "unroll_program",
    "verify_no_virtuals",
]
