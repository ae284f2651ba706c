"""Loop-invariant code motion.

Hoists pure, non-trapping instructions whose operands are loop invariant
into a preheader block.  Safety conditions (classic, conservative):

* the instruction is side-effect free, not a load, and cannot except;
* its destination has exactly one definition inside the loop;
* the destination is **not** live into the loop header (so neither an
  outside value nor a loop-carried value is clobbered);
* every source is either not defined in the loop or defined by an
  already-hoisted instruction.

The pass builds preheaders on demand and iterates to a fixed point; it runs
before register allocation, where single-definition temporaries are common.
"""

from __future__ import annotations

from repro.analysis.liveness import Liveness, instr_defs, instr_uses
from repro.analysis.regions import RegionTree
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.program.block import BasicBlock
from repro.program.cfg import CFG
from repro.program.procedure import Procedure, Program


def _is_pure(instr: Instruction) -> bool:
    return (instr.side_effect_free
            and not instr.op.is_load
            and not instr.op.can_except
            and instr.op is not Opcode.NOP
            and bool(instr.defs()))


def _make_preheader(proc: Procedure, cfg: CFG, loop) -> BasicBlock | None:
    """Create (and wire up) a preheader for ``loop``; None if the shape is
    too awkward (conditional fall-through backedge)."""
    header = loop.header
    header_idx = proc.blocks.index(proc.block(header))
    prev = proc.blocks[header_idx - 1] if header_idx > 0 else None

    if prev is not None and prev.label in loop.blocks:
        # The layout predecessor is inside the loop.  If it falls through to
        # the header, inserting a preheader would put hoisted code on the
        # backedge.
        if prev.terminator is None:
            prev.terminator = Instruction(Opcode.J, target=header)
        elif prev.ends_in_cond_branch and prev.terminator.target != header:
            return None  # conditional fall-through backedge: skip this loop

    pre_label = proc.fresh_label(f"{header}.pre")
    pre = BasicBlock(pre_label)
    before = proc.blocks[header_idx - 1].label if header_idx > 0 else None
    if before is None:
        proc.blocks.insert(0, pre)
        proc._by_label[pre_label] = pre
    else:
        proc.add_block(pre, after=before)

    # Retarget every outside predecessor that *branches* to the header.
    for pred_label in cfg.preds(header):
        if pred_label in loop.blocks:
            continue
        pred = proc.block(pred_label)
        term = pred.terminator
        if term is not None and term.target == header and not term.op.is_call:
            term.target = pre_label
    return pre


def _hoist_loop(proc: Procedure, cfg: CFG, live: Liveness, loop) -> bool:
    """Hoist ``loop``'s invariants into a new preheader.  When it returns
    False it has not touched ``proc``, so ``cfg`` and ``live`` still hold."""
    header_live_in = live.live_in[loop.header]

    loop_blocks = [b for b in proc.blocks if b.label in loop.blocks]
    # Under the caller-saves-everything convention no register survives a
    # call, so hoisting out of a loop that calls would create live ranges
    # the allocator cannot place.
    if any(b.ends_in_call for b in loop_blocks):
        return False
    def_counts: dict[Reg, int] = {}
    for block in loop_blocks:
        for instr in block.instructions():
            for reg in instr_defs(instr):
                def_counts[reg] = def_counts.get(reg, 0) + 1

    hoisted: list[tuple[BasicBlock, Instruction]] = []
    hoisted_defs: set[Reg] = set()
    progress = True
    while progress:
        progress = False
        for block in loop_blocks:
            for instr in list(block.body):
                if any(instr is h for _, h in hoisted):
                    continue
                if not _is_pure(instr):
                    continue
                dst = instr.dst
                if dst is None or def_counts.get(dst, 0) != 1:
                    continue
                if dst in header_live_in:
                    continue
                invariant = all(
                    def_counts.get(src, 0) == 0 or src in hoisted_defs
                    for src in instr_uses(instr)
                )
                if not invariant:
                    continue
                hoisted.append((block, instr))
                hoisted_defs.add(dst)
                progress = True

    if not hoisted:
        return False
    pre = _make_preheader(proc, cfg, loop)
    if pre is None:
        return False
    for block, instr in hoisted:
        block.remove(instr)
        pre.body.append(instr)
    return True


def licm_procedure(proc: Procedure, max_rounds: int = 100) -> bool:
    changed = False
    for _ in range(max_rounds):
        # One set of analyses a round: a failed hoist leaves the procedure
        # as it was, and the round ends at the first hoist that succeeds.
        cfg = CFG(proc)
        tree = RegionTree(cfg)
        live = Liveness(cfg)
        round_changed = False
        # Innermost loops first: hoisting cascades outward on later rounds.
        for loop in tree.schedule_order():
            if not loop.is_loop:
                continue
            if _hoist_loop(proc, cfg, live, loop):
                round_changed = True
                break  # CFG changed; rebuild the analyses
        if not round_changed:
            break
        changed = True
    return changed


def licm_program(program: Program) -> bool:
    changed = False
    for proc in program.procedures.values():
        changed |= licm_procedure(proc)
    return changed
