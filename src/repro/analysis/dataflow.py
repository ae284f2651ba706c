"""A small generic iterative dataflow solver.

Used by liveness (backward, union) and reaching-definitions style analyses.
Problems are described by per-block GEN/KILL sets over an arbitrary hashable
element type; the solver iterates to a fixed point over the CFG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

from repro.program.cfg import CFG

T = TypeVar("T", bound=Hashable)


@dataclass
class DataflowResult(Generic[T]):
    """IN/OUT sets per block label."""

    in_: dict[str, frozenset[T]]
    out: dict[str, frozenset[T]]


def solve_backward(
    cfg: CFG,
    gen: Callable[[str], frozenset[T]],
    kill: Callable[[str], frozenset[T]],
    boundary: frozenset[T] = frozenset(),
) -> DataflowResult[T]:
    """Solve ``IN[b] = gen(b) ∪ (OUT[b] − kill(b))``, ``OUT[b] = ∪ IN[succ]``.

    ``boundary`` seeds OUT of exit blocks (e.g. registers live across a
    return: the caller's view of ``$v0``/``$sp`` and the callee-saves).
    """
    labels = [b.label for b in cfg.proc.blocks]
    gen_sets = {lab: gen(lab) for lab in labels}
    kill_sets = {lab: kill(lab) for lab in labels}
    in_: dict[str, frozenset[T]] = {lab: frozenset() for lab in labels}
    out: dict[str, frozenset[T]] = {lab: frozenset() for lab in labels}

    order = cfg.rpo()
    reachable = set(order)
    worklist = list(reversed(order)) + [lab for lab in labels if lab not in reachable]
    pending = set(worklist)
    while worklist:
        label = worklist.pop()
        pending.discard(label)
        succs = cfg.succs(label)
        new_out = boundary if not succs else frozenset().union(
            *(in_[s] for s in succs))
        new_in = gen_sets[label] | (new_out - kill_sets[label])
        out[label] = new_out
        if new_in != in_[label]:
            in_[label] = new_in
            for pred in cfg.preds(label):
                if pred not in pending:
                    pending.add(pred)
                    worklist.append(pred)
    return DataflowResult(in_=in_, out=out)


def solve_forward(
    cfg: CFG,
    gen: Callable[[str], frozenset[T]],
    kill: Callable[[str], frozenset[T]],
    boundary: frozenset[T] = frozenset(),
) -> DataflowResult[T]:
    """Solve ``OUT[b] = gen(b) ∪ (IN[b] − kill(b))``, ``IN[b] = ∪ OUT[pred]``."""
    labels = [b.label for b in cfg.proc.blocks]
    gen_sets = {lab: gen(lab) for lab in labels}
    kill_sets = {lab: kill(lab) for lab in labels}
    in_: dict[str, frozenset[T]] = {lab: frozenset() for lab in labels}
    out: dict[str, frozenset[T]] = {lab: frozenset() for lab in labels}
    entry = cfg.proc.entry.label

    worklist = cfg.rpo()
    pending = set(worklist)
    while worklist:
        label = worklist.pop(0)
        pending.discard(label)
        preds = cfg.preds(label)
        if label == entry:
            new_in = boundary
            if preds:
                new_in = new_in | frozenset().union(*(out[p] for p in preds))
        elif preds:
            new_in = frozenset().union(*(out[p] for p in preds))
        else:
            new_in = frozenset()
        new_out = gen_sets[label] | (new_in - kill_sets[label])
        in_[label] = new_in
        if new_out != out[label]:
            out[label] = new_out
            for succ in cfg.succs(label):
                if succ not in pending:
                    pending.add(succ)
                    worklist.append(succ)
    return DataflowResult(in_=in_, out=out)
