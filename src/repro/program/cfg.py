"""Control-flow graph over a procedure's basic blocks.

Successor conventions:

* conditional branch — ``[taken_target, fallthrough]``
* unconditional jump — ``[target]``
* call (``jal``) — ``[fallthrough]`` (the callee is a separate graph)
* return (``jr``) / ``halt`` — ``[]``
* unterminated block — ``[fallthrough]``
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.program.block import BasicBlock
from repro.program.procedure import Procedure


class CFG:
    """Successor/predecessor maps plus common traversals.

    The CFG is a *snapshot*: rebuild it (or call :meth:`refresh`) after
    structural edits such as inserting compensation blocks.
    """

    def __init__(self, proc: Procedure) -> None:
        self.proc = proc
        self._succs: dict[str, list[str]] = {}
        self._preds: dict[str, list[str]] = {}
        self.refresh()

    def refresh(self) -> None:
        self._succs.clear()
        self._preds.clear()
        blocks = self.proc.blocks
        for i, block in enumerate(blocks):
            fall = blocks[i + 1].label if i + 1 < len(blocks) else None
            self._succs[block.label] = self._compute_succs(block, fall)
            self._preds.setdefault(block.label, [])
        for label, succs in self._succs.items():
            for succ in succs:
                self._preds.setdefault(succ, []).append(label)

    @staticmethod
    def _compute_succs(block: BasicBlock,
                       fall_label: Optional[str]) -> list[str]:
        term = block.terminator
        if term is None:
            return [fall_label] if fall_label is not None else []
        op = term.op
        if op.is_cond_branch:
            succs = [term.target]
            if fall_label is not None:
                succs.append(fall_label)
            return succs
        if op.is_call:
            return [fall_label] if fall_label is not None else []
        if op.is_indirect:  # jr — a return; no intraprocedural successor
            return []
        if op.is_jump:
            return [term.target]
        return []  # halt

    # ---------------------------------------------------------------- queries
    def succs(self, label: str) -> list[str]:
        return self._succs[label]

    def preds(self, label: str) -> list[str]:
        return self._preds[label]

    def taken_succ(self, label: str) -> Optional[str]:
        """Target of the block's conditional branch, if it ends in one."""
        block = self.proc.block(label)
        if block.ends_in_cond_branch:
            return block.terminator.target
        return None

    def fall_succ(self, label: str) -> Optional[str]:
        block = self.proc.block(label)
        if block.ends_in_cond_branch:
            fall = self.proc.layout_successor(label)
            return fall.label if fall is not None else None
        succs = self._succs[label]
        return succs[0] if len(succs) == 1 else None

    def predicted_succ(self, label: str) -> Optional[str]:
        """The successor along the statically-predicted direction."""
        block = self.proc.block(label)
        term = block.terminator
        if term is None or not term.op.is_cond_branch:
            return self.fall_succ(label)
        if term.predict_taken:
            return self.taken_succ(label)
        return self.fall_succ(label)

    def off_trace_succ(self, label: str, on_trace: str) -> Optional[str]:
        """The other successor of a two-way block."""
        others = [s for s in self._succs[label] if s != on_trace]
        return others[0] if others else None

    # ------------------------------------------------------------- traversals
    def rpo(self) -> list[str]:
        """Reverse post-order from the entry (a topological order ignoring
        back edges)."""
        seen: set[str] = set()
        order: list[str] = []

        entry = self.proc.entry.label
        stack: list[tuple[str, Iterator[str]]] = [(entry, iter(self._succs[entry]))]
        seen.add(entry)
        while stack:
            label, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self._succs[succ])))
                    advanced = True
                    break
            if not advanced:
                order.append(label)
                stack.pop()
        order.reverse()
        return order

    def reachable(self) -> set[str]:
        return set(self.rpo())

    def edges(self) -> Iterator[tuple[str, str]]:
        for label, succs in self._succs.items():
            for succ in succs:
                yield (label, succ)
