"""Dominators and postdominators (Cooper/Harvey/Kennedy iterative scheme).

Used for natural-loop (region) detection and for *control equivalence*: block
``A`` is control equivalent to ``D`` iff ``A`` dominates ``D`` and ``D``
postdominates ``A`` (Section 3.2.2's "equivalent basic blocks").
"""

from __future__ import annotations

from typing import Optional

from repro.program.cfg import CFG


def _compute_idoms(
    order: list[str],
    preds: dict[str, list[str]],
    entry: str,
) -> dict[str, Optional[str]]:
    """Iterative idom computation over ``order`` (an RPO from ``entry``)."""
    index = {label: i for i, label in enumerate(order)}
    idom: dict[str, Optional[str]] = {label: None for label in order}
    idom[entry] = entry

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            candidates = [p for p in preds.get(label, ()) if idom.get(p) is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom[label] != new_idom:
                idom[label] = new_idom
                changed = True
    idom[entry] = None
    return idom


class Dominators:
    """Immediate-dominator tree plus ``dominates`` queries."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        order = cfg.rpo()
        reachable = set(order)
        preds = {label: [p for p in cfg.preds(label) if p in reachable]
                 for label in order}
        self.idom = _compute_idoms(order, preds, cfg.proc.entry.label)
        self._depth: dict[str, int] = {}
        for label in order:
            self._depth[label] = self._compute_depth(label)

    def _compute_depth(self, label: str) -> int:
        depth = 0
        node: Optional[str] = label
        while self.idom.get(node) is not None:
            node = self.idom[node]
            depth += 1
        return depth

    def dominates(self, a: str, b: str) -> bool:
        """True iff ``a`` dominates ``b`` (reflexive)."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)


_VIRTUAL_EXIT = "__exit__"


class PostDominators:
    """Postdominators, computed on the reversed CFG with a virtual exit."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        reachable = set(cfg.rpo())
        # Reverse graph: preds of the reverse graph are the succs of the CFG.
        exits = [label for label in reachable if not cfg.succs(label)]
        rev_succs: dict[str, list[str]] = {lab: [] for lab in reachable}
        rev_preds: dict[str, list[str]] = {lab: [] for lab in reachable}
        for label in reachable:
            for succ in cfg.succs(label):
                if succ in reachable:
                    rev_succs[succ].append(label)
                    rev_preds[label].append(succ)
        rev_succs[_VIRTUAL_EXIT] = list(exits)
        rev_preds[_VIRTUAL_EXIT] = []
        for e in exits:
            rev_preds[e].append(_VIRTUAL_EXIT)

        order = self._rpo(_VIRTUAL_EXIT, rev_succs)
        in_order = set(order)
        preds_in_order = {lab: [p for p in rev_preds[lab] if p in in_order]
                          for lab in order}
        self.ipdom = _compute_idoms(order, preds_in_order, _VIRTUAL_EXIT)

    @staticmethod
    def _rpo(entry: str, succs: dict[str, list[str]]) -> list[str]:
        seen = {entry}
        order: list[str] = []

        def visit(node: str) -> None:
            stack = [(node, iter(succs.get(node, ())))]
            while stack:
                label, it = stack[-1]
                advanced = False
                for s in it:
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, iter(succs.get(s, ()))))
                        advanced = True
                        break
                if not advanced:
                    order.append(label)
                    stack.pop()

        visit(entry)
        order.reverse()
        return order

    def postdominates(self, a: str, b: str) -> bool:
        """True iff ``a`` postdominates ``b`` (reflexive)."""
        node: Optional[str] = b
        while node is not None and node != _VIRTUAL_EXIT:
            if node == a:
                return True
            node = self.ipdom.get(node)
        return a == node
