"""Regions for the global scheduler (Section 3.2.1).

A *region* is either a natural loop or the procedure body.  Scheduling
proceeds from innermost to outermost regions and never moves code across a
region boundary; traces are constrained to remain within a region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dominators import Dominators
from repro.program.cfg import CFG


@dataclass
class Region:
    """A schedulable region: a loop (with header) or the whole procedure."""

    header: str                       # loop header, or procedure entry
    blocks: frozenset[str]
    is_loop: bool
    depth: int = 0                    # nesting depth; 0 = procedure body
    parent: "Region | None" = None
    children: list["Region"] = field(default_factory=list)

    def __repr__(self) -> str:
        kind = "loop" if self.is_loop else "proc"
        return f"<Region {kind}@{self.header} depth={self.depth} |B|={len(self.blocks)}>"


def _natural_loop(cfg: CFG, head: str, tail: str) -> set[str]:
    """Blocks of the natural loop for back edge ``tail -> head``."""
    loop = {head, tail}
    stack = [tail] if tail != head else []
    while stack:
        node = stack.pop()
        for pred in cfg.preds(node):
            if pred not in loop:
                loop.add(pred)
                stack.append(pred)
    return loop


class RegionTree:
    """Loop nest of a procedure, presented innermost-first for scheduling."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        dom = Dominators(cfg)
        order = cfg.rpo()
        reachable = set(order)

        # Find back edges (tail -> head with head dominating tail) and merge
        # loops that share a header.  Walk the blocks in RPO: the order of
        # equal-sized loops, and so the schedule, must not depend on how
        # strings hash.
        loops_by_header: dict[str, set[str]] = {}
        for tail in order:
            for head in cfg.succs(tail):
                if head in reachable and dom.dominates(head, tail):
                    body = _natural_loop(cfg, head, tail)
                    loops_by_header.setdefault(head, set()).update(body)

        self.root = Region(
            header=cfg.proc.entry.label,
            blocks=frozenset(b.label for b in cfg.proc.blocks),
            is_loop=False,
        )
        loops = [
            Region(header=h, blocks=frozenset(b), is_loop=True)
            for h, b in loops_by_header.items()
        ]
        # Nest loops by containment: parent = smallest strictly-containing loop.
        loops.sort(key=lambda r: len(r.blocks))
        for i, inner in enumerate(loops):
            parent = self.root
            for outer in loops[i + 1:]:
                if inner.blocks < outer.blocks or (
                        inner.blocks == outer.blocks and inner is not outer):
                    parent = outer
                    break
            inner.parent = parent
            parent.children.append(inner)
        for loop in loops:
            depth, node = 0, loop
            while node.parent is not None:
                depth += 1
                node = node.parent
            loop.depth = depth
        self.loops = loops

    def schedule_order(self) -> list[Region]:
        """Regions innermost-first, ending with the procedure body."""
        return sorted(self.loops, key=lambda r: -r.depth) + [self.root]

    def innermost_region_of(self, label: str) -> Region:
        """The smallest region containing ``label``."""
        best = self.root
        for loop in self.loops:  # loops are sorted smallest-first
            if label in loop.blocks:
                return loop
        return best

    def same_region(self, a: str, b: str) -> bool:
        return self.innermost_region_of(a) is self.innermost_region_of(b)
