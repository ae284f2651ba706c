"""Traps and the boosted-exception shift buffer (Section 2.3).

A sequential (non-boosted) instruction that faults raises :class:`Trap`
immediately — a precise exception.  A *boosted* instruction that faults must
not signal anything yet: the hardware records the fault in a one-bit shift
buffer indexed by boosting level.  Each correctly-predicted branch shifts the
buffer; if the out-shifted bit is set, the speculative state is discarded and
the machine vectors to compiler-generated *recovery code*, where the fault
re-occurs on a sequential instruction and can be handled precisely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class TrapKind(enum.Enum):
    ADDRESS_ERROR = "address error"
    UNALIGNED = "unaligned access"
    DIV_ZERO = "divide by zero"


@dataclass
class Trap(Exception):
    """A synchronous exception raised by instruction execution."""

    kind: TrapKind
    addr: Optional[int] = None
    instr_uid: Optional[int] = None
    #: filled in by the simulators: where the trap was (precisely) signalled
    location: Optional[str] = None

    def __str__(self) -> str:
        where = f" at {self.location}" if self.location else ""
        target = f" (addr={self.addr:#x})" if self.addr is not None else ""
        return f"{self.kind.value}{target}{where}"

    def __reduce__(self):
        # Exception's default reduce replays __init__ with ``self.args``,
        # which a dataclass leaves empty — rebuild from the fields instead
        # so a Trap survives pickling across worker processes.
        return (Trap, (self.kind, self.addr, self.instr_uid, self.location))


@dataclass
class PendingBoostException:
    """What the shift buffer remembers about one deferred fault."""

    trap: Trap
    branch_uid: int  # the committing branch whose recovery code must run


class ExceptionShiftBuffer:
    """The one-bit-per-level shift buffer of Section 2.3.

    ``record(level, trap, branch_uid)`` notes a fault on an instruction
    boosted ``level`` branches up.  ``shift()`` models a correctly-predicted
    branch: every pending fault moves one level closer to commit, and the
    fault (if any) that reaches level zero is returned so the machine can
    invoke recovery.  ``clear()`` models a misprediction: all speculative
    faults vanish.
    """

    def __init__(self, levels: int) -> None:
        self.levels = levels
        self._slots: list[Optional[PendingBoostException]] = [None] * (levels + 1)

    def record(self, level: int, trap: Trap, branch_uid: int) -> None:
        if not 1 <= level <= self.levels:
            raise ValueError(f"boost level {level} out of range 1..{self.levels}")
        # Multiple faults at one level collapse to one bit; first wins, which
        # matches program order on an in-order machine.
        if self._slots[level] is None:
            self._slots[level] = PendingBoostException(trap, branch_uid)

    def shift(self, committing_branch_uid: int) -> Optional[PendingBoostException]:
        """Correct prediction: shift down one level; return any fault that
        commits (its bit shifted out at level 1)."""
        out = self._slots.pop(1)
        self._slots.append(None)
        if out is not None:
            out.branch_uid = committing_branch_uid
        return out

    def clear(self) -> None:
        """Incorrect prediction: discard every speculative fault."""
        for level in range(len(self._slots)):
            self._slots[level] = None

    def pending(self) -> bool:
        return any(slot is not None for slot in self._slots)


@dataclass
class ExecutionResult:
    """Observable outcome of running a program on any of the machines."""

    output: list[int] = field(default_factory=list)
    instr_count: int = 0
    cycle_count: int = 0
    nop_count: int = 0
    branch_count: int = 0
    mispredict_count: int = 0
    trap: Optional[Trap] = None
    #: observability sinks attached by instrumented runs (repro.obs);
    #: None unless stats collection was requested
    sim_stats: Optional[object] = None
    sched_stats: Optional[object] = None

    @property
    def ipc(self) -> float:
        return self.instr_count / self.cycle_count if self.cycle_count else 0.0

    @property
    def prediction_accuracy(self) -> float:
        if self.branch_count == 0:
            return 1.0
        return 1.0 - self.mispredict_count / self.branch_count
