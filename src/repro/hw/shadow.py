"""Shadow register files — the speculative register state of Section 4.

Three organisations, matching the machine models:

* :class:`MultiLevelShadowFile` — one shadow location per register per
  boosting level (the "full support" design of Section 4.1, used by Boost7).
  Implemented the way the paper describes: a pool of register/counter pairs
  per architectural register; a commit logically shifts every level down by
  decrementing counters.
* :class:`SingleShadowFile` — Option 2 (Boost1/MinBoost3/Squashing): one
  shadow location per register with a counter holding the boosting level of
  the value.  Two *different-level* outstanding boosted writes to one
  register cannot coexist — attempting it raises
  :class:`ShadowConflictError`, which is how scheduler bugs become loud
  simulator failures (Figure 6b is impossible, 6c is required).
* :class:`NullShadowFile` — the base machine: boosted writes are a
  programming error.

Read semantics: a reader executing with boosting level *L* sees the future
value with the **highest level ≤ L**, falling back to the sequential
register.  A sequential reader (L = 0) never sees speculative state.
"""

from __future__ import annotations

from typing import Optional


class ShadowConflictError(RuntimeError):
    """The schedule required more shadow storage than the hardware has."""


class ShadowFileBase:
    """Interface shared by all shadow register file organisations."""

    def read(self, reg: int, level: int) -> Optional[int]:
        """Speculative value visible to a level-``level`` reader, or None."""
        raise NotImplementedError

    def write(self, reg: int, level: int, value: int) -> None:
        raise NotImplementedError

    def commit(self) -> dict[int, int]:
        """A correctly-predicted branch executed: shift every level down.
        Returns the level-1 values that must update the sequential state."""
        raise NotImplementedError

    def squash(self) -> None:
        """An incorrectly-predicted branch executed: discard everything."""
        raise NotImplementedError

    def outstanding(self) -> int:
        """Number of valid shadow values (for tests/stats)."""
        raise NotImplementedError


class NullShadowFile(ShadowFileBase):
    def read(self, reg: int, level: int) -> Optional[int]:
        return None

    def write(self, reg: int, level: int, value: int) -> None:
        raise ShadowConflictError("this machine has no shadow register file")

    def commit(self) -> dict[int, int]:
        return {}

    def squash(self) -> None:
        pass

    def outstanding(self) -> int:
        return 0


class MultiLevelShadowFile(ShadowFileBase):
    """Distinct storage per level (Section 4.1, Figure 6b is schedulable)."""

    def __init__(self, levels: int) -> None:
        if levels < 1:
            raise ValueError("need at least one level")
        self.levels = levels
        self._state: list[dict[int, int]] = [{} for _ in range(levels + 1)]

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.levels:
            raise ShadowConflictError(
                f"boost level {level} exceeds hardware maximum {self.levels}")

    def read(self, reg: int, level: int) -> Optional[int]:
        for lvl in range(min(level, self.levels), 0, -1):
            if reg in self._state[lvl]:
                return self._state[lvl][reg]
        return None

    def write(self, reg: int, level: int, value: int) -> None:
        self._check_level(level)
        self._state[level][reg] = value

    def commit(self) -> dict[int, int]:
        committed = self._state.pop(1)
        self._state.append({})
        return committed

    def squash(self) -> None:
        for level in range(1, self.levels + 1):
            self._state[level] = {}

    def outstanding(self) -> int:
        return sum(len(s) for s in self._state[1:])


class SingleShadowFile(ShadowFileBase):
    """One shadow register + counter + valid bit per sequential register
    (Option 2, Figure 7).  Holds at most one outstanding level per register."""

    def __init__(self, levels: int) -> None:
        if levels < 1:
            raise ValueError("need at least one level")
        self.levels = levels
        self._value: dict[int, int] = {}
        self._count: dict[int, int] = {}

    def read(self, reg: int, level: int) -> Optional[int]:
        if reg in self._value and self._count[reg] <= level:
            return self._value[reg]
        return None

    def write(self, reg: int, level: int, value: int) -> None:
        if not 1 <= level <= self.levels:
            raise ShadowConflictError(
                f"boost level {level} exceeds hardware maximum {self.levels}")
        if reg in self._value and self._count[reg] != level:
            raise ShadowConflictError(
                f"register r{reg} already holds an outstanding boosted value "
                f"at level {self._count[reg]}; cannot also hold level {level} "
                "in a single shadow register file (Figure 6)")
        self._value[reg] = value
        self._count[reg] = level

    def commit(self) -> dict[int, int]:
        if not self._value:
            return {}
        committed: dict[int, int] = {}
        for reg in list(self._value):
            self._count[reg] -= 1
            if self._count[reg] == 0:
                committed[reg] = self._value.pop(reg)
                del self._count[reg]
        return committed

    def squash(self) -> None:
        self._value.clear()
        self._count.clear()

    def outstanding(self) -> int:
        return len(self._value)


def make_shadow_file(max_level: int, multi: bool) -> ShadowFileBase:
    """Factory keyed on a :class:`~repro.sched.boostmodel.BoostModel`."""
    if max_level <= 0:
        return NullShadowFile()
    if multi:
        return MultiLevelShadowFile(max_level)
    return SingleShadowFile(max_level)
