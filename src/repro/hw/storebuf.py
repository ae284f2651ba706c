"""Shadow store buffer: speculative memory state, byte-accurate per level.

Boosted stores are buffered here instead of touching memory; boosted loads
snoop the buffer (highest level ≤ their own wins, else memory).  A commit
writes the level-1 bytes to memory and shifts the deeper levels down; a
squash discards everything (Section 2.2's separation of sequential and
speculative state, applied to memory).
"""

from __future__ import annotations

from repro.hw.memory import Memory


class StoreBufferError(RuntimeError):
    pass


class ShadowStoreBuffer:
    def __init__(self, levels: int) -> None:
        if levels < 1:
            raise ValueError("need at least one level")
        self.levels = levels
        self._bytes: list[dict[int, int]] = [{} for _ in range(levels + 1)]

    # ----------------------------------------------------------------- writes
    def store(self, level: int, addr: int, data: bytes) -> None:
        if not 1 <= level <= self.levels:
            raise StoreBufferError(
                f"boost level {level} exceeds store buffer depth {self.levels}")
        for i, byte in enumerate(data):
            self._bytes[level][addr + i] = byte

    # ------------------------------------------------------------------ reads
    def load_byte(self, addr: int, level: int) -> int | None:
        """Buffered byte visible to a level-``level`` reader, else None."""
        for lvl in range(min(level, self.levels), 0, -1):
            if addr in self._bytes[lvl]:
                return self._bytes[lvl][addr]
        return None

    def load(self, mem: Memory, addr: int, nbytes: int, level: int) -> bytes:
        """``nbytes`` at ``addr`` as seen by a level-``level`` reader:
        buffered bytes merged over memory."""
        raw = bytearray(mem.read_bytes(addr, nbytes))
        if level > 0:
            for i in range(nbytes):
                hit = self.load_byte(addr + i, level)
                if hit is not None:
                    raw[i] = hit
        return bytes(raw)

    # ----------------------------------------------------------- commit/squash
    def commit(self, mem: Memory) -> int:
        """Write level-1 bytes to memory, shift deeper levels down.  Returns
        the number of bytes retired."""
        retiring = self._bytes.pop(1)
        self._bytes.append({})
        for addr, byte in retiring.items():
            mem.store_byte(addr, byte)
        return len(retiring)

    def squash(self) -> None:
        for level in range(1, self.levels + 1):
            self._bytes[level] = {}

    def outstanding(self) -> int:
        return sum(len(level) for level in self._bytes[1:])
