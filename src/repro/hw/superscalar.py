"""The statically-scheduled pipeline simulator.

Executes a :class:`~repro.sched.schedprog.ScheduledProgram` — cycle rows of
issue slots — with the boosting hardware of the schedule's machine model:

* operands are read at issue (register file reads before writes in a cycle);
* boosted results go to the shadow register file / shadow store buffer;
* a conditional branch resolves at the end of its cycle; the following delay
  cycle always executes; at the end of the block the branch's outcome
  commits (correct prediction) or squashes (misprediction) the speculative
  state;
* exceptions on boosted instructions are deferred through the one-bit shift
  buffer; when a deferred fault commits, the machine discards speculative
  state, pays the recovery overhead, and executes the compiler-generated
  recovery code, where the fault re-occurs precisely (Section 2.3);
* a scoreboard interlock stalls an issue row until its operands are ready,
  so cross-block latency violations cost cycles instead of corrupting state
  (the schedulers fill delay slots; the interlock only catches the
  boundaries).

The same simulator runs the scalar R2000-like baseline: a width-1 schedule
with the NO_BOOST model.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.hw.alu import ALU_FUNCS, branch_taken, execute_alu, s32
from repro.hw.backend import resolve_backend
from repro.hw.errors import (
    CycleLimitExceeded, ScheduleError, SimulationError, WallClockExceeded,
)
from repro.hw.exceptions import ExecutionResult, ExceptionShiftBuffer, Trap, TrapKind
from repro.hw.functional import EXIT_TOKEN
from repro.hw.memory import Memory
from repro.hw.shadow import make_shadow_file
from repro.hw.storebuf import ShadowStoreBuffer
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import RA, SP, Reg
from repro.sched.schedprog import ScheduledProcedure, ScheduledProgram

__all__ = ["SimulationError", "SuperscalarSim", "run_scheduled"]

_TOKEN_STRIDE = 16

#: called before an eligible instruction executes; returning a Trap makes
#: the machine behave as if the instruction itself faulted (fault injection)
FaultHook = Callable[[Instruction], Optional[Trap]]

# Dispatch tags for the pre-decoded fast path.
_S_ALU, _S_LOAD, _S_STORE, _S_PRINT, _S_TERM, _S_NOP = range(6)


def _ridx(reg) -> int:
    """Register index for reads; -1 encodes the hard-wired zero register."""
    return -1 if reg is None or reg.is_zero else reg.index


class SuperscalarSim:
    def __init__(
        self,
        sched: ScheduledProgram,
        max_cycles: int = 100_000_000,
        trap_handler: Optional[Callable[[Trap], Optional[int]]] = None,
        input_image: Optional[list[tuple[int, bytes]]] = None,
        fault_hook: Optional[FaultHook] = None,
        wall_clock_limit: Optional[float] = None,
        shiftbuf: Optional[ExceptionShiftBuffer] = None,
        fast: Optional[bool] = None,
        backend: Optional[str] = None,
        stats=None,
        trace=None,
    ) -> None:
        self.sched = sched
        self.program = sched.program
        self.model = sched.model
        self.machine = sched.machine
        self.max_cycles = max_cycles
        self.trap_handler = trap_handler
        self.fault_hook = fault_hook
        self.wall_clock_limit = wall_clock_limit

        nregs = max(self.program.max_register_index() + 1, 32)
        self.regs = [0] * nregs
        self.mem = Memory(self.program.mem_size)
        self.mem.write_image(self.program.data.initial_image())
        if input_image:
            self.mem.write_image(input_image)
        self.regs[SP.index] = self.program.mem_size - 64
        self.regs[RA.index] = EXIT_TOKEN

        self.shadow = make_shadow_file(self.model.max_level,
                                       self.model.multi_shadow_files)
        self.storebuf = (ShadowStoreBuffer(self.model.max_level)
                         if self.model.max_level > 0 and self.model.boost_stores
                         else None)
        # Injectable for fault-injection self-tests (a deliberately broken
        # buffer must be detectable by the differential checker).
        self.shiftbuf = (shiftbuf if shiftbuf is not None
                         else ExceptionShiftBuffer(max(self.model.max_level, 1)))

        self._ready: dict[int, int] = {}
        self._tokens: dict[int, tuple[ScheduledProcedure, int]] = {}
        self._next_token = EXIT_TOKEN + _TOKEN_STRIDE
        self._block_index = {
            name: {b.label: i for i, b in enumerate(p.blocks)}
            for name, p in sched.procedures.items()
        }
        self.result = ExecutionResult()
        self.recovery_invocations = 0
        self.boosted_executed = 0
        self.boosted_squashed = 0
        self._ctl: Optional[tuple] = None
        self.now = 0
        self.backend = resolve_backend(backend, fast)
        self.fast = self.backend != "reference"
        self._decoded: Optional[dict[str, list]] = None
        #: optional observability sinks (repro.obs); None keeps the fast
        #: path at one ``is not None`` test per basic block.  A sink with
        #: ``collecting = False`` (NullStats) is hidden from the hot loops
        #: entirely — it only sees the final ``finalize_superscalar``.
        self._stats = stats
        self._stats_hot = stats if stats is not None and stats.collecting \
            else None
        self._trace = trace

    # ------------------------------------------------------------- primitives
    def _read(self, reg: Reg, level: int) -> int:
        if reg.is_zero:
            return 0
        if level > 0:
            hit = self.shadow.read(reg.index, level)
            if hit is not None:
                return hit
        return self.regs[reg.index]

    def _write(self, instr: Instruction, value: int) -> None:
        reg = instr.dst
        if reg is None or reg.is_zero:
            return
        if instr.boost > 0:
            self.shadow.write(reg.index, instr.boost, value & 0xFFFFFFFF)
        else:
            self.regs[reg.index] = value & 0xFFFFFFFF
        self._ready[reg.index] = self.now + instr.op.latency

    def _trap(self, trap: Trap, instr: Instruction) -> Optional[int]:
        """Handle a fault at issue.  For boosted instructions the fault is
        deferred; for sequential ones it is precise.

        The reported location is the *architectural* identity of the
        instruction (``origin`` for recovery/compensation copies), so a fault
        surfacing from compiler-generated recovery code names the same source
        instruction the functional reference would.
        """
        trap.instr_uid = instr.origin or instr.uid
        if instr.boost > 0:
            self.shiftbuf.record(instr.boost, trap, branch_uid=0)
            return None
        if self.trap_handler is not None:
            fix = self.trap_handler(trap)
            if fix is not None:
                return fix
        self.result.trap = trap
        raise trap

    # ----------------------------------------------------------------- decode
    def _decode_slot(self, instr: Instruction) -> tuple:
        """Flat dispatch tuple for one issue slot: tag, operand register
        indices, and everything ``_execute`` would otherwise look up per
        dynamic instance."""
        op = instr.op
        boost = instr.boost
        srcs = tuple(_ridx(r) for r in instr.srcs)
        if op is Opcode.NOP:
            return (_S_NOP, instr, boost, srcs)
        if instr.is_terminator:
            return (_S_TERM, instr, boost, srcs)
        if op is Opcode.PRINT:
            return (_S_PRINT, instr, boost, srcs)
        dst = _ridx(instr.dst)
        if op.is_load:
            return (_S_LOAD, instr, boost, srcs, dst, op.latency,
                    instr.imm or 0, 4 if op is Opcode.LW else 1,
                    op is Opcode.LB)
        if op.is_store:
            return (_S_STORE, instr, boost, srcs, instr.imm or 0,
                    4 if op is Opcode.SW else 1)
        fn = ALU_FUNCS.get(op)
        if fn is None:
            raise ScheduleError(f"cannot decode {instr}")
        return (_S_ALU, instr, boost, srcs, dst, op.latency, instr.imm or 0,
                fn)

    def _decode(self) -> dict[str, list]:
        """Per procedure: per block, the issue rows with ``None`` slots
        dropped and the scoreboard watch set precomputed."""
        decoded: dict[str, list] = {}
        for name, proc in self.sched.procedures.items():
            blocks = []
            for block in proc.blocks:
                rows = []
                for row in block.cycles:
                    entries = tuple(self._decode_slot(i) for i in row
                                    if i is not None)
                    watch = tuple({idx for e in entries for idx in e[3]
                                   if idx >= 0})
                    rows.append((entries, watch))
                blocks.append(rows)
            decoded[name] = blocks
        return decoded

    # -------------------------------------------------------------- execution
    def run(self, entry: Optional[str] = None) -> ExecutionResult:
        result = None
        if (self.backend == "translate" and self.fault_hook is None
                and self.trap_handler is None and self._trace is None):
            from repro.hw import translate
            if translate.superscalar_unit(self.sched) is not None:
                result = translate.run_superscalar_translated(self, entry)
        if result is None:
            result = (self._run_fast(entry) if self.fast
                      else self._run_slow(entry))
        if self._stats is not None:
            self._stats.finalize_superscalar(self)
            result.sim_stats = self._stats
        return result

    def _run_slow(self, entry: Optional[str] = None) -> ExecutionResult:
        st = self._stats_hot
        execs = st.block_execs if st is not None else None
        tr = self._trace
        proc = self.sched.proc(entry or self.program.entry)
        block_idx = 0
        deadline = (time.monotonic() + self.wall_clock_limit
                    if self.wall_clock_limit is not None else None)
        while True:
            if self.now > self.max_cycles:
                raise CycleLimitExceeded(f"exceeded {self.max_cycles} cycles")
            if deadline is not None and time.monotonic() > deadline:
                raise WallClockExceeded(
                    f"exceeded {self.wall_clock_limit}s wall clock "
                    f"({self.now:,} cycles simulated)")
            block = proc.blocks[block_idx]
            self._ctl = None
            self._cur = (proc, block_idx)
            if execs is not None:
                k = (proc.name, block_idx)
                execs[k] = execs.get(k, 0) + 1
            t0 = self.now
            for row in block.cycles:
                self._issue_row(row)
            if tr is not None:
                tr.complete(f"{proc.name}:{block.label}", t0, self.now - t0)
            nxt = self._block_end(proc, block_idx)
            if nxt is None:
                self.result.cycle_count = self.now
                return self.result
            proc, block_idx = nxt

    def _run_fast(self, entry: Optional[str] = None) -> ExecutionResult:
        if self._decoded is None:
            self._decoded = self._decode()
        decoded = self._decoded
        proc = self.sched.proc(entry or self.program.entry)
        blocks = decoded[proc.name]
        block_idx = 0
        deadline = (time.monotonic() + self.wall_clock_limit
                    if self.wall_clock_limit is not None else None)
        monotonic = time.monotonic
        max_cycles = self.max_cycles

        regs = self.regs
        ready = self._ready
        ready_get = ready.get
        shadow = self.shadow
        shadow_read = shadow.read
        shadow_write = shadow.write
        storebuf = self.storebuf
        mem = self.mem
        mem_check = mem.check
        result = self.result
        output = result.output
        fault_hook = self.fault_hook
        st = self._stats_hot
        execs = st.block_execs if st is not None else None
        tr = self._trace
        t0 = 0
        now = self.now

        while True:
            if now > max_cycles:
                self.now = now
                raise CycleLimitExceeded(f"exceeded {max_cycles} cycles")
            if deadline is not None and monotonic() > deadline:
                self.now = now
                raise WallClockExceeded(
                    f"exceeded {self.wall_clock_limit}s wall clock "
                    f"({now:,} cycles simulated)")
            self._ctl = None
            self._cur = (proc, block_idx)
            if execs is not None:
                k = (proc.name, block_idx)
                execs[k] = execs.get(k, 0) + 1
            if tr is not None:
                t0 = now
            for entries, watch in blocks[block_idx]:
                # Scoreboard interlock: the whole issue packet waits.
                for idx in watch:
                    r = ready_get(idx, 0)
                    if r > now:
                        now = r
                # Phase 1: all operands read before any result is written.
                values = []
                for entry in entries:
                    boost = entry[2]
                    if boost:
                        vals = []
                        for idx in entry[3]:
                            if idx < 0:
                                vals.append(0)
                            else:
                                hit = shadow_read(idx, boost)
                                vals.append(regs[idx] if hit is None else hit)
                        values.append(tuple(vals))
                    else:
                        values.append(tuple(0 if idx < 0 else regs[idx]
                                            for idx in entry[3]))
                # Phase 2: execute.
                for entry, vals in zip(entries, values):
                    tag = entry[0]
                    if tag == _S_NOP:
                        result.nop_count += 1
                        continue
                    result.instr_count += 1
                    instr = entry[1]
                    boost = entry[2]
                    if boost:
                        self.boosted_executed += 1
                        if st is not None:
                            st.note_boosted(boost)
                    if tag == _S_TERM:
                        self.now = now
                        self._resolve_terminator(instr, vals)
                        continue
                    if tag == _S_PRINT:
                        v = vals[0] & 0xFFFFFFFF
                        output.append(v - 0x100000000 if v >= 0x80000000
                                      else v)
                        continue
                    if fault_hook is not None:
                        injected = fault_hook(instr)
                        if injected is not None:
                            fix = self._trap(injected, instr)
                            if fix is not None:
                                self.now = now
                                self._write(instr, fix)
                            continue
                    if tag == _S_ALU:
                        _, _, _, _, dst, lat, imm, fn = entry
                        try:
                            value = fn(vals[0] if vals else 0,
                                       vals[1] if len(vals) > 1 else 0, imm)
                        except Trap as trap:
                            fix = self._trap(trap, instr)
                            if fix is None:
                                continue
                            value = fix
                        if dst >= 0:
                            if boost:
                                shadow_write(dst, boost, value & 0xFFFFFFFF)
                            else:
                                regs[dst] = value & 0xFFFFFFFF
                            ready[dst] = now + lat
                    elif tag == _S_LOAD:
                        _, _, _, _, dst, lat, off, size, signed = entry
                        addr = (vals[0] + off) & 0xFFFFFFFF
                        try:
                            mem_check(addr, size)
                        except Trap as trap:
                            fix = self._trap(trap, instr)
                            if fix is None:
                                continue
                            value = fix
                        else:
                            if storebuf is not None:
                                raw = storebuf.load(mem, addr, size, boost)
                            else:
                                raw = mem.read_bytes(addr, size)
                            value = int.from_bytes(raw, "little")
                            if signed and value >= 0x80:
                                value -= 0x100
                        if dst >= 0:
                            if boost:
                                shadow_write(dst, boost, value & 0xFFFFFFFF)
                            else:
                                regs[dst] = value & 0xFFFFFFFF
                            ready[dst] = now + lat
                    elif tag == _S_STORE:
                        _, _, _, _, off, size = entry
                        value, base = vals
                        addr = (base + off) & 0xFFFFFFFF
                        try:
                            mem_check(addr, size)
                        except Trap as trap:
                            self._trap(trap, instr)
                            continue
                        if boost:
                            if storebuf is None:
                                raise ScheduleError(
                                    f"{self.model.name}: boosted store but "
                                    f"no shadow store buffer ({instr})")
                            data = (value & 0xFFFFFFFF).to_bytes(
                                4, "little")[:size]
                            storebuf.store(boost, addr, data)
                        elif size == 4:
                            mem.store_word(addr, value)
                        else:
                            mem.store_byte(addr, value)
                now += 1
            if tr is not None:
                tr.complete(
                    f"{proc.name}:{proc.blocks[block_idx].label}",
                    t0, now - t0)
            self.now = now
            nxt = self._block_end(proc, block_idx)
            now = self.now  # recovery may have advanced the clock
            if nxt is None:
                result.cycle_count = now
                return result
            proc, block_idx = nxt
            blocks = decoded[proc.name]

    def _issue_row(self, row: list[Optional[Instruction]]) -> None:
        instrs = [i for i in row if i is not None]
        # Scoreboard interlock: the whole issue packet waits for operands.
        t = self.now
        for instr in instrs:
            for reg in instr.srcs:
                if not reg.is_zero:
                    t = max(t, self._ready.get(reg.index, 0))
        self.now = t
        # Phase 1: all operands read before any result is written.
        values = [tuple(self._read(r, instr.boost) for r in instr.srcs)
                  for instr in instrs]
        # Phase 2: execute.
        for instr, vals in zip(instrs, values):
            self._execute(instr, vals)
        self.now += 1

    def _execute(self, instr: Instruction, vals: tuple[int, ...]) -> None:
        op = instr.op
        result = self.result
        if op is Opcode.NOP:
            result.nop_count += 1
            return
        result.instr_count += 1
        if instr.boost > 0:
            self.boosted_executed += 1
            if self._stats_hot is not None:
                self._stats_hot.note_boosted(instr.boost)
        if (self.fault_hook is not None and op is not Opcode.PRINT
                and not instr.is_terminator):
            injected = self.fault_hook(instr)
            if injected is not None:
                fix = self._trap(injected, instr)
                if fix is not None:
                    self._write(instr, fix)
                return
        if op is Opcode.PRINT:
            result.output.append(s32(vals[0]))
            return
        if op.is_load:
            self._execute_load(instr, vals)
            return
        if op.is_store:
            self._execute_store(instr, vals)
            return
        if instr.is_terminator:
            self._resolve_terminator(instr, vals)
            return
        try:
            value = execute_alu(instr, *vals)
        except Trap as trap:
            fix = self._trap(trap, instr)
            if fix is None:
                return
            value = fix
        self._write(instr, value)

    def _execute_load(self, instr: Instruction, vals: tuple[int, ...]) -> None:
        addr = (vals[0] + (instr.imm or 0)) & 0xFFFFFFFF
        size = 4 if instr.op is Opcode.LW else 1
        try:
            self.mem.check(addr, size)
        except Trap as trap:
            fix = self._trap(trap, instr)
            if fix is not None:
                self._write(instr, fix)
            return
        if self.storebuf is not None:
            raw = self.storebuf.load(self.mem, addr, size, instr.boost)
        else:
            raw = self.mem.read_bytes(addr, size)
        value = int.from_bytes(raw, "little")
        if instr.op is Opcode.LB and value >= 0x80:
            value -= 0x100
        self._write(instr, value)

    def _execute_store(self, instr: Instruction, vals: tuple[int, ...]) -> None:
        value, base = vals
        addr = (base + (instr.imm or 0)) & 0xFFFFFFFF
        size = 4 if instr.op is Opcode.SW else 1
        try:
            self.mem.check(addr, size)
        except Trap as trap:
            self._trap(trap, instr)
            return
        data = (value & 0xFFFFFFFF).to_bytes(4, "little")[:size]
        if instr.boost > 0:
            if self.storebuf is None:
                raise ScheduleError(
                    f"{self.model.name}: boosted store but no shadow store "
                    f"buffer ({instr})")
            self.storebuf.store(instr.boost, addr, data)
            return
        if size == 4:
            self.mem.store_word(addr, value)
        else:
            self.mem.store_byte(addr, value)

    def _resolve_terminator(self, instr: Instruction,
                            vals: tuple[int, ...]) -> None:
        op = instr.op
        if op.is_cond_branch:
            taken = branch_taken(instr, *vals)
            self._ctl = ("cond", instr, taken)
        elif op is Opcode.J:
            self._ctl = ("jump", instr.target)
        elif op is Opcode.JAL:
            proc, block_idx = self._cur
            token = self._next_token
            self._next_token += _TOKEN_STRIDE
            self._tokens[token] = (proc, block_idx + 1)
            self.regs[RA.index] = token
            self._ready[RA.index] = self.now + 1
            self._ctl = ("call", instr.target)
        elif op is Opcode.JR:
            self._ctl = ("return", vals[0])
        elif op is Opcode.HALT:
            self._ctl = ("halt",)
        else:
            raise ScheduleError(f"unhandled terminator {instr}")

    # -------------------------------------------------------------- block end
    def _block_end(self, proc: ScheduledProcedure,
                   block_idx: int) -> Optional[tuple[ScheduledProcedure, int]]:
        ctl = self._ctl
        if ctl is None:
            if block_idx + 1 >= len(proc.blocks):
                return None
            return (proc, block_idx + 1)
        kind = ctl[0]
        if kind == "cond":
            # Conditional branch: commit or squash the speculative state.
            _, instr, taken = ctl
            self.result.branch_count += 1
            st = self._stats_hot
            storebuf = self.storebuf
            if taken == bool(instr.predict_taken):
                pending = self.shiftbuf.shift(instr.uid)
                if pending is not None:
                    resume = self._run_recovery(proc, instr.uid)
                    return (proc, self._block_index[proc.name][resume])
                if st is not None:
                    st.note_branch_commit(
                        self.shadow.outstanding(),
                        storebuf.outstanding() if storebuf is not None
                        else 0)
                regs = self.regs
                for reg, value in self.shadow.commit().items():
                    regs[reg] = value
                if storebuf is not None:
                    storebuf.commit(self.mem)
            else:
                self.result.mispredict_count += 1
                squashed = self.shadow.outstanding()
                if st is not None:
                    st.note_squash(
                        squashed,
                        storebuf.outstanding() if storebuf is not None
                        else 0)
                if self._trace is not None and squashed:
                    self._trace.instant("squash", self.now,
                                        args={"shadow": squashed})
                self.boosted_squashed += squashed
                self.shadow.squash()
                if storebuf is not None:
                    storebuf.squash()
                self.shiftbuf.clear()
            if taken:
                return (proc, self._block_index[proc.name][instr.target])
            if block_idx + 1 >= len(proc.blocks):
                return None
            return (proc, block_idx + 1)
        if kind == "jump":
            return (proc, self._block_index[proc.name][ctl[1]])
        if kind == "call":
            return (self.sched.proc(ctl[1]), 0)
        if kind == "return":
            addr = ctl[1]
            if addr == EXIT_TOKEN:
                return None
            frame = self._tokens.get(addr)
            if frame is None:
                raise Trap(TrapKind.ADDRESS_ERROR, addr=addr)
            return frame
        return None  # halt

    def _run_recovery(self, proc: ScheduledProcedure, branch_uid: int) -> str:
        """Execute the boosted-exception recovery code; returns the label to
        resume at (the predicted target of the committing branch)."""
        recov = proc.recovery.get(branch_uid)
        if recov is None:
            raise ScheduleError(
                f"boosted exception committed at branch {branch_uid} but the "
                "compiler generated no recovery code")
        self.recovery_invocations += 1
        if self._stats_hot is not None:
            self._stats_hot.note_recovery(self.machine.recovery_overhead,
                                          len(recov.instructions))
        if self._trace is not None:
            self._trace.complete(
                "recovery", self.now,
                self.machine.recovery_overhead + len(recov.instructions),
                tid=1, args={"branch_uid": branch_uid})
        # The hardware discards all speculative state before vectoring.
        self.shadow.squash()
        if self.storebuf is not None:
            self.storebuf.squash()
        self.shiftbuf.clear()
        self.now += self.machine.recovery_overhead
        for instr in recov.instructions:
            vals = tuple(self._read(r, instr.boost) for r in instr.srcs)
            self._execute(instr, vals)
            self.now += 1
        return recov.resume_label


def run_scheduled(sched: ScheduledProgram, **kwargs) -> ExecutionResult:
    """Convenience wrapper: run a scheduled program to completion."""
    return SuperscalarSim(sched, **kwargs).run()
