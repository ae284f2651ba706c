"""Functional instruction-set simulator — the reference semantics.

This machine executes the IR directly (no schedule, no timing).  Every other
machine model in :mod:`repro.hw` must produce exactly the same observable
behaviour (PRINT stream, final trap if any); the test suite enforces this
invariant on every workload.

The simulator also doubles as the *profiler*: with ``profile=True`` it counts
per-branch taken/not-taken outcomes and per-block execution counts, which the
compiler turns into static predictions and trace probabilities.

Two interpreter loops implement the same semantics:

* the **fast path** (default) pre-decodes every instruction once into a flat
  dispatch tuple — opcode handler, register *indices*, immediate — hoists the
  hot state into locals, and accounts fuel at *block* granularity; when the
  remaining fuel could run out inside a block it hands the machine state to
  the reference loop, so :class:`FuelExhausted` still fires on exactly the
  same instruction;
* the **reference path** (``fast=False``) interprets :class:`Instruction`
  objects directly, one attribute lookup at a time.  It is the readable
  specification; ``tests/hw/test_fastpath.py`` pins the fast path to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.hw.alu import ALU_FUNCS, BRANCH_FUNCS, branch_taken, execute_alu, s32
from repro.hw.backend import resolve_backend
from repro.hw.errors import FuelExhausted, WallClockExceeded
from repro.hw.exceptions import ExecutionResult, Trap, TrapKind
from repro.hw.memory import Memory
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import RA, SP, Reg
from repro.program.procedure import Program

__all__ = [
    "BranchProfile", "EXIT_TOKEN", "FuelExhausted", "FunctionalSim",
    "profile_program", "run_functional",
]

EXIT_TOKEN = 0x4000_0000
_TOKEN_STRIDE = 16

# Dispatch tags for the pre-decoded fast path (body instructions).
_T_ALU, _T_LW, _T_LB, _T_LBU, _T_SW, _T_SB, _T_PRINT, _T_NOP = range(8)
# Terminator kinds.
_K_COND, _K_JUMP, _K_CALL, _K_RET, _K_HALT = range(5)

_RA_INDEX = RA.index


def _ridx(reg: Optional[Reg]) -> int:
    """Register index for reads; -1 encodes the hard-wired zero register."""
    return -1 if reg is None or reg.is_zero else reg.index


@dataclass
class BranchProfile:
    """Dynamic branch statistics collected by a profiling run."""

    taken: dict[int, int] = field(default_factory=dict)
    not_taken: dict[int, int] = field(default_factory=dict)
    block_counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def record(self, uid: int, taken: bool) -> None:
        book = self.taken if taken else self.not_taken
        book[uid] = book.get(uid, 0) + 1

    def taken_prob(self, uid: int) -> Optional[float]:
        t = self.taken.get(uid, 0)
        n = self.not_taken.get(uid, 0)
        if t + n == 0:
            return None
        return t / (t + n)


class FunctionalSim:
    """Reference interpreter over the IR."""

    def __init__(
        self,
        program: Program,
        max_steps: int = 50_000_000,
        profile: bool = False,
        trap_handler: Optional[Callable[[Trap], Optional[int]]] = None,
        input_image: Optional[list[tuple[int, bytes]]] = None,
        fault_hook: Optional[Callable[[Instruction], Optional[Trap]]] = None,
        wall_clock_limit: Optional[float] = None,
        fast: Optional[bool] = None,
        stats=None,
        backend: Optional[str] = None,
    ) -> None:
        self.program = program
        self.max_steps = max_steps
        self.profile = BranchProfile() if profile else None
        self.trap_handler = trap_handler
        self.fault_hook = fault_hook
        self.wall_clock_limit = wall_clock_limit
        self.backend = resolve_backend(backend, fast)
        self.fast = self.backend != "reference"

        nregs = max(program.max_register_index() + 1, 32)
        self.regs = [0] * nregs
        self.mem = Memory(program.mem_size)
        self.mem.write_image(program.data.initial_image())
        if input_image:
            self.mem.write_image(input_image)
        self.regs[SP.index] = program.mem_size - 64
        self.regs[RA.index] = EXIT_TOKEN

        #: return-address token -> (procedure name, resume block index)
        self._tokens: dict[int, tuple[str, int]] = {}
        self._next_token = EXIT_TOKEN + _TOKEN_STRIDE
        self.result = ExecutionResult()
        self._block_index: dict[str, dict[str, int]] = {
            name: {b.label: i for i, b in enumerate(p.blocks)}
            for name, p in program.procedures.items()
        }
        self._decoded: Optional[dict[str, list[tuple]]] = None
        #: optional observability sink (repro.obs); None costs one test per
        #: executed basic block.  A non-collecting sink (NullStats) is
        #: hidden from the interpreter loops entirely.
        self._stats = stats
        self._stats_hot = stats if stats is not None and stats.collecting \
            else None

    # --------------------------------------------------------------- plumbing
    def _read(self, reg: Reg) -> int:
        return 0 if reg.is_zero else self.regs[reg.index]

    def _write(self, reg: Reg, value: int) -> None:
        if not reg.is_zero:
            self.regs[reg.index] = value & 0xFFFFFFFF

    def _handle_trap(self, trap: Trap, instr: Instruction) -> bool:
        """Returns True if the handler resumed execution with a value."""
        # Architectural identity: duplicated instructions (unrolled copies,
        # compensation code) report their origin, matching the timing sims.
        trap.instr_uid = instr.origin or instr.uid
        if self.trap_handler is not None:
            fix = self.trap_handler(trap)
            if fix is not None:
                if instr.dst is not None:
                    self._write(instr.dst, fix)
                return True
        self.result.trap = trap
        raise trap

    # ----------------------------------------------------------------- decode
    def _decode_body(self, instr: Instruction) -> tuple:
        op = instr.op
        if op is Opcode.NOP:
            return (_T_NOP, instr)
        if op is Opcode.PRINT:
            return (_T_PRINT, _ridx(instr.srcs[0]), instr)
        if op.is_load:
            tag = (_T_LW if op is Opcode.LW
                   else _T_LB if op is Opcode.LB else _T_LBU)
            return (tag, _ridx(instr.dst), _ridx(instr.srcs[0]),
                    instr.imm or 0, instr)
        if op.is_store:
            tag = _T_SW if op is Opcode.SW else _T_SB
            return (tag, _ridx(instr.srcs[0]), _ridx(instr.srcs[1]),
                    instr.imm or 0, instr)
        fn = ALU_FUNCS.get(op)
        if fn is None:
            raise ValueError(f"cannot decode {instr}")
        aidx = _ridx(instr.srcs[0]) if instr.srcs else -1
        bidx = _ridx(instr.srcs[1]) if len(instr.srcs) > 1 else -1
        return (_T_ALU, fn, _ridx(instr.dst), aidx, bidx, instr.imm or 0,
                instr)

    def _decode_term(self, term: Instruction, index: dict[str, int]) -> tuple:
        op = term.op
        if op is Opcode.HALT:
            return (_K_HALT,)
        if op.is_cond_branch:
            srcs = term.srcs
            aidx = _ridx(srcs[0])
            bidx = _ridx(srcs[1]) if len(srcs) > 1 else -1
            return (_K_COND, BRANCH_FUNCS[op], aidx, bidx, term.predict_taken,
                    term.uid, index[term.target])
        if op is Opcode.J:
            return (_K_JUMP, index[term.target])
        if op is Opcode.JAL:
            return (_K_CALL, term.target)
        if op is Opcode.JR:
            return (_K_RET, _ridx(term.srcs[0]), term)
        if op is Opcode.JALR:
            raise NotImplementedError("indirect calls use jal in this IR")
        raise ValueError(f"unhandled terminator {term}")

    def _decode(self) -> dict[str, list[tuple]]:
        """Flatten every block into ``(entries, terminator, fuel cost,
        profile key)`` with register indices resolved and handlers bound."""
        decoded: dict[str, list[tuple]] = {}
        for pname, proc in self.program.procedures.items():
            index = self._block_index[pname]
            blocks = []
            for block in proc.blocks:
                entries = tuple(self._decode_body(i) for i in block.body)
                term = block.terminator
                dterm = None if term is None else self._decode_term(term, index)
                cost = len(block.body) + (0 if term is None else 1)
                blocks.append((entries, dterm, cost, (pname, block.label)))
            decoded[pname] = blocks
        return decoded

    # -------------------------------------------------------------- execution
    def run(self, entry: Optional[str] = None) -> ExecutionResult:
        name = entry or self.program.entry
        deadline = (time.monotonic() + self.wall_clock_limit
                    if self.wall_clock_limit is not None else None)
        result = None
        if (self.backend == "translate" and self.profile is None
                and self.fault_hook is None and self.trap_handler is None):
            # profiling, fault hooks and trap handlers need
            # per-instruction visibility the generated blocks do not
            # expose — those runs fall back to the pre-decoded
            # interpreter, which is observably identical.
            from repro.hw import translate
            if translate.functional_unit(self.program,
                                          len(self.regs)) is not None:
                result = translate.run_functional_translated(
                    self, name, self.max_steps, deadline)
        if result is None:
            if self.fast:
                result = self._run_fast(name, self.max_steps, deadline)
            else:
                result = self._interp(name, 0, self.max_steps, deadline)
        if self._stats is not None:
            shapes = {}
            for pname, proc in self.program.procedures.items():
                for block in proc.blocks:
                    n = len(block.body) \
                        + (0 if block.terminator is None else 1)
                    shapes[(pname, block.label)] = (n, n, 1)
            self._stats.finalize_functional(self, shapes)
            result.sim_stats = self._stats
        return result

    def _run_fast(self, entry_name: str, fuel: int,
                  deadline: Optional[float]) -> ExecutionResult:
        if self._decoded is None:
            self._decoded = self._decode()
        decoded = self._decoded
        regs = self.regs
        mem = self.mem
        result = self.result
        output = result.output
        profile = self.profile
        fault_hook = self.fault_hook
        load_word = mem.load_word
        load_byte = mem.load_byte
        store_word = mem.store_word
        store_byte = mem.store_byte
        monotonic = time.monotonic
        tokens = self._tokens
        st = self._stats_hot
        execs = st.block_execs if st is not None else None

        proc_name = entry_name
        blocks = decoded[proc_name]
        nblocks = len(blocks)
        block_idx = 0
        ic = 0  # instructions retired since the last flush to result

        while True:
            if deadline is not None and monotonic() > deadline:
                result.instr_count += ic
                raise WallClockExceeded(
                    f"exceeded {self.wall_clock_limit}s wall clock "
                    f"({result.instr_count:,} instructions executed)")
            entries, term, cost, pkey = blocks[block_idx]
            if fuel < cost:
                # Not provably enough fuel for this block: hand the machine
                # state to the reference loop, which checks per instruction
                # and exhausts on exactly the right one.
                result.instr_count += ic
                return self._interp(proc_name, block_idx, fuel, deadline)
            fuel -= cost
            if profile is not None:
                bc = profile.block_counts
                bc[pkey] = bc.get(pkey, 0) + 1
            if execs is not None:
                execs[pkey] = execs.get(pkey, 0) + 1

            for entry in entries:
                tag = entry[0]
                if tag == _T_NOP:
                    result.nop_count += 1
                    continue
                ic += 1
                try:
                    if tag == _T_ALU:
                        _, fn, d, ai, bi, imm, instr = entry
                        if fault_hook is not None:
                            injected = fault_hook(instr)
                            if injected is not None:
                                raise injected
                        v = fn(regs[ai] if ai >= 0 else 0,
                               regs[bi] if bi >= 0 else 0, imm)
                        if d >= 0:
                            regs[d] = v
                    elif tag == _T_LW or tag == _T_LB or tag == _T_LBU:
                        _, d, base, off, instr = entry
                        if fault_hook is not None:
                            injected = fault_hook(instr)
                            if injected is not None:
                                raise injected
                        addr = ((regs[base] if base >= 0 else 0) + off) \
                            & 0xFFFFFFFF
                        if tag == _T_LW:
                            v = load_word(addr)
                        else:
                            v = load_byte(addr, signed=(tag == _T_LB))
                        if d >= 0:
                            regs[d] = v & 0xFFFFFFFF
                    elif tag == _T_SW or tag == _T_SB:
                        _, vi, base, off, instr = entry
                        if fault_hook is not None:
                            injected = fault_hook(instr)
                            if injected is not None:
                                raise injected
                        addr = ((regs[base] if base >= 0 else 0) + off) \
                            & 0xFFFFFFFF
                        value = regs[vi] if vi >= 0 else 0
                        if tag == _T_SW:
                            store_word(addr, value)
                        else:
                            store_byte(addr, value)
                    else:  # _T_PRINT
                        _, ai, instr = entry
                        v = regs[ai] if ai >= 0 else 0
                        output.append(v - 0x100000000 if v >= 0x80000000
                                      else v)
                except Trap as trap:
                    result.instr_count += ic
                    ic = 0
                    self._handle_trap(trap, entry[-1])

            if term is None:
                block_idx += 1
                if block_idx >= nblocks:
                    result.instr_count += ic
                    return result
                continue

            ic += 1
            kind = term[0]
            if kind == _K_COND:
                _, fn, ai, bi, predict, uid, tidx = term
                taken = fn(regs[ai] if ai >= 0 else 0,
                           regs[bi] if bi >= 0 else 0)
                result.branch_count += 1
                if predict is not None and taken != predict:
                    result.mispredict_count += 1
                if profile is not None:
                    profile.record(uid, taken)
                block_idx = tidx if taken else block_idx + 1
                continue
            if kind == _K_JUMP:
                block_idx = term[1]
                continue
            if kind == _K_CALL:
                token = self._next_token
                self._next_token += _TOKEN_STRIDE
                tokens[token] = (proc_name, block_idx + 1)
                regs[_RA_INDEX] = token
                proc_name = term[1]
                blocks = decoded[proc_name]
                nblocks = len(blocks)
                block_idx = 0
                continue
            if kind == _K_RET:
                ai = term[1]
                addr = regs[ai] if ai >= 0 else 0
                if addr == EXIT_TOKEN:
                    result.instr_count += ic
                    return result
                frame = tokens.get(addr)
                if frame is None:
                    result.instr_count += ic
                    ic = 0
                    trap = Trap(TrapKind.ADDRESS_ERROR, addr=addr,
                                instr_uid=term[2].uid)
                    self._handle_trap(trap, term[2])
                    return result
                proc_name, block_idx = frame
                blocks = decoded[proc_name]
                nblocks = len(blocks)
                continue
            # _K_HALT
            result.instr_count += ic
            return result

    def _interp(self, proc_name: str, block_idx: int, fuel: int,
                deadline: Optional[float]) -> ExecutionResult:
        """The reference interpreter loop, resumable at any block."""
        proc = self.program.proc(proc_name)
        result = self.result
        profile = self.profile

        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise WallClockExceeded(
                    f"exceeded {self.wall_clock_limit}s wall clock "
                    f"({result.instr_count:,} instructions executed)")
            block = proc.blocks[block_idx]
            if profile is not None:
                key = (proc.name, block.label)
                profile.block_counts[key] = profile.block_counts.get(key, 0) + 1
            if self._stats_hot is not None:
                execs = self._stats_hot.block_execs
                key = (proc.name, block.label)
                execs[key] = execs.get(key, 0) + 1

            for instr in block.body:
                fuel -= 1
                if fuel < 0:
                    raise FuelExhausted(f"exceeded {self.max_steps} steps")
                result.instr_count += 1
                try:
                    self._execute_straightline(instr)
                except Trap as trap:
                    self._handle_trap(trap, instr)

            term = block.terminator
            if term is None:
                block_idx += 1
                if block_idx >= len(proc.blocks):
                    return result
                continue

            fuel -= 1
            if fuel < 0:
                raise FuelExhausted(f"exceeded {self.max_steps} steps")
            result.instr_count += 1
            op = term.op
            if op is Opcode.HALT:
                return result
            if op.is_cond_branch:
                srcs = term.srcs
                a = self._read(srcs[0])
                b = self._read(srcs[1]) if len(srcs) > 1 else 0
                taken = branch_taken(term, a, b)
                result.branch_count += 1
                if term.predict_taken is not None and taken != term.predict_taken:
                    result.mispredict_count += 1
                if profile is not None:
                    profile.record(term.uid, taken)
                if taken:
                    block_idx = self._block_index[proc.name][term.target]
                else:
                    block_idx += 1
                continue
            if op is Opcode.J:
                block_idx = self._block_index[proc.name][term.target]
                continue
            if op is Opcode.JAL:
                token = self._next_token
                self._next_token += _TOKEN_STRIDE
                self._tokens[token] = (proc.name, block_idx + 1)
                self._write(RA, token)
                proc = self.program.proc(term.target)
                block_idx = 0
                continue
            if op is Opcode.JR:
                addr = self._read(term.srcs[0])
                if addr == EXIT_TOKEN:
                    return result
                frame = self._tokens.get(addr)
                if frame is None:
                    trap = Trap(TrapKind.ADDRESS_ERROR, addr=addr,
                                instr_uid=term.uid)
                    self._handle_trap(trap, term)
                    return result
                proc = self.program.proc(frame[0])
                block_idx = frame[1]
                continue
            if op is Opcode.JALR:
                raise NotImplementedError("indirect calls use jal in this IR")
            raise ValueError(f"unhandled terminator {term}")

    def _execute_straightline(self, instr: Instruction) -> None:
        op = instr.op
        if op is Opcode.NOP:
            self.result.nop_count += 1
            self.result.instr_count -= 1
            return
        if self.fault_hook is not None and op is not Opcode.PRINT:
            injected = self.fault_hook(instr)
            if injected is not None:
                raise injected
        if op is Opcode.PRINT:
            self.result.output.append(s32(self._read(instr.srcs[0])))
            return
        if op.is_load:
            addr = (self._read(instr.srcs[0]) + (instr.imm or 0)) & 0xFFFFFFFF
            if op is Opcode.LW:
                value = self.mem.load_word(addr)
            elif op is Opcode.LB:
                value = self.mem.load_byte(addr, signed=True)
            else:
                value = self.mem.load_byte(addr, signed=False)
            self._write(instr.dst, value)
            return
        if op.is_store:
            value = self._read(instr.srcs[0])
            addr = (self._read(instr.srcs[1]) + (instr.imm or 0)) & 0xFFFFFFFF
            if op is Opcode.SW:
                self.mem.store_word(addr, value)
            else:
                self.mem.store_byte(addr, value)
            return
        a = self._read(instr.srcs[0]) if instr.srcs else 0
        b = self._read(instr.srcs[1]) if len(instr.srcs) > 1 else 0
        self._write(instr.dst, execute_alu(instr, a, b))


def run_functional(program: Program, **kwargs) -> ExecutionResult:
    """Convenience wrapper: run ``program`` from its entry to completion."""
    return FunctionalSim(program, **kwargs).run()


def profile_program(program: Program, max_steps: int = 50_000_000,
                    input_image=None) -> BranchProfile:
    """Run a profiling pass and return the branch statistics."""
    sim = FunctionalSim(program, max_steps=max_steps, profile=True,
                        input_image=input_image)
    sim.run()
    return sim.profile
