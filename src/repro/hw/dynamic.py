"""The dynamically-scheduled superscalar comparator of Figure 9.

Configuration straight from Section 4.3.2: fetch/decode two instructions per
cycle, 30 reservation-station locations, a 16-entry reorder buffer
implementing speculative out-of-order execution with in-order commit, a
2048-entry 4-way set-associative branch target buffer, the same functional
units as the statically-scheduled machine (two integer ALUs, one shifter,
one branch unit, one multiply/divide unit, one memory port), and up to six
instructions issued to units per cycle.  Register renaming is optional —
Figure 9 reports the machine with and without it; without renaming a
register may have only one write in flight, so anti- and output-dependences
stall dispatch.

The machine consumes the optimized, register-allocated IR directly (the
same input the static schedulers see).  It has no architectural delay
slots — branch effects are handled by speculative fetch plus flush on
misprediction, with stores, PRINTs, and traps deferred to commit so
wrong-path execution can never become architectural.

Memory ordering is conservative by default — a load waits until every
older store address is known — matching the paper-era comparator.  With
``lsq_size > 0`` in-flight memory operations run through a
:class:`~repro.hw.lsq.LoadStoreQueue` instead: store-to-load forwarding
(``stlf``), optional memory-dependence speculation
(``memdep_speculate``), and a memory-order squash through the same
recovery path as a branch misprediction when a speculated load turns out
to alias a later-resolving store (see ``docs/memory-speculation.md``).
``fetch_rate`` widens instruction fetch while the fetch queue refills
after a redirect — the variable-fetch-rate front end of arXiv 1707.04657
in its simplest deterministic form.

Like the functional and superscalar simulators, every static instruction is
decoded once (``_Dec``) into pre-resolved handlers, register indices, and
flat branch targets.  :meth:`DynamicSim.run` is one loop that does commit,
writeback, issue, dispatch and fetch inline on machine state held in local
variables.  The state is kept up to date as instructions move instead of
being rescanned: issue walks only the dispatched-but-unissued entries,
and writeback looks only at the branch or ``jr`` issued the cycle before.
The reorder buffer is walked only by :func:`_squash` and, without an LSQ,
by a ready load looking for its older stores.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.hw.alu import ALU_FUNCS, BRANCH_FUNCS, s32
from repro.hw.btb import BranchTargetBuffer
from repro.hw.exceptions import ExecutionResult, Trap, TrapKind
from repro.hw.functional import EXIT_TOKEN
from repro.hw.lsq import LoadStoreQueue
from repro.hw.memory import Memory
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FU, Opcode
from repro.isa.registers import RA, SP
from repro.program.procedure import Program

_TOKEN_STRIDE = 16
_PC_BASE = 0x0040_0000
_FAR_FUTURE = 1 << 60

# Decode kinds: how the cycle loop treats the op.
(_K_ALU, _K_LOAD, _K_STORE, _K_CBR, _K_JR, _K_JAL, _K_J, _K_HALT,
 _K_NOP, _K_PRINT, _K_OTHER) = range(11)

# Functional-unit slots.
_FU_ALU, _FU_SHIFT, _FU_BRANCH, _FU_MULDIV, _FU_MEM, _FU_NONE = range(6)

_FU_SLOT = {FU.ALU: _FU_ALU, FU.SHIFT: _FU_SHIFT, FU.BRANCH: _FU_BRANCH,
            FU.MULDIV: _FU_MULDIV, FU.MEM: _FU_MEM}


class _Dec:
    """One static instruction, decoded once for the cycle loop."""

    __slots__ = ("instr", "kind", "fu_slot", "is_term", "is_load",
                 "is_store", "is_mem", "nsrc", "src_a", "src_b", "def_idx",
                 "dst_idx", "imm", "latency", "mem_size", "is_lb", "pc",
                 "target_idx", "alu_fn", "cbr_fn")

    def __init__(self, sim: "DynamicSim", idx: int,
                 instr: Instruction) -> None:
        op = instr.op
        self.instr = instr
        if op.is_load:
            self.kind = _K_LOAD
        elif op.is_store:
            self.kind = _K_STORE
        elif op.is_cond_branch:
            self.kind = _K_CBR
        elif op is Opcode.JR:
            self.kind = _K_JR
        elif op is Opcode.JAL:
            self.kind = _K_JAL
        elif op is Opcode.J:
            self.kind = _K_J
        elif op is Opcode.HALT:
            self.kind = _K_HALT
        elif op is Opcode.NOP:
            self.kind = _K_NOP
        elif op is Opcode.PRINT:
            self.kind = _K_PRINT
        elif op in ALU_FUNCS:
            self.kind = _K_ALU
        else:
            self.kind = _K_OTHER
        self.fu_slot = _FU_SLOT.get(op.fu, _FU_NONE)
        self.is_term = instr.is_terminator
        self.is_load = self.kind == _K_LOAD
        self.is_store = self.kind == _K_STORE
        self.is_mem = self.is_load or self.is_store
        # Every format reads at most two registers; -1 reads as zero.
        srcs = [-1 if r.is_zero else r.index for r in instr.srcs]
        self.nsrc = len(srcs)
        self.src_a, self.src_b = (srcs + [-1, -1])[:2]
        defs = instr.defs()
        self.def_idx = defs[0].index if defs else -1
        self.dst_idx = (instr.dst.index
                        if instr.dst is not None and not instr.dst.is_zero
                        else -1)
        self.imm = instr.imm or 0
        self.latency = op.latency
        self.mem_size = 4 if op in (Opcode.LW, Opcode.SW) else 1
        self.is_lb = op is Opcode.LB
        self.pc = _PC_BASE + 4 * idx
        if self.kind in (_K_J, _K_CBR):
            self.target_idx = sim._target_idx(idx, instr.target)
        elif self.kind == _K_JAL:
            self.target_idx = sim.entry_idx[instr.target]
        else:
            self.target_idx = None
        self.alu_fn = ALU_FUNCS.get(op)
        self.cbr_fn = BRANCH_FUNCS.get(op)


@dataclass(slots=True)
class DynamicConfig:
    fetch_width: int = 2
    commit_width: int = 2
    issue_width: int = 6              # dispatch-to-FU per cycle
    rob_entries: int = 16
    reservation_stations: int = 30
    rename: bool = True
    fetch_buffer: int = 8
    btb_entries: int = 2048
    btb_ways: int = 4
    #: fetch bubble after any taken (non-sequential) control transfer —
    #: the single-ported instruction fetch of the era cannot follow a
    #: redirect in the same cycle
    taken_fetch_bubble: int = 1
    #: front-end refill after a misprediction flush
    mispredict_restart: int = 2
    #: load/store queue entries; 0 = no LSQ — the conservative memory
    #: pipeline (a load waits for every older store address)
    lsq_size: int = 0
    #: store-to-load forwarding from the youngest exact-matching older
    #: store (LSQ only; without it a matching load drains the store first)
    stlf: bool = True
    #: let loads execute past unresolved older store addresses; a
    #: later-resolving aliasing store squashes the load and everything
    #: younger (LSQ only)
    memdep_speculate: bool = False
    #: fetch budget while the fetch queue is empty (post-redirect refill);
    #: 0 = always ``fetch_width`` (arXiv 1707.04657's variable fetch rate)
    fetch_rate: int = 0


class _Entry:
    """One dynamic instruction, from fetch to commit or squash.

    Only the fields read before they are known start out set.  Dispatch
    sets the operands ``a``/``b`` and ``pa``/``pb``, the producer of an
    operand still in flight (``None`` once captured).  Fetch sets
    ``predicted_next`` of a branch or jr, and issue sets its
    ``actual_next``, a memory op's ``mem_size``/``store_data``, and an LSQ
    load's ``mem_speculative`` (executed past an unresolved older store
    address) and ``fwd_seq`` (the store it forwarded from; 0 = memory).
    """

    __slots__ = ("seq", "idx", "dec", "a", "b", "pa", "pb", "done",
                 "complete_cycle", "value", "addr", "mem_size", "store_data",
                 "trap", "predicted_next", "actual_next", "flushed",
                 "mem_speculative", "fwd_seq")

    def __init__(self, seq: int, idx: int, dec: _Dec) -> None:
        self.seq = seq
        self.idx = idx                # flat instruction index
        self.dec = dec
        self.done = False             # issued
        self.complete_cycle = _FAR_FUTURE
        self.value: Optional[int] = None
        self.addr: Optional[int] = None   # resolved memory address
        self.trap: Optional[Trap] = None
        self.flushed = False


def _squash(rob: deque, fq: deque, unissued: list, rename: dict,
            lsq: Optional[LoadStoreQueue], keep_seq: int,
            next_token: int) -> int:
    """Flush every entry with ``seq > keep_seq`` and return the token
    counter to carry on from.

    Branch mispredictions and memory-order violations both recover here;
    the caller redirects fetch.  JALs issue in program order on the one
    branch unit, so the oldest flushed one that issued took the lowest
    return-address token.  Handing it out again keeps later calls linking
    the same ``ra`` values as the reference machine.
    """
    while rob and rob[-1].seq > keep_seq:
        e = rob.pop()
        e.flushed = True
        if e.done and e.dec.kind == _K_JAL:
            next_token = min(next_token, e.value)
    fq.clear()
    while unissued and unissued[-1].seq > keep_seq:
        unissued.pop()
    if lsq is not None:
        lsq.drop_flushed()
    rename.clear()
    for e in rob:
        if e.dec.def_idx >= 0:
            rename[e.dec.def_idx] = e
    return next_token


class DynamicSim:
    """Execution-driven speculative Tomasulo + ROB simulator."""

    def __init__(self, program: Program, config: Optional[DynamicConfig] = None,
                 max_cycles: int = 100_000_000,
                 input_image: Optional[list[tuple[int, bytes]]] = None,
                 stats=None) -> None:
        self.program = program
        self.config = config or DynamicConfig()
        self.max_cycles = max_cycles
        #: optional observability sink (repro.obs); a non-collecting sink
        #: (NullStats) is hidden from the cycle loop entirely.
        self._stats = stats
        self._stats_hot = stats if stats is not None and stats.collecting \
            else None

        # Flatten the program: one global instruction array, 4 bytes per pc.
        self.flat: list[Instruction] = []
        self.entry_idx: dict[str, int] = {}
        self.block_idx: dict[tuple[str, str], int] = {}
        for proc in program.procedures.values():
            self.entry_idx[proc.name] = len(self.flat)
            for block in proc.blocks:
                self.block_idx[(proc.name, block.label)] = len(self.flat)
                for instr in block.instructions():
                    self.flat.append(instr)
        # Branch targets are resolved within the owning procedure.
        self._owner: list[str] = []
        for proc in program.procedures.values():
            n = sum(1 for b in proc.blocks for _ in b.instructions())
            self._owner.extend([proc.name] * n)
        self._dec: list[_Dec] = [_Dec(self, i, instr)
                                 for i, instr in enumerate(self.flat)]

        nregs = max(program.max_register_index() + 1, 32)
        self.arch_regs = [0] * nregs
        self.mem = Memory(program.mem_size)
        self.mem.write_image(program.data.initial_image())
        if input_image:
            self.mem.write_image(input_image)
        self.arch_regs[SP.index] = program.mem_size - 64
        self.arch_regs[RA.index] = EXIT_TOKEN

        self.btb = BranchTargetBuffer(self.config.btb_entries,
                                      self.config.btb_ways)
        self.cycle = 0
        self.result = ExecutionResult()
        # Load/store queue (None = conservative legacy memory pipeline).
        cfg = self.config
        self.lsq = (LoadStoreQueue(cfg.lsq_size, cfg.stlf,
                                   cfg.memdep_speculate)
                    if cfg.lsq_size > 0 else None)
        self.memdep_squashes = 0
        self.memdep_stall_cycles = 0

    def _target_idx(self, idx: int, label: str) -> int:
        return self.block_idx[(self._owner[idx], label)]

    # -------------------------------------------------------------------- run
    def run(self) -> ExecutionResult:
        cfg = self.config
        fetch_width = cfg.fetch_width
        fetch_rate = cfg.fetch_rate
        fetch_buffer = cfg.fetch_buffer
        commit_width = cfg.commit_width
        issue_width = cfg.issue_width
        rob_entries = cfg.rob_entries
        stations = cfg.reservation_stations
        no_rename = not cfg.rename
        redirect_delay = 1 + cfg.taken_fetch_bubble
        restart_delay = cfg.mispredict_restart
        max_cycles = self.max_cycles
        decs = self._dec
        ninstrs = len(decs)
        arch_regs = self.arch_regs
        mem = self.mem
        mem_check = mem.check
        btb = self.btb
        lsq = self.lsq
        speculate = lsq is not None and lsq.speculate
        st = self._stats_hot
        result = self.result
        output = result.output

        # Machine state.  ``unissued`` holds the dispatched entries still
        # waiting for operands or a unit, in program order (its length is
        # the reservation-station count); ``resolving`` is the branch or jr
        # issued last cycle — both have latency 1 and there is one branch
        # unit, so it is the only entry writeback can act on.
        rob: deque = deque()
        fq: deque = deque()
        unissued: list = []
        rename: dict = {}
        tokens: dict = {}
        next_token = EXIT_TOKEN + _TOKEN_STRIDE
        seq = 0
        fetch_idx: Optional[int] = self.entry_idx[self.program.entry]
        fetch_stalled_on = None       # jr that missed in the BTB
        fetch_resume = 0
        muldiv_free = 0               # the multiply/divide unit is unpipelined
        mem_free = 0
        resolving = None
        cycle = self.cycle
        halted = False
        instr_count = nop_count = branch_count = mispredict_count = 0
        memdep_squashes = memdep_stall_cycles = 0
        try:
            while True:
                cycle += 1
                if cycle > max_cycles:
                    raise RuntimeError(f"exceeded {max_cycles} cycles")
                if lsq is not None:
                    lsq.occupancy_sum += len(lsq.entries)
                if st is not None:
                    st.note_dynamic_cycle(len(rob), len(fq),
                                          cycle < fetch_resume)

                # ---- commit: retire completed entries in program order
                n = commit_width
                while n and rob:
                    e = rob[0]
                    if e.complete_cycle >= cycle:
                        break
                    dec = e.dec
                    if e.trap is not None:
                        e.trap.instr_uid = dec.instr.uid
                        result.trap = e.trap
                        result.cycle_count = cycle
                        raise e.trap
                    kind = dec.kind
                    if kind == _K_HALT or (kind == _K_JR
                                           and e.actual_next == -2):
                        halted = True
                        break
                    if kind == _K_JR and e.actual_next == -1:
                        result.trap = Trap(TrapKind.ADDRESS_ERROR, addr=e.a)
                        raise result.trap
                    rob.popleft()
                    if lsq is not None and dec.is_mem:
                        lsq.retire(e)
                    if kind == _K_PRINT:
                        output.append(s32(e.value))
                    elif kind == _K_STORE:
                        if e.mem_size == 4:
                            mem.store_word(e.addr, e.store_data)
                        else:
                            mem.store_byte(e.addr, e.store_data)
                    elif e.value is not None and dec.dst_idx >= 0:
                        arch_regs[dec.dst_idx] = e.value
                    if dec.def_idx >= 0 and rename.get(dec.def_idx) is e:
                        del rename[dec.def_idx]
                    if kind != _K_NOP:
                        instr_count += 1
                    else:
                        nop_count += 1
                    n -= 1
                if halted:
                    break

                # ---- writeback: verify control flow resolved last cycle
                if resolving is not None:
                    e = resolving
                    resolving = None
                    if not e.flushed:
                        dec = e.dec
                        nxt = e.actual_next
                        if dec.kind == _K_CBR:
                            branch_count += 1
                            btb.update(dec.pc, bool(e.value), dec.target_idx)
                            wrong = e.predicted_next != nxt
                        else:  # jr; the program exit is handled at commit
                            btb.update(dec.pc, True, nxt if nxt >= 0 else 0)
                            if fetch_stalled_on is e:
                                fetch_stalled_on = None
                                fetch_idx = nxt if nxt >= 0 else None
                                fetch_resume = cycle + redirect_delay
                                wrong = False
                            else:
                                wrong = e.predicted_next != nxt
                        if wrong:
                            mispredict_count += 1
                            if st is not None:
                                st.flushes += 1
                            next_token = _squash(rob, fq, unissued, rename,
                                                 lsq, e.seq, next_token)
                            fetch_stalled_on = None
                            fetch_idx = nxt if nxt >= 0 else None
                            fetch_resume = cycle + restart_delay

                # ---- issue: oldest ready entries to free units
                if unissued:
                    n = 0
                    alu_used = shift_used = branch_used = 0
                    memdep_wait = False
                    victim = None
                    for e in unissued:
                        if n >= issue_width:
                            break
                        pa = e.pa
                        if pa is not None and pa.complete_cycle > cycle:
                            continue
                        pb = e.pb
                        if pb is not None and pb.complete_cycle > cycle:
                            continue
                        dec = e.dec
                        slot = dec.fu_slot
                        if slot == _FU_ALU:
                            if alu_used >= 2:
                                continue
                        elif slot == _FU_SHIFT:
                            if shift_used:
                                continue
                        elif slot == _FU_BRANCH:
                            if branch_used:
                                continue
                        elif slot == _FU_MULDIV:
                            if muldiv_free > cycle:
                                continue
                        elif slot == _FU_MEM:
                            if mem_free > cycle:
                                continue
                        # Capture in-flight operands and drop the producer
                        # links, so a dependence chain cannot keep every
                        # committed entry behind it alive.
                        if pa is None:
                            a = e.a
                        else:
                            a = e.a = pa.value
                            e.pa = None
                        if pb is None:
                            b = e.b
                        else:
                            b = e.b = pb.value
                            e.pb = None
                        kind = dec.kind
                        if kind == _K_ALU:
                            try:
                                e.value = dec.alu_fn(a, b, dec.imm)
                            except Trap as trap:
                                trap.instr_uid = dec.instr.uid
                                e.trap = trap
                            e.complete_cycle = cycle + dec.latency
                            if slot == _FU_MULDIV:
                                muldiv_free = cycle + dec.latency
                            elif slot == _FU_SHIFT:
                                shift_used += 1
                            else:
                                alu_used += 1
                        elif kind == _K_LOAD:
                            addr = e.addr = (a + dec.imm) & 0xFFFFFFFF
                            size = e.mem_size = dec.mem_size
                            if lsq is not None:
                                probe = lsq.probe_load(e)
                                if probe.wait:
                                    memdep_wait = True
                                    continue
                                fwd = -1 if probe.value is None \
                                    else probe.value
                                e.mem_speculative = probe.speculative
                                e.fwd_seq = probe.fwd_seq
                            else:
                                # Wait for every older store address; an
                                # exact match forwards the youngest's data,
                                # a partial overlap waits for its commit.
                                fwd = -1
                                for o in rob:
                                    if o.seq >= e.seq:
                                        break
                                    if not o.dec.is_store:
                                        continue
                                    o_lo = o.addr
                                    if o_lo is None:
                                        fwd = None
                                        break
                                    o_size = o.mem_size
                                    if o_lo + o_size <= addr \
                                            or addr + size <= o_lo:
                                        continue
                                    if o_lo != addr or o_size != size:
                                        fwd = None
                                        break
                                    fwd = -1 if o.store_data is None \
                                        else o.store_data
                                if fwd is None:
                                    continue
                            try:
                                mem_check(addr, size)
                            except Trap as trap:
                                e.trap = trap
                            else:
                                if fwd != -1:
                                    value = fwd & (0xFFFFFFFF if size == 4
                                                   else 0xFF)
                                else:
                                    value = int.from_bytes(
                                        mem.read_bytes(addr, size), "little")
                                if dec.is_lb and value >= 0x80:
                                    value -= 0x100
                                e.value = value & 0xFFFFFFFF
                            e.complete_cycle = cycle + dec.latency
                            mem_free = cycle + 1
                        elif kind == _K_STORE:
                            addr = e.addr = (b + dec.imm) & 0xFFFFFFFF
                            size = e.mem_size = dec.mem_size
                            e.store_data = a
                            try:
                                mem_check(addr, size)
                            except Trap as trap:
                                e.trap = trap
                            e.complete_cycle = cycle + 1
                            mem_free = cycle + 1
                            if speculate:
                                # The address just resolved: did a younger
                                # load already execute past it on a bad bet?
                                victim = lsq.aliasing_victim(e)
                        elif kind == _K_CBR:
                            taken = dec.cbr_fn(a, b)
                            e.actual_next = (dec.target_idx if taken
                                             else e.idx + 1)
                            e.value = int(taken)
                            e.complete_cycle = cycle + 1
                            branch_used += 1
                            resolving = e
                        elif kind == _K_JAL:
                            tokens[next_token] = e.idx + 1
                            e.value = next_token
                            next_token += _TOKEN_STRIDE
                            e.complete_cycle = cycle + 1
                            branch_used += 1
                        elif kind == _K_JR:
                            if a == EXIT_TOKEN:
                                e.actual_next = -2
                            else:
                                e.actual_next = tokens.get(a, -1)
                                resolving = e
                            e.complete_cycle = cycle + 1
                            branch_used += 1
                        elif kind != _K_OTHER:
                            # J resolves at fetch; HALT/PRINT act at commit.
                            if dec.nsrc:
                                e.value = a
                            e.complete_cycle = cycle + 1
                            if slot == _FU_BRANCH:
                                branch_used += 1
                            elif slot == _FU_ALU:
                                alu_used += 1
                        else:
                            raise ValueError(
                                f"execute_alu cannot evaluate {dec.instr}")
                        e.done = True
                        n += 1
                        if victim is not None:
                            # Squash from the load and stop issuing: the
                            # tail of ``unissued`` has just been flushed.
                            memdep_squashes += 1
                            if st is not None:
                                st.flushes += 1
                            next_token = _squash(rob, fq, unissued, rename,
                                                 lsq, victim.seq - 1,
                                                 next_token)
                            fetch_stalled_on = None
                            fetch_idx = victim.idx
                            fetch_resume = cycle + restart_delay
                            break
                    if memdep_wait:
                        memdep_stall_cycles += 1
                    if n:
                        unissued = [e for e in unissued if not e.done]

                # ---- dispatch: rename into the ROB, in program order
                n = fetch_width
                while n and fq:
                    if len(rob) >= rob_entries or len(unissued) >= stations:
                        break
                    e = fq[0]
                    dec = e.dec
                    if (lsq is not None and dec.is_mem
                            and len(lsq.entries) >= lsq.size):
                        break  # no free LSQ slot: memory ops stall dispatch
                    di = dec.def_idx
                    if no_rename and di >= 0:
                        # Without renaming: one outstanding write per
                        # register.
                        p = rename.get(di)
                        if p is not None and not p.done:
                            if st is not None:
                                st.rename_stall_events += 1
                            break
                    fq.popleft()
                    r = dec.src_a
                    e.pa = None
                    if r < 0:
                        e.a = 0
                    else:
                        p = rename.get(r)
                        if p is None:
                            e.a = arch_regs[r]
                        elif p.done:
                            e.a = arch_regs[r] if p.value is None else p.value
                        else:
                            e.pa = p
                    r = dec.src_b
                    e.pb = None
                    if r < 0:
                        e.b = 0
                    else:
                        p = rename.get(r)
                        if p is None:
                            e.b = arch_regs[r]
                        elif p.done:
                            e.b = arch_regs[r] if p.value is None else p.value
                        else:
                            e.pb = p
                    if di >= 0:
                        rename[di] = e
                    rob.append(e)
                    unissued.append(e)
                    if lsq is not None and dec.is_mem:
                        lsq.allocate(e)
                    n -= 1

                # ---- fetch: follow the predicted path
                if (cycle >= fetch_resume and fetch_idx is not None
                        and fetch_stalled_on is None):
                    # Variable fetch rate: widen fetch while the queue
                    # refills after a redirect (or at start-up).
                    n = (fetch_rate if fetch_rate > fetch_width and not fq
                         else fetch_width)
                    while n and len(fq) < fetch_buffer:
                        idx = fetch_idx
                        if idx >= ninstrs:
                            fetch_idx = None
                            break
                        seq += 1
                        dec = decs[idx]
                        e = _Entry(seq, idx, dec)
                        fq.append(e)
                        n -= 1
                        if not dec.is_term:
                            fetch_idx = idx + 1
                            continue
                        kind = dec.kind
                        if kind == _K_CBR:
                            hit = btb.lookup(dec.pc)
                            nxt = e.predicted_next = (
                                dec.target_idx if hit is not None and hit[0]
                                else idx + 1)  # fall through on a miss
                        elif kind == _K_J or kind == _K_JAL:
                            nxt = dec.target_idx
                        elif kind == _K_JR:
                            hit = btb.lookup(dec.pc)
                            if hit is None:
                                e.predicted_next = None
                                fetch_stalled_on = e
                                fetch_idx = None
                                break
                            nxt = e.predicted_next = hit[1]
                        elif kind == _K_HALT:
                            fetch_idx = None
                            break
                        else:
                            raise ValueError(
                                f"unhandled terminator {dec.instr}")
                        fetch_idx = nxt
                        if nxt != idx + 1:
                            # Redirected fetch: pay the taken-branch bubble.
                            fetch_resume = cycle + redirect_delay
                            break

                if (not rob and not fq and fetch_idx is None
                        and fetch_stalled_on is None):
                    break
            result.cycle_count = cycle
        finally:
            # Every exit — halt, drain, trap, cycle limit — leaves the
            # observable state on the simulator.
            self.cycle = cycle
            result.instr_count += instr_count
            result.nop_count += nop_count
            result.branch_count += branch_count
            result.mispredict_count += mispredict_count
            self.memdep_squashes += memdep_squashes
            self.memdep_stall_cycles += memdep_stall_cycles
        if self._stats is not None:
            self._stats.finalize_dynamic(self)
            result.sim_stats = self._stats
        return result


def run_dynamic(program: Program, rename: bool = True,
                **kwargs) -> ExecutionResult:
    config = DynamicConfig(rename=rename)
    return DynamicSim(program, config=config, **kwargs).run()
