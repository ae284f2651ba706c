"""Translating simulator backend: basic blocks compiled to Python superblocks.

The interpreters in :mod:`repro.hw.functional` and
:mod:`repro.hw.superscalar` dispatch one pre-decoded tuple per dynamic
instruction.  This module removes that dispatch entirely, the way classic
binary-translation simulators (Shade, Embra) do: every decoded basic block
is compiled **once** into generated Python source — opcode semantics inlined
as expressions via the templates in :mod:`repro.hw.alu`, register reads
hoisted into locals, memory accessed through an aligned ``uint32`` view of
the backing ``bytearray`` — and hot successor blocks are chained into
*superblocks* along the statically predicted branch direction, so a loop
whose backedge follows its prediction runs entirely inside one generated
function.  Fuel, NOP and branch counters are charged once per superblock
iteration as static constants; off-trace exits re-add the unexecuted tail,
and trap sites carry literal correction tables back to the exact
per-instruction accounting of the interpreters.

On top of the functional path sits dynamic **trace-reuse memoization**
(after "Decanting the Contribution of Instruction Types and Loop Structures
in the Reuse of Traces", see PAPERS.md): a looping superblock that turns hot
records its architectural read/write set — input registers, every loaded
``(addr, size, value)``, every stored ``(addr, size, value)``, counter
deltas and its exit — and later invocations whose input-register slice and
memory read-set match replay the recorded effects instead of re-executing.
Reuse is *never* legal when the recorded run trapped, handed fuel off, or
printed; stale memory is detected by validating every recorded load against
live memory and invalidating on mismatch.

Exactness contract: every observable — PRINT stream, ``instr_count``,
``nop_count``, ``branch_count``, ``mispredict_count``, trap identity
(kind/addr/uid), fuel exhaustion and per-block stats counters — is
byte-identical to the interpreters.  ``tests/hw/test_translate.py`` pins
this on every workload; the backend hands off to the reference loop at any
block boundary where fuel could run out inside the superblock, exactly like
the PR-2 fast path does per block.

Every generated function is its own source string, compiled at most once
for the life of its :class:`TranslationUnit`: the unit memoizes the code
objects, and binding a unit to a simulator fills each slot of the driver's
function table with a stub that compiles (or takes from the memo) and
binds its one function on first call, so a run compiles only the functions
it reaches.  Units are plain data plus those code objects, marshalled, so a
unit pickles inside ``CompileCache`` payloads (whose key carries the
interpreter's bytecode magic) and a warm load runs without compiling
anything the compile already compiled.
"""

from __future__ import annotations

import marshal
import sys
import time

from repro.hw.alu import ALU_FUNCS, alu_expr, branch_expr
from repro.hw.errors import WallClockExceeded
from repro.hw.exceptions import Trap, TrapKind
from repro.isa.opcodes import Opcode

__all__ = [
    "CHAIN_CAP", "HOT_THRESHOLD", "TRACE_CAP", "DISABLE_LOOKUPS",
    "EFFECT_CAP", "TranslationUnit", "functional_unit",
    "run_functional_translated", "superscalar_unit",
    "run_superscalar_translated",
]

#: longest superblock, in chained basic blocks
CHAIN_CAP = 16
#: executions before a looping superblock arms its memo table
HOT_THRESHOLD = 16
#: memoized traces kept per superblock
TRACE_CAP = 4
#: an armed superblock that reaches this many lookups with zero hits is
#: disabled — the key never repeats, stop paying for it
DISABLE_LOOKUPS = 64
#: recorded traces longer than this many loads or stores are not inserted
#: (the recording lists also saturate at EFFECT_CAP + 1 so an unbounded
#: loop cannot grow them without bound)
EFFECT_CAP = 4096

_M32 = 0xFFFFFFFF
_MEM_BASE = 0x1000  # Memory.base (DATA_BASE); pinned by tests

# Generated functions return a 4-tuple ``(kind, a, b, fuel)``:
#   (0, idx, 0, fuel)            goto block ``idx`` in the same procedure
#   (1, idx, 0, fuel)            fuel may run out inside the superblock —
#                                resume the reference loop at block ``idx``
#   (2, target, resume, fuel)    call: JAL to procedure ``target``, resume
#                                frame is (current proc, ``resume``)
#   (3, addr, uid, fuel)         return: JR to token ``addr`` (``uid`` is
#                                the trap identity for a bad token)
#   (4, 0, 0, fuel)              halt / program end


class _WordView:
    """Word-indexed fallback view for big-endian hosts (or odd-sized
    memories) where ``memoryview.cast("I")`` would not be little-endian."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __getitem__(self, i):
        a = i << 2
        return int.from_bytes(self.m[a:a + 4], "little")

    def __setitem__(self, i, v):
        a = i << 2
        self.m[a:a + 4] = v.to_bytes(4, "little")


def _word_view(m: bytearray):
    """Aligned uint32 view over the memory bytearray.

    Generated code addresses words as ``W[addr >> 2]`` — one subscript
    instead of a slice allocation plus ``int.from_bytes``.  Word accesses
    are alignment-checked before reaching the view, so the cast view is
    exact on little-endian hosts; everywhere else the slow fallback keeps
    the same semantics.
    """
    if sys.byteorder == "little" and len(m) % 4 == 0:
        return memoryview(m).cast("I")
    return _WordView(m)


class TranslationUnit:
    """Result of translating one program (pickles in the cache).

    ``sources`` maps variant name (``plain``/``stats``/``record`` for the
    functional engine, ``sched`` for the superscalar engine) to a dict of
    generated function name -> that one function's source; ``record`` has
    only the memo-eligible superblocks.  ``code`` is the same shape and
    memoizes each function's compiled code object once :meth:`code_of` has
    compiled it; it pickles marshalled, so it is only valid on an
    interpreter with the same bytecode magic.  ``tables`` maps generated
    function name to its literal side tables (trap-site corrections,
    table-call opcode names); ``fns`` maps procedure name to the tuple of
    per-block function names.  Everything else is counters and memo
    metadata.  Runtime binding happens in ``_bind_*`` below.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.sources: dict[str, dict[str, str]] = {}
        self.code: dict[str, dict] = {}
        self.tables: dict[str, dict] = {}
        self.fns: dict[str, tuple] = {}
        #: flat gid -> (procedure name, block label | index) for stats
        self.block_keys: list = []
        #: procedure -> {entry block idx -> (key_regs, written_regs)}
        self.memo: dict[str, dict] = {}
        self.translated_blocks = 0
        self.superblocks_chained = 0
        #: highest register index the generated code touches — a staleness
        #: tripwire against in-place IR mutation under a cached unit
        self.max_reg = 0
        #: superscalar only: procedure -> {block idx -> ctl spec}
        self.ctl: dict[str, dict] = {}

    def code_of(self, variant: str, fname: str):
        """The code object defining ``fname``, compiled on first request."""
        memo = self.code.setdefault(variant, {})
        code = memo.get(fname)
        if code is None:
            code = memo[fname] = compile(self.sources[variant][fname],
                                         "<repro-translate>", "exec")
        return code

    def compile_all(self) -> None:
        """Compile every function of every variant into the memo."""
        for variant, sources in self.sources.items():
            for fname in sources:
                self.code_of(variant, fname)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["code"] = marshal.dumps(self.code)
        return state

    def __setstate__(self, state):
        state["code"] = marshal.loads(state["code"])
        self.__dict__.update(state)


def _bind(unit: TranslationUnit, variant: str, ns: dict) -> dict:
    """Per procedure, the function table of one variant bound to ``ns``.

    Every slot whose function exists starts as a stub.  On its first call
    the stub execs the function's code (compiled once per unit) into
    ``ns``, so default arguments such as ``regs=REGS`` bind to the live
    namespace, and replaces itself with the real function.
    """
    sources = unit.sources[variant]

    def stub(table, k, fname):
        def first_call(*args):
            exec(unit.code_of(variant, fname), ns)
            fn = table[k] = ns[fname]
            return fn(*args)
        return first_call

    tables = {}
    for pname, names in unit.fns.items():
        table = tables[pname] = [None] * len(names)
        for k, fname in enumerate(names):
            if fname in sources:
                table[k] = stub(table, k, fname)
    return tables


def _rx(reg) -> int:
    return -1 if reg is None or reg.is_zero else reg.index


# =========================================================================
# Functional engine
# =========================================================================

def _build_chain(blocks, entry: int, index) -> tuple[list[int], bool]:
    """Follow predicted branch directions from ``entry`` into a superblock.

    Returns the chained block indices and whether the chain closes into a
    loop (last successor == entry).
    """
    chain = [entry]
    while len(chain) < CHAIN_CAP:
        k = chain[-1]
        term = blocks[k].terminator
        if term is None:
            succ = k + 1
            if succ >= len(blocks):
                break  # program end
        else:
            op = term.op
            if op.is_cond_branch:
                succ = index[term.target] if term.predict_taken is True \
                    else k + 1
            elif op is Opcode.J:
                succ = index[term.target]
            else:
                break  # JAL / JR / HALT end the chain
        if succ == chain[0]:
            return chain, True
        if succ in chain or succ >= len(blocks):
            break
        chain.append(succ)
    return chain, False


class _FnBuild:
    """One superblock's emission state, shared across the three variants."""

    def __init__(self, pname, proc, entry, index, mem_size, gid_of):
        self.pname = pname
        self.proc = proc
        self.entry = entry
        self.index = index
        self.mem_size = mem_size
        self.gid_of = gid_of
        self.chain, self.looped = _build_chain(proc.blocks, entry, index)
        self.seg_cost = sum(
            len(proc.blocks[k].body)
            + (0 if proc.blocks[k].terminator is None else 1)
            for k in self.chain)
        # linear-order register analysis (the superblock has one on-trace
        # path, so emission order is execution order for reads/writes)
        reads_before_write: set[int] = set()
        written: set[int] = set()
        used: set[int] = set()
        first_block_defs: set[int] = set()
        self.has_print = False
        self.total_nops = 0
        self.total_branches = 0
        for pos, k in enumerate(self.chain):
            block = proc.blocks[k]
            for instr in block.body:
                if instr.op is Opcode.NOP:
                    self.total_nops += 1
                    continue
                if instr.op is Opcode.PRINT:
                    self.has_print = True
                for s in instr.srcs:
                    i = _rx(s)
                    if i >= 0:
                        used.add(i)
                        if i not in written:
                            reads_before_write.add(i)
                d = _rx(getattr(instr, "dst", None))
                if d >= 0 and not instr.op.is_store:
                    used.add(d)
                    written.add(d)
                    if pos == 0:
                        first_block_defs.add(d)
            term = block.terminator
            if term is not None:
                if term.op.is_cond_branch:
                    self.total_branches += 1
                for s in term.srcs:
                    i = _rx(s)
                    if i >= 0:
                        used.add(i)
                        if i not in written:
                            reads_before_write.add(i)
        self.used = sorted(used)
        self.written = sorted(written)
        self.has_nops = self.total_nops > 0
        self.has_branches = self.total_branches > 0
        # memo key: registers whose entry value can influence the run.  A
        # written register not provably assigned on every exit path (i.e.
        # not defined in the first block's body) is keyed too, because the
        # recorded final value may just be its entry value written back.
        self.key_regs = tuple(sorted(
            reads_before_write | (written - first_block_defs)))
        self.memo_ok = self.looped and not self.has_print


def _flush_lines(fb: _FnBuild, fuel_adj: int = 0, np_adj: int = 0,
                 bc_adj: int = 0) -> list[str]:
    """Counter flush at an exit: re-add the unexecuted tail of the current
    iteration (the static adjustments), write locals back, publish."""
    lines = []
    if fuel_adj:
        lines.append(f"fuel += {fuel_adj}")
    if fb.has_nops and np_adj:
        lines.append(f"np -= {np_adj}")
    if fb.has_branches and bc_adj:
        lines.append(f"bc -= {bc_adj}")
    if fb.written:
        lines.append("; ".join(f"regs[{i}] = r{i}" for i in fb.written))
    if fb.has_nops:
        lines.append("res.instr_count += F0 - fuel - np")
        lines.append("res.nop_count += np")
    else:
        lines.append("res.instr_count += F0 - fuel")
    if fb.has_branches:
        lines.append("res.branch_count += bc")
    return lines


def _chain_has_sites(fb: _FnBuild) -> bool:
    for k in fb.chain:
        for instr in fb.proc.blocks[k].body:
            op = instr.op
            if op.is_load or op.is_store:
                return True
            if op in (Opcode.DIV, Opcode.REM):
                return True
            if op is Opcode.SLTI and instr.imm is not None \
                    and not -(2 ** 31) <= instr.imm < 2 ** 31:
                return True
    return False


def _emit_backedge(body: list[str], ind: str, fb: _FnBuild) -> None:
    body.append(ind + "if dl is not None and MONO() > dl:")
    for ln in _flush_lines(fb):
        body.append(ind + "    " + ln)
    body.append(ind + '    raise WCE(f"exceeded {WCL}s wall clock "')
    body.append(ind + '              f"({res.instr_count:,} instructions '
                'executed)")')
    body.append(ind + f"if fuel < {fb.seg_cost}:")
    for ln in _flush_lines(fb):
        body.append(ind + "    " + ln)
    body.append(ind + f"    return (1, {fb.entry}, 0, fuel)")
    body.append(ind + "continue")


def _emit_functional_fn(fb: _FnBuild, fname: str, stats: bool, record: bool,
                        tables_out) -> str:
    """Emit one variant of one superblock function.

    ``tables_out`` (a dict) is filled with the literal side tables on the
    first call; emission is deterministic, so every variant produces the
    same site/table layout.
    """
    proc, index, chain = fb.proc, fb.index, fb.chain
    limw = fb.mem_size - 4
    limb = fb.mem_size - 1
    seg, npt, nbt = fb.seg_cost, fb.total_nops, fb.total_branches
    sites: list[tuple[int, int, int, int]] = []  # (TA, TN, TB, TU)
    ip_lines: list[int] = []  # body indices of "_ip = k" lines
    fb_ops: list[str] = []

    def reg_expr(reg) -> str:
        i = _rx(reg)
        return f"r{i}" if i >= 0 else "0"

    body: list[str] = []
    ind = "    "
    has_sites = _chain_has_sites(fb)
    if has_sites:
        body.append(ind + "try:")
        ind += "    "
    if fb.looped:
        body.append(ind + "while True:")
        ind += "    "
    # the whole iteration's fuel/NOP/branch accounting, charged up front
    acct = [f"fuel -= {seg}"]
    if fb.has_nops:
        acct.append(f"np += {npt}")
    if fb.has_branches:
        acct.append(f"bc += {nbt}")
    body.append(ind + "; ".join(acct))

    cost_run = nop_run = nonnop_run = br_run = 0
    for pos, k in enumerate(chain):
        block = proc.blocks[k]
        term = block.terminator
        cost = len(block.body) + (0 if term is None else 1)
        nops = sum(1 for i in block.body if i.op is Opcode.NOP)
        if stats:
            body.append(ind + f"BE[{fb.gid_of[(fb.pname, block.label)]}] += 1")
        cost_run += cost
        np_prev = nop_run
        nop_run += nops
        ln = 0   # non-NOP body instructions emitted so far in this block
        lnp = 0  # NOPs seen so far in this block

        def site(instr) -> None:
            # fuel/np/bc were charged for the whole iteration up front;
            # each trap site stores the delta back to the architectural
            # truth (``ln`` already counts the trapping instruction).
            sites.append((nonnop_run + ln - (seg - npt),
                          np_prev + lnp - npt,
                          nbt - br_run,
                          instr.origin or instr.uid))
            ip_lines.append(len(body))
            body.append(ind + f"_ip = {len(sites) - 1}")

        for instr in block.body:
            op = instr.op
            if op is Opcode.NOP:
                lnp += 1
                continue
            ln += 1
            if op is Opcode.PRINT:
                a = reg_expr(instr.srcs[0]) if instr.srcs else "0"
                if a == "0":
                    body.append(ind + "out.append(0)")
                else:
                    body.append(
                        ind + f"out.append({a} - 4294967296 "
                        f"if {a} >= 2147483648 else {a})")
                continue
            if op.is_load:
                d = _rx(instr.dst)
                base = reg_expr(instr.srcs[0])
                off = instr.imm or 0
                site(instr)
                if off:
                    body.append(ind + f"_a = ({base} + {off}) & {_M32}")
                else:
                    body.append(ind + f"_a = {base}")
                if op is Opcode.LW:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limw} "
                                "or _a & 3:")
                    body.append(ind + "    MC(_a, 4)")
                    if d >= 0:
                        body.append(ind + f"r{d} = W[_a >> 2]")
                        if record:
                            body.append(
                                ind + f"if len(LL) <= {EFFECT_CAP}: "
                                f"LL.append((_a, 4, r{d}))")
                else:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limb}:")
                    body.append(ind + "    MC(_a, 1)")
                    if d >= 0:
                        if op is Opcode.LB or record:
                            body.append(ind + "_v = M[_a]")
                            if record:
                                body.append(
                                    ind + f"if len(LL) <= {EFFECT_CAP}: "
                                    "LL.append((_a, 1, _v))")
                            if op is Opcode.LB:
                                body.append(
                                    ind + f"r{d} = _v + 4294967040 "
                                    "if _v >= 128 else _v")
                            else:
                                body.append(ind + f"r{d} = _v")
                        else:
                            body.append(ind + f"r{d} = M[_a]")
                continue
            if op.is_store:
                v = reg_expr(instr.srcs[0])
                base = reg_expr(instr.srcs[1])
                off = instr.imm or 0
                site(instr)
                if off:
                    body.append(ind + f"_a = ({base} + {off}) & {_M32}")
                else:
                    body.append(ind + f"_a = {base}")
                if op is Opcode.SW:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limw} "
                                "or _a & 3:")
                    body.append(ind + "    MC(_a, 4)")
                    body.append(ind + f"W[_a >> 2] = {v}")
                    if record:
                        body.append(ind + f"if len(LS) <= {EFFECT_CAP}: "
                                    f"LS.append((_a, 4, {v}))")
                else:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limb}:")
                    body.append(ind + "    MC(_a, 1)")
                    byte = f"{v} & 255" if v != "0" else "0"
                    if record:
                        body.append(ind + f"_d = {byte}")
                        body.append(ind + "M[_a] = _d")
                        body.append(ind + f"if len(LS) <= {EFFECT_CAP}: "
                                    "LS.append((_a, 1, _d))")
                    else:
                        body.append(ind + f"M[_a] = {byte}")
                continue
            if ALU_FUNCS.get(op) is None:
                raise ValueError(f"cannot translate {instr}")
            d = _rx(instr.dst)
            a = reg_expr(instr.srcs[0]) if instr.srcs else "0"
            b = reg_expr(instr.srcs[1]) if len(instr.srcs) > 1 else "0"
            imm = instr.imm or 0
            expr = alu_expr(op, a, b, imm)
            if expr is not None:
                if d >= 0:
                    body.append(ind + f"r{d} = {expr}")
                # pure expression with a zero destination: no effect at all
            else:
                site(instr)
                j = len(fb_ops)
                fb_ops.append(op.name)
                tgt = f"r{d} = " if d >= 0 else ""
                body.append(ind + f"{tgt}FB[{j}]({a}, {b}, {imm})")

        # --- terminator / chain continuation -----------------------------
        last = pos == len(chain) - 1

        def emit_exit(lines_ind, kind, a="0", b="0"):
            for fl in _flush_lines(fb, seg - cost_run, npt - nop_run,
                                   nbt - br_run):
                body.append(lines_ind + fl)
            body.append(lines_ind + f"return ({kind}, {a}, {b}, fuel)")

        if term is None:
            nonnop_run += cost - nops
            succ = k + 1
            if not last:
                continue  # falls into the next emitted block
            if fb.looped:
                _emit_backedge(body, ind, fb)
            elif succ >= len(proc.blocks):
                emit_exit(ind, 4)
            else:
                emit_exit(ind, 0, str(succ))
            continue

        op = term.op
        if op.is_cond_branch:
            br_run += 1
            nonnop_run += cost - nops
            a = reg_expr(term.srcs[0]) if term.srcs else "0"
            b = reg_expr(term.srcs[1]) if len(term.srcs) > 1 else "0"
            on_taken = term.predict_taken is True
            tidx = index[term.target]
            off_idx = k + 1 if on_taken else tidx
            # off-trace test: negate when the trace follows the taken edge
            body.append(
                ind + f"if {branch_expr(op, a, b, negate=on_taken)}:")
            if term.predict_taken is not None:
                body.append(ind + "    res.mispredict_count += 1")
            emit_exit(ind + "    ", 0, str(off_idx))
            if last:
                on_idx = tidx if on_taken else k + 1
                if fb.looped:
                    _emit_backedge(body, ind, fb)
                else:
                    emit_exit(ind, 0, str(on_idx))
            continue
        nonnop_run += cost - nops
        if op is Opcode.J:
            if not last:
                continue  # target is the next emitted block
            if fb.looped:
                _emit_backedge(body, ind, fb)
            else:
                emit_exit(ind, 0, str(index[term.target]))
            continue
        if op is Opcode.JAL:
            emit_exit(ind, 2, f"{term.target!r}", str(k + 1))
            continue
        if op is Opcode.JR:
            uid = term.origin or term.uid
            emit_exit(ind, 3, reg_expr(term.srcs[0]), str(uid))
            continue
        if op is Opcode.HALT:
            emit_exit(ind, 4)
            continue
        raise ValueError(f"cannot translate terminator {term}")

    # ---- except handler ----------------------------------------------------
    tabs: dict[str, tuple] = {}
    if has_sites:

        def term_expr(tag: str, vals: list[int]):
            if len(set(vals)) == 1:
                return vals[0]
            tabs[tag] = tuple(vals)
            return f"{tag}[_ip]"

        ta = term_expr("TA", [s[0] for s in sites])
        h = "    "
        body.append(h + "except TRAP as _t:")
        h += "    "
        if fb.written:
            body.append(h + "; ".join(
                f"regs[{i}] = r{i}" for i in fb.written))
        base_ic = "res.instr_count += F0 - fuel - np" if fb.has_nops \
            else "res.instr_count += F0 - fuel"
        body.append(h + (base_ic if ta == 0 else f"{base_ic} + ({ta})"))
        if fb.has_nops:
            tn = term_expr("TN", [s[1] for s in sites])
            body.append(h + ("res.nop_count += np" if tn == 0
                             else f"res.nop_count += np + ({tn})"))
        if fb.has_branches:
            tb = term_expr("TB", [s[2] for s in sites])
            body.append(h + ("res.branch_count += bc" if tb == 0
                             else f"res.branch_count += bc - ({tb})"))
        tu = term_expr("TU", [s[3] for s in sites])
        body.append(h + f"_t.instr_uid = {tu}")
        body.append(h + "res.trap = _t")
        body.append(h + "raise")
        if not tabs:
            # every correction folded to a constant: drop site tracking
            for i in reversed(ip_lines):
                body.pop(i)

    # ---- header ------------------------------------------------------------
    params = ["fuel", "dl", "regs=REGS", "M=M", "W=W", "MC=MC",
              "out=OUT", "res=RES", "MONO=MONO"]
    if stats:
        params.append("BE=BE")
    if record:
        params.append("LL=LL")
        params.append("LS=LS")
    if fb_ops:
        params.append(f"FB=FB_{fname}")
    for tag in ("TA", "TN", "TB", "TU"):
        if tag in tabs:
            params.append(f"{tag}={tag}_{fname}")
    head = [f"def {fname}({', '.join(params)}):"]
    head.append("    if dl is not None and MONO() > dl:")
    head.append('        raise WCE(f"exceeded {WCL}s wall clock "')
    head.append('                  f"({res.instr_count:,} instructions '
                'executed)")')
    head.append(f"    if fuel < {seg}:")
    head.append(f"        return (1, {fb.entry}, 0, fuel)")
    if fb.used:
        head.append("    " + "; ".join(f"r{i} = regs[{i}]" for i in fb.used))
    head.append("    F0 = fuel")
    if fb.has_nops:
        head.append("    np = 0")
    if fb.has_branches:
        head.append("    bc = 0")

    if tables_out is not None and (fb_ops or tabs):
        tab = dict(tabs)
        if fb_ops:
            tab["FB"] = tuple(fb_ops)
        tables_out[fname] = tab
    return "\n".join(head + body)


def build_functional_unit(program) -> TranslationUnit:
    """Translate every basic block of ``program`` into superblock sources."""
    unit = TranslationUnit("functional")
    gid_of = {}
    for pname, proc in program.procedures.items():
        for b in proc.blocks:
            gid_of[(pname, b.label)] = len(unit.block_keys)
            unit.block_keys.append((pname, b.label))
    unit.sources = {"plain": {}, "stats": {}, "record": {}}
    plain, stats, record = unit.sources.values()
    for pord, (pname, proc) in enumerate(program.procedures.items()):
        index = {b.label: i for i, b in enumerate(proc.blocks)}
        names = []
        pmemo = {}
        for k in range(len(proc.blocks)):
            fname = f"S{pord}_{k}"
            fb = _FnBuild(pname, proc, k, index, program.mem_size, gid_of)
            plain[fname] = _emit_functional_fn(fb, fname, False, False,
                                               unit.tables)
            stats[fname] = _emit_functional_fn(fb, fname, True, False, None)
            names.append(fname)
            unit.translated_blocks += 1
            if fb.used and fb.used[-1] > unit.max_reg:
                unit.max_reg = fb.used[-1]
            if len(fb.chain) > 1:
                unit.superblocks_chained += 1
            if fb.memo_ok:
                # the driver calls ``record`` only through memo states
                record[fname] = _emit_functional_fn(fb, fname, True, True,
                                                    None)
                pmemo[k] = (fb.key_regs, tuple(fb.written))
        unit.fns[pname] = tuple(names)
        if pmemo:
            unit.memo[pname] = pmemo
    return unit


def functional_unit(program, nregs=None):
    """Get-or-build the cached translation for ``program``.

    A build failure (undecodable instruction) marks the program
    untranslatable — callers fall back to the interpreter.  The unit is
    stored as a plain attribute on the (plain-dataclass) program, so every
    later run of this program object reuses it and its compiled code.  The
    compile pipeline does not build it: the first translate run does.

    IR-mutating passes call ``Program.invalidate_caches`` to drop a stale
    unit; ``nregs`` (the simulator's register-file size) is a backstop that
    catches an externally mutated program whose cached unit now references
    out-of-range registers.
    """
    for _ in range(2):
        unit = getattr(program, "_translation_unit", None)
        if unit is None:
            try:
                unit = build_functional_unit(program)
            except Exception:
                unit = False
            program._translation_unit = unit
        if isinstance(unit, TranslationUnit) and nregs is not None \
                and unit.max_reg >= nregs:
            program._translation_unit = None
            continue
        break
    return unit if isinstance(unit, TranslationUnit) else None


def _bind_functional(unit: TranslationUnit, sim, variant: str, be=None):
    """Bind one generated variant to a live simulator's state.

    Returns ``(tables, ns)``: the per-procedure function tables (see
    :func:`_bind`) and their namespace; generated functions close over the
    register list, memory views and result object through default
    arguments.
    """
    ns = {
        "REGS": sim.regs, "M": sim.mem._mem, "W": _word_view(sim.mem._mem),
        "MC": sim.mem.check, "OUT": sim.result.output, "RES": sim.result,
        "MONO": time.monotonic, "WCE": WallClockExceeded, "TRAP": Trap,
        "WCL": sim.wall_clock_limit,
    }
    for fname, tab in unit.tables.items():
        for tag, vals in tab.items():
            if tag == "FB":
                ns["FB_" + fname] = tuple(
                    ALU_FUNCS[Opcode[n]] for n in vals)
            else:
                ns[tag + "_" + fname] = vals
    if variant != "plain":
        ns["BE"] = be if be is not None else [0] * len(unit.block_keys)
    if variant == "record":
        ns["LL"] = []
        ns["LS"] = []
    return _bind(unit, variant, ns), ns


def run_functional_translated(sim, entry_name: str, fuel: int, deadline):
    """Drive a FunctionalSim through its translated superblocks.

    Mirrors ``FunctionalSim._run_fast`` observables exactly; adds the
    trace-reuse memo layer for looping superblocks.
    """
    from repro.hw.functional import EXIT_TOKEN, _RA_INDEX, _TOKEN_STRIDE

    unit = functional_unit(sim.program)
    stats_on = sim._stats_hot is not None
    fnmap, ns = _bind_functional(unit, sim,
                                 "stats" if stats_on else "plain")
    BE = ns.get("BE")
    result = sim.result
    regs = sim.regs
    tokens = sim._tokens
    M = sim.mem._mem
    WV = _word_view(M)

    # per-run memo state: [phase, execs, lookups, hits, {key: trace},
    #                      key_regs, written_regs]
    mstates = {p: [None] * len(names) for p, names in unit.fns.items()}
    for p, pmemo in unit.memo.items():
        for idx2, (kregs, wregs) in pmemo.items():
            mstates[p][idx2] = [0, 0, 0, 0, {}, kregs, wregs]
    hits = misses = invals = 0
    rb = None  # lazily bound record variant: (tables, LL, LS)

    def _record(pname2, idx2, mst2, key, f, dl):
        """Execute via the recording variant and memoize the trace."""
        nonlocal rb
        if rb is None:
            rfns, rns = _bind_functional(unit, sim, "record", be=BE)
            rb = (rfns, rns["LL"], rns["LS"])
        rfns, LL, LS = rb
        LL.clear()
        LS.clear()
        i0, n0 = result.instr_count, result.nop_count
        b0, m0 = result.branch_count, result.mispredict_count
        pre = BE[:] if BE is not None else None
        f0 = f
        k, a, b, f = rfns[pname2][idx2](f, dl)
        # a fuel handoff exit is fuel-dependent, not input-dependent, and
        # saturated effect logs mean the trace was truncated: don't insert
        if k != 1 and len(LL) <= EFFECT_CAP and len(LS) <= EFFECT_CAP \
                and len(mst2[4]) < TRACE_CAP:
            bed = ()
            if pre is not None:
                bed = tuple((g, BE[g] - v) for g, v in enumerate(pre)
                            if BE[g] != v)
            mst2[4][key] = (
                tuple(LL), tuple(LS),
                tuple(regs[i] for i in mst2[6]),
                result.instr_count - i0, result.nop_count - n0,
                result.branch_count - b0, result.mispredict_count - m0,
                f0 - f, (k, a, b), bed)
        return k, a, b, f

    proc = entry_name
    pf = fnmap[proc]
    ml = mstates[proc]
    idx = 0
    try:
        while True:
            mst = ml[idx]
            if mst is None:
                k, a, b, fuel = pf[idx](fuel, deadline)
            else:
                ph = mst[0]
                if ph == 1:
                    key = tuple(regs[i] for i in mst[5])
                    entries = mst[4]
                    ent = entries.get(key)
                    mst[2] += 1
                    if ent is not None:
                        ok = True
                        for ea, es, ev in ent[0]:
                            if (M[ea] if es == 1 else WV[ea >> 2]) != ev:
                                ok = False
                                break
                        if ok and fuel >= ent[7]:
                            wregs = mst[6]
                            wvals = ent[2]
                            for i2 in range(len(wregs)):
                                regs[wregs[i2]] = wvals[i2]
                            for ea, es, ep in ent[1]:
                                if es == 4:
                                    WV[ea >> 2] = ep
                                else:
                                    M[ea] = ep
                            result.instr_count += ent[3]
                            result.nop_count += ent[4]
                            result.branch_count += ent[5]
                            result.mispredict_count += ent[6]
                            fuel -= ent[7]
                            if BE is not None:
                                for g, d2 in ent[9]:
                                    BE[g] += d2
                            mst[3] += 1
                            hits += 1
                            k, a, b = ent[8]
                        elif not ok:
                            del entries[key]
                            invals += 1
                            misses += 1
                            k, a, b, fuel = _record(
                                proc, idx, mst, key, fuel, deadline)
                        else:
                            # not enough fuel to legally replay: execute,
                            # letting the handoff logic fire exactly
                            k, a, b, fuel = pf[idx](fuel, deadline)
                    else:
                        misses += 1
                        if len(entries) < TRACE_CAP:
                            k, a, b, fuel = _record(
                                proc, idx, mst, key, fuel, deadline)
                        else:
                            k, a, b, fuel = pf[idx](fuel, deadline)
                        if mst[2] >= DISABLE_LOOKUPS and mst[3] == 0:
                            mst[0] = 2
                            entries.clear()
                elif ph == 0:
                    mst[1] += 1
                    if mst[1] >= HOT_THRESHOLD:
                        mst[0] = 1
                    k, a, b, fuel = pf[idx](fuel, deadline)
                else:  # disabled
                    k, a, b, fuel = pf[idx](fuel, deadline)
            if k == 0:
                idx = a
                continue
            if k == 2:
                token = sim._next_token
                sim._next_token += _TOKEN_STRIDE
                tokens[token] = (proc, b)
                regs[_RA_INDEX] = token
                proc = a
                pf = fnmap[a]
                ml = mstates[a]
                idx = 0
                continue
            if k == 3:
                if a == EXIT_TOKEN:
                    return result
                frame = tokens.get(a)
                if frame is None:
                    trap = Trap(TrapKind.ADDRESS_ERROR, addr=a, instr_uid=b)
                    result.trap = trap
                    raise trap
                proc, idx = frame
                pf = fnmap[proc]
                ml = mstates[proc]
                continue
            if k == 1:
                return sim._interp(proc, a, fuel, deadline)
            return result  # k == 4: halt / program end
    finally:
        if BE is not None:
            execs = sim._stats_hot.block_execs
            bkeys = unit.block_keys
            for g, n in enumerate(BE):
                if n:
                    kk = bkeys[g]
                    execs[kk] = execs.get(kk, 0) + n
        sim.translate_counters = {
            "translated_blocks": unit.translated_blocks,
            "superblocks_chained": unit.superblocks_chained,
            "trace_hits": hits,
            "trace_misses": misses,
            "trace_invalidations": invals,
        }


# =========================================================================
# Superscalar engine
# =========================================================================
#
# The scheduled machine is translated at basic-block granularity: every
# block compiles to one generated function that unrolls the scoreboard
# interlock, the read-before-write issue phases and the opcode semantics of
# its cycle rows, then publishes the terminator outcome through
# ``sim._ctl`` exactly like ``_resolve_terminator`` does.  A slot boosted
# to level L reads its operands through the shadow register file at L,
# writes its result there, loads through the shadow store buffer and
# buffers its stores; a fault on it is recorded in the exception shift
# buffer at L instead of raised.  Block-end boosting machinery — shadow
# commit/squash, shift-buffer shifts, recovery vectoring — stays in
# ``SuperscalarSim._block_end``, which the driver shares with the
# interpreters.  Translation is all or nothing: a schedule with a slot the
# emitter cannot express (a boosted PRINT or terminator, a boosted store
# without a store buffer, an opcode with no ALU function) gets no unit and
# runs on the interpreter.

def _emit_superscalar_fn(proc, k, mem_size, has_storebuf, fname,
                         tables_out) -> str:
    """Emit the generated function for one scheduled block.

    Without a shadow store buffer (``has_storebuf`` false) a boosted load
    reads memory directly and a boosted store cannot be expressed.  Raises
    ``ValueError`` for a slot the emitter cannot express.
    """
    block = proc.blocks[k]
    limw = mem_size - 4
    limb = mem_size - 1
    sites: list[tuple[int, int, int, int]] = []  # (TA, TN, TB, TU)
    ip_lines: list[int] = []
    fb_ops: list[str] = []
    uses: set[str] = set()  # boosting-hardware bindings the body calls
    body: list[str] = []
    ind = "        "
    nn = 0   # non-NOP slots retired so far (slot order == retire order)
    nnop = 0
    nb = 0   # boosted slots retired so far
    slots = [i for row in block.cycles for i in row if i is not None]
    nops = sum(1 for i in slots if i.op is Opcode.NOP)
    total = len(slots) - nops
    boosted = sum(1 for i in slots if i.boost and i.op is not Opcode.NOP)
    ctl_kind = None

    def operand(reg, level) -> str:
        i = _rx(reg)
        if i < 0:
            return "0"
        return f"_b{level}_{i}" if level else f"_t{i}"

    def site(instr) -> None:
        # TB: boosted slots before this one, charged only on a trap
        sites.append((nn, nnop, nb, instr.origin or instr.uid))
        ip_lines.append(len(body))
        body.append(ind + f"_ip = {len(sites) - 1}")

    def defer(lines_ind, instr) -> str:
        # a boosted fault goes to the shift buffer at its level and the
        # slot writes nothing, as in ``SuperscalarSim._trap``
        uses.add("XR")
        return (lines_ind + "except TRAP as _e: _e.instr_uid = "
                f"{instr.origin or instr.uid}; XR({instr.boost}, _e, 0)")

    def write(instr, d, value) -> str:
        # a boosted result goes to the shadow register file at its level
        if instr.boost:
            uses.add("SHW")
            put = f"SHW({d}, {instr.boost}, {value})"
        else:
            put = f"regs[{d}] = {value}"
        return f"{put}; RD[{d}] = now + {instr.op.latency}"

    for row in block.cycles:
        entries = [i for i in row if i is not None]
        watch = sorted({_rx(s) for i in entries for s in i.srcs
                        if _rx(s) >= 0})
        # scoreboard interlock: the whole issue packet waits
        for i in watch:
            body.append(ind + f"_r = RG({i}, 0)")
            body.append(ind + "if _r > now: now = _r")
        # phase 1: all operands read before any result is written; a slot
        # boosted to level L sees the shadow value visible at L, else the
        # sequential register
        reads = sorted({(i.boost, _rx(s)) for i in entries for s in i.srcs
                        if _rx(s) >= 0})
        seq = [r for lvl, r in reads if not lvl]
        if seq:
            body.append(ind + "; ".join(f"_t{r} = regs[{r}]" for r in seq))
        for lvl, r in reads:
            if lvl:
                uses.add("SHR")
                body.append(ind + f"_b{lvl}_{r} = SHR({r}, {lvl})")
                body.append(ind + f"if _b{lvl}_{r} is None: "
                            f"_b{lvl}_{r} = regs[{r}]")
        # phase 2: execute in slot order
        for instr in entries:
            op = instr.op
            if op is Opcode.NOP:
                nnop += 1
                continue
            nn += 1
            lvl = instr.boost
            if lvl:
                if instr.is_terminator or op is Opcode.PRINT:
                    raise ValueError(f"cannot translate boosted {instr}")
                nb += 1
            if instr.is_terminator:
                if op.is_cond_branch:
                    a = operand(instr.srcs[0], 0) if instr.srcs else "0"
                    b = operand(instr.srcs[1], 0) \
                        if len(instr.srcs) > 1 else "0"
                    body.append(
                        ind + f"SIM._ctl = CT if "
                        f"{branch_expr(op, a, b)} else CF")
                    ctl_kind = "cond"
                elif op is Opcode.J:
                    body.append(ind + "SIM._ctl = CJ")
                    ctl_kind = "jump"
                elif op is Opcode.JAL:
                    body.append(ind + "_k = SIM._next_token")
                    body.append(ind + "SIM._next_token += 16")
                    body.append(ind + "SIM._tokens[_k] = FR")
                    body.append(ind + "regs[31] = _k")
                    body.append(ind + "RD[31] = now + 1")
                    body.append(ind + "SIM._ctl = CA")
                    ctl_kind = "call"
                elif op is Opcode.JR:
                    a = operand(instr.srcs[0], 0) if instr.srcs else "0"
                    body.append(ind + f'SIM._ctl = ("return", {a})')
                    ctl_kind = "return"
                elif op is Opcode.HALT:
                    body.append(ind + "SIM._ctl = CH")
                    ctl_kind = "halt"
                else:
                    raise ValueError(f"cannot translate terminator {instr}")
                continue
            if op is Opcode.PRINT:
                a = operand(instr.srcs[0], 0) if instr.srcs else "0"
                if a == "0":
                    body.append(ind + "out.append(0)")
                else:
                    body.append(
                        ind + f"out.append({a} - 4294967296 "
                        f"if {a} >= 2147483648 else {a})")
                continue
            d = _rx(instr.dst)
            if op.is_load or op.is_store:
                word = op is Opcode.LW or op is Opcode.SW
                if op.is_load:
                    base = operand(instr.srcs[0], lvl)
                    raw = "W[_a >> 2]" if word else "M[_a]"
                    if lvl and has_storebuf:
                        uses.update(("SBL", "MEM"))
                        raw = (f"int.from_bytes(SBL(MEM, _a, 4, {lvl}), "
                               "'little')" if word
                               else f"SBL(MEM, _a, 1, {lvl})[0]")
                    effect = []
                    if d >= 0:
                        if op is Opcode.LB:
                            effect.append(f"_v = {raw}")
                            raw = "_v + 4294967040 if _v >= 128 else _v"
                        effect.append(write(instr, d, raw))
                else:
                    v = operand(instr.srcs[0], lvl)
                    base = operand(instr.srcs[1], lvl)
                    if lvl:
                        if not has_storebuf:
                            raise ValueError(
                                f"boosted store without a store buffer: "
                                f"{instr}")
                        uses.add("SBS")
                        data = (f"({v} & {_M32}).to_bytes(4, 'little')"
                                if word else f"bytes(({v} & 255,))")
                        effect = [f"SBS({lvl}, _a, {data})"]
                    elif word:
                        effect = [f"W[_a >> 2] = {v}"]
                    else:
                        effect = [f"M[_a] = {v} & 255" if v != "0"
                                  else "M[_a] = 0"]
                off = instr.imm or 0
                if not lvl:
                    site(instr)
                if off:
                    body.append(ind + f"_a = ({base} + {off}) & {_M32}")
                else:
                    body.append(ind + f"_a = {base}")
                if word:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limw} "
                                "or _a & 3:")
                else:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limb}:")
                size = 4 if word else 1
                if lvl:
                    body.append(ind + f"    try: MC(_a, {size})")
                    body.append(defer(ind + "    ", instr))
                    if effect:
                        body.append(ind + "else:")
                        body.extend(ind + "    " + ln for ln in effect)
                else:
                    body.append(ind + f"    MC(_a, {size})")
                    body.extend(ind + ln for ln in effect)
                continue
            if ALU_FUNCS.get(op) is None:
                raise ValueError(f"cannot translate {instr}")
            a = operand(instr.srcs[0], lvl) if instr.srcs else "0"
            b = operand(instr.srcs[1], lvl) if len(instr.srcs) > 1 else "0"
            imm = instr.imm or 0
            expr = alu_expr(op, a, b, imm)
            if expr is not None:
                if d >= 0:
                    body.append(ind + write(instr, d, expr))
                # pure expression with a zero destination: no effect at all
                continue
            j = len(fb_ops)
            fb_ops.append(op.name)
            call = f"FB[{j}]({a}, {b}, {imm})"
            if lvl:
                body.append(ind + (f"try: _v = {call}" if d >= 0
                                   else f"try: {call}"))
                body.append(defer(ind, instr))
                if d >= 0:
                    body.append(ind + "else: " + write(instr, d, "_v"))
            else:
                site(instr)
                body.append(ind + (write(instr, d, call) if d >= 0
                                   else call))
        body.append(ind + "now += 1")

    tabs: dict[str, tuple] = {}
    tail: list[str] = []
    if sites:

        def term_expr(tag: str, vals: list[int]):
            if len(set(vals)) == 1:
                return vals[0]
            tabs[tag] = tuple(vals)
            return f"{tag}[_ip]"

        ta = term_expr("TA", [s[0] for s in sites])
        tail.append("    except TRAP as _t:")
        tail.append("        SIM.now = now")
        if ta != 0:
            tail.append(f"        res.instr_count += {ta}")
        tn = term_expr("TN", [s[1] for s in sites])
        if tn != 0:
            tail.append(f"        res.nop_count += {tn}")
        tb = term_expr("TB", [s[2] for s in sites])
        if tb != 0:
            tail.append(f"        SIM.boosted_executed += {tb}")
        tu = term_expr("TU", [s[3] for s in sites])
        tail.append(f"        _t.instr_uid = {tu}")
        tail.append("        res.trap = _t")
        tail.append("        raise")
        if not tabs:
            for i in reversed(ip_lines):
                body.pop(i)
        body = ["    try:"] + body + tail
    else:
        body = [ln[4:] for ln in body]
    if total:
        body.append(f"    res.instr_count += {total}")
    if nops:
        body.append(f"    res.nop_count += {nops}")
    if boosted:
        body.append(f"    SIM.boosted_executed += {boosted}")
    body.append("    return now")

    params = ["now", "regs=REGS", "RD=RD", "RG=RG", "M=M", "W=W", "MC=MC",
              "out=OUT", "res=RES", "SIM=SIM"]
    params += [f"{n}={n}" for n in ("SHR", "SHW", "SBL", "SBS", "MEM", "XR")
               if n in uses]
    if ctl_kind == "cond":
        params += [f"CT=CT_{fname}", f"CF=CF_{fname}"]
    elif ctl_kind == "jump":
        params.append(f"CJ=CJ_{fname}")
    elif ctl_kind == "call":
        params += [f"FR=FR_{fname}", f"CA=CA_{fname}"]
    elif ctl_kind == "halt":
        params.append(f"CH=CH_{fname}")
    if fb_ops:
        params.append(f"FB=FB_{fname}")
    for tag in ("TA", "TN", "TB", "TU"):
        if tag in tabs:
            params.append(f"{tag}={tag}_{fname}")
    if tables_out is not None and (fb_ops or tabs):
        tab = dict(tabs)
        if fb_ops:
            tab["FB"] = tuple(fb_ops)
        tables_out[fname] = tab
    return "\n".join([f"def {fname}({', '.join(params)}):"] + body)


def build_superscalar_unit(sched) -> TranslationUnit:
    """Translate every block of a scheduled program; raises ``ValueError``
    when some slot cannot be expressed."""
    unit = TranslationUnit("superscalar")
    model = sched.model
    has_storebuf = model.max_level > 0 and model.boost_stores
    sources = unit.sources["sched"] = {}
    for pord, (pname, proc) in enumerate(sched.procedures.items()):
        names = []
        pctl = {}
        for k, block in enumerate(proc.blocks):
            fname = f"B{pord}_{k}"
            sources[fname] = _emit_superscalar_fn(
                proc, k, sched.program.mem_size, has_storebuf, fname,
                unit.tables)
            term = next((i for row in block.cycles for i in row
                         if i is not None and i.is_terminator), None)
            pctl[k] = None if term is None else term.op.name
            names.append(fname)
        unit.fns[pname] = tuple(names)
        unit.ctl[pname] = pctl
        unit.translated_blocks += len(names)
    return unit


def superscalar_unit(sched):
    """Get-or-build the cached translation for a scheduled program, or
    ``None`` when some slot cannot be expressed (the program then runs on
    the interpreter)."""
    unit = getattr(sched, "_translation_unit", None)
    if unit is None:
        try:
            unit = build_superscalar_unit(sched)
        except Exception:
            unit = False
        sched._translation_unit = unit
    return unit if isinstance(unit, TranslationUnit) else None


def _bind_superscalar(unit: TranslationUnit, sim):
    """Bind the ``sched`` variant to a live simulator's state; returns the
    per-procedure function tables (see :func:`_bind`)."""
    ns = {
        "REGS": sim.regs, "RD": sim._ready, "RG": sim._ready.get,
        "M": sim.mem._mem, "W": _word_view(sim.mem._mem),
        "MC": sim.mem.check, "OUT": sim.result.output, "RES": sim.result,
        "SIM": sim, "TRAP": Trap, "MEM": sim.mem,
        "SHR": sim.shadow.read, "SHW": sim.shadow.write,
        "XR": sim.shiftbuf.record,
    }
    if sim.storebuf is not None:
        ns["SBL"] = sim.storebuf.load
        ns["SBS"] = sim.storebuf.store
    for fname, tab in unit.tables.items():
        for tag, vals in tab.items():
            if tag == "FB":
                ns["FB_" + fname] = tuple(
                    ALU_FUNCS[Opcode[n]] for n in vals)
            else:
                ns[tag + "_" + fname] = vals
    # terminator outcome tuples, prebuilt so generated code publishes one
    # constant through sim._ctl instead of building a tuple per block
    for pname, pctl in unit.ctl.items():
        proc = sim.sched.procedures[pname]
        names = unit.fns[pname]
        for k, opname in pctl.items():
            fname = names[k]
            if opname is None:
                continue
            term = next(i for row in proc.blocks[k].cycles for i in row
                        if i is not None and i.is_terminator)
            if opname in ("BEQ", "BNE", "BLEZ", "BGTZ", "BLTZ", "BGEZ"):
                ns["CT_" + fname] = ("cond", term, True)
                ns["CF_" + fname] = ("cond", term, False)
            elif opname == "J":
                ns["CJ_" + fname] = ("jump", term.target)
            elif opname == "JAL":
                ns["FR_" + fname] = (proc, k + 1)
                ns["CA_" + fname] = ("call", term.target)
            elif opname == "HALT":
                ns["CH_" + fname] = ("halt",)
    return _bind(unit, "sched", ns)


def run_superscalar_translated(sim, entry_name):
    """Drive a SuperscalarSim through its translated blocks.

    Every block runs as generated code; block-end commit/squash/recovery
    is ``sim._block_end``, shared with the interpreters.  With stats on,
    the driver replays each block's boost levels into ``note_boosted`` in
    slot order — only the slots that ran, when a trap cuts a block short.
    """
    from repro.hw.errors import CycleLimitExceeded

    unit = superscalar_unit(sim.sched)
    fnmap = _bind_superscalar(unit, sim)
    proc = sim.sched.proc(entry_name or sim.program.entry)
    tf = fnmap[proc.name]
    block_idx = 0
    deadline = (time.monotonic() + sim.wall_clock_limit
                if sim.wall_clock_limit is not None else None)
    monotonic = time.monotonic
    max_cycles = sim.max_cycles
    result = sim.result
    block_end = sim._block_end
    st = sim._stats_hot
    if st is not None:
        execs = st.block_execs
        note_boosted = st.note_boosted
        levels = {
            name: [tuple(i.boost for row in b.cycles for i in row
                         if i is not None and i.boost
                         and i.op is not Opcode.NOP) for b in p.blocks]
            for name, p in sim.sched.procedures.items()}
    now = sim.now
    try:
        while True:
            if now > max_cycles:
                sim.now = now
                raise CycleLimitExceeded(f"exceeded {max_cycles} cycles")
            if deadline is not None and monotonic() > deadline:
                sim.now = now
                raise WallClockExceeded(
                    f"exceeded {sim.wall_clock_limit}s wall clock "
                    f"({now:,} cycles simulated)")
            sim._ctl = None
            if st is None:
                now = tf[block_idx](now)
            else:
                k = (proc.name, block_idx)
                execs[k] = execs.get(k, 0) + 1
                b0 = sim.boosted_executed
                try:
                    now = tf[block_idx](now)
                finally:
                    for level in levels[proc.name][block_idx][
                            :sim.boosted_executed - b0]:
                        note_boosted(level)
            sim.now = now
            nxt = block_end(proc, block_idx)
            now = sim.now  # recovery may have advanced the clock
            if nxt is None:
                result.cycle_count = now
                return result
            proc, block_idx = nxt
            tf = fnmap[proc.name]
    finally:
        sim.translate_counters = {
            "translated_blocks": unit.translated_blocks,
            "superblocks_chained": unit.superblocks_chained,
            "trace_hits": 0,
            "trace_misses": 0,
            "trace_invalidations": 0,
        }
