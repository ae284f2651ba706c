"""Translating simulator backend: basic blocks compiled to Python functions.

The interpreters in :mod:`repro.hw.functional` and
:mod:`repro.hw.superscalar` dispatch one pre-decoded tuple per dynamic
instruction.  This module removes that dispatch, the way classic
binary-translation simulators (Shade, Embra) do: every basic block is
compiled **once** into one generated Python function — opcode semantics
inlined as expressions via the templates in :mod:`repro.hw.alu`, immediates
and memory bounds folded to literals, memory accessed through an aligned
``uint32`` view of the backing ``bytearray`` — whose counters are charged
as static constants, with literal correction tables at its trap sites that
restore the interpreters' exact per-instruction accounting.

A functional block's function runs the block's body and terminator
straight on the register list and memory, charges the block's
instruction, NOP, branch and mispredict counts, and returns the
successor.  Its driver, :func:`run_functional_translated`, does per block
what ``FunctionalSim._run_fast`` does — the wall-clock check, the fuel test
against the block's static cost, handing the machine to the reference loop
when fuel could run out inside the block, and block counting when stats
are on — then calls the function and follows the successor.  The
superscalar engine is described at its own section below.

Exactness contract: every observable — PRINT stream, ``instr_count``,
``nop_count``, ``branch_count``, ``mispredict_count``, trap identity
(kind/addr/uid), fuel exhaustion and per-block stats counters — is
byte-identical to the interpreters.  ``tests/hw/test_translate.py`` pins
this on every workload.

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
    "TranslationUnit", "functional_unit", "run_functional_translated",
    "superscalar_unit", "run_superscalar_translated",
]

_M32 = 0xFFFFFFFF
_MEM_BASE = 0x1000  # Memory.base (DATA_BASE); pinned by tests

# A functional block's function returns its successor:
#   idx                  goto block ``idx`` in the same procedure
#   (target, resume)     JAL to procedure ``target`` (a name); the return
#                        frame is (current procedure, ``resume``)
#   (addr, uid)          JR to token ``addr`` (an int); ``uid`` is the
#                        trap identity for a bad token
#   None                 halt / program end


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

    ``sources`` maps each generated function's name to its source, and
    ``code`` memoizes its compiled code object once :meth:`code_of` has
    compiled it; ``code`` pickles marshalled, so it is only valid on an
    interpreter with the same bytecode magic.  ``fns`` maps procedure name
    to the tuple of per-block function names, and ``tables`` a function
    name to its literal side tables (trap-site corrections, table-called
    opcode names).  ``costs`` (functional) and ``ctl`` (superscalar) are
    each engine's per-block static data.  Runtime binding happens in
    :func:`_bind`.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.sources: dict[str, str] = {}
        self.code: dict = {}
        self.tables: dict[str, dict] = {}
        self.fns: dict[str, tuple] = {}
        self.translated_blocks = 0
        #: highest register index the generated code touches — a staleness
        #: tripwire against in-place IR mutation under a cached unit
        self.max_reg = 0
        #: functional only: procedure -> per-block fuel cost
        self.costs: dict[str, tuple] = {}
        #: superscalar only: procedure -> {block idx -> ctl spec}
        self.ctl: dict[str, dict] = {}

    def code_of(self, fname: str):
        """The code object defining ``fname``, compiled on first request."""
        code = self.code.get(fname)
        if code is None:
            code = self.code[fname] = compile(self.sources[fname],
                                              "<repro-translate>", "exec")
        return code

    def compile_all(self) -> None:
        """Compile every function into the memo."""
        for fname in self.sources:
            self.code_of(fname)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["code"] = marshal.dumps(self.code)
        return state

    def __setstate__(self, state):
        state["code"] = marshal.loads(state["code"])
        self.__dict__.update(state)


def _bind(unit: TranslationUnit, ns: dict) -> dict:
    """Per procedure, the unit's function table bound to ``ns``.

    The unit's literal side tables go into ``ns``.  Every slot starts as a
    stub.  On its first call the stub execs the function's code (compiled
    once per unit) into ``ns``, so default arguments such as
    ``regs=REGS`` bind to the live namespace, and replaces itself with the
    real function.
    """
    for fname, tab in unit.tables.items():
        for tag, vals in tab.items():
            ns[f"{tag}_{fname}"] = (
                tuple(ALU_FUNCS[Opcode[n]] for n in vals) if tag == "FB"
                else vals)

    def stub(table, k, fname):
        def first_call(*args):
            exec(unit.code_of(fname), ns)
            fn = table[k] = ns[fname]
            return fn(*args)
        return first_call

    tables = {}
    for pname, names in unit.fns.items():
        table = tables[pname] = list(names)
        for k, fname in enumerate(names):
            table[k] = stub(table, k, fname)
    return tables


def _rx(reg) -> int:
    return -1 if reg is None or reg.is_zero else reg.index


class _Body:
    """One generated function's body: its lines, trap sites and
    table-called ALU ops.

    Both engines emit through it, so a trap-site table, a memory access
    check, a PRINT and a table call are written once.  Lines sit at the
    indent of a ``try:`` block; :meth:`finish` wraps them in one, or
    dedents them when nothing can trap.
    """

    def __init__(self, mem_size: int) -> None:
        self.lines: list[str] = []
        self.limw = mem_size - 4
        self.limb = mem_size - 1
        #: per trap site: the counter corrections its ``except`` tail
        #: charges (see :meth:`finish`), then its architectural uid
        self.sites: list[tuple] = []
        self.ip_lines: list[int] = []  # indices of the "_ip = n" lines
        self.fb_ops: list[str] = []
        self.tabs: dict[str, tuple] = {}

    def add(self, line: str) -> None:
        self.lines.append("        " + line)

    def site(self, instr, *corrections: int) -> None:
        """Make ``instr`` a trap site; ``_ip`` selects its corrections."""
        self.sites.append((*corrections, instr.origin or instr.uid))
        self.ip_lines.append(len(self.lines))
        self.add(f"_ip = {len(self.sites) - 1}")

    def print_(self, a: str) -> None:
        self.add("out.append(0)" if a == "0" else
                 f"out.append({a} - 4294967296 if {a} >= 2147483648 "
                 f"else {a})")

    def address(self, base: str, off: int, size: int) -> None:
        """Compute ``_a`` and open its bounds (for a word, also alignment)
        check; the caller adds the check's indented body."""
        self.add(f"_a = ({base} + {off}) & {_M32}" if off else f"_a = {base}")
        if size == 4:
            self.add(f"if _a < {_MEM_BASE} or _a > {self.limw} or _a & 3:")
        else:
            self.add(f"if _a < {_MEM_BASE} or _a > {self.limb}:")

    def checked(self, base: str, off: int, size: int,
                effect: list[str]) -> None:
        """A sequential access: ``MC`` raises the trap for a bad ``_a``,
        else ``effect`` runs."""
        self.address(base, off, size)
        self.add(f"    MC(_a, {size})")
        for ln in effect:
            self.add(ln)

    def table_call(self, op, a: str, b: str, imm: int) -> str:
        """A call through ``op``'s ALU table function."""
        self.fb_ops.append(op.name)
        return f"FB[{len(self.fb_ops) - 1}]({a}, {b}, {imm})"

    def _term(self, tag: str, vals: list):
        if len(set(vals)) == 1:
            return vals[0]
        self.tabs[tag] = tuple(vals)
        return f"{tag}[_ip]"

    def finish(self, save: list[str], counters) -> list[str]:
        """The body in ``try:`` with the ``except`` tail every trap site
        shares, or dedented when nothing can trap.

        The tail runs ``save``, adds to each ``(tag, target)`` of
        ``counters`` the trapping site's correction, stamps the trap with
        the site's uid and re-raises.  A correction that differs between
        sites becomes the literal table ``tag`` indexed by ``_ip``; when
        none does, the ``_ip`` lines are dropped.
        """
        if not self.sites:
            return [ln[4:] for ln in self.lines]
        tail = ["    except TRAP as _t:"] + ["        " + ln for ln in save]
        for pos, (tag, target) in enumerate(counters):
            v = self._term(tag, [s[pos] for s in self.sites])
            if v != 0:
                tail.append(f"        {target} += {v}")
        tu = self._term("TU", [s[-1] for s in self.sites])
        tail += [f"        _t.instr_uid = {tu}", "        res.trap = _t",
                 "        raise"]
        if not self.tabs:
            for i in reversed(self.ip_lines):
                self.lines.pop(i)
        return ["    try:"] + self.lines + tail

    def params(self, fname: str, tables_out: dict) -> list[str]:
        """Default arguments binding this function's literal tables, which
        go into ``tables_out``; call after :meth:`finish`."""
        tab = dict(self.tabs)
        if self.fb_ops:
            tab["FB"] = tuple(self.fb_ops)
        if tab:
            tables_out[fname] = tab
        params = [f"FB=FB_{fname}"] if self.fb_ops else []
        return params + [f"{tag}={tag}_{fname}" for tag in self.tabs]


def _loaded(op, raw: str, put) -> list[str]:
    """Lines that write the value ``raw`` loaded by ``op`` through
    ``put``, sign-extending a signed byte."""
    if op is Opcode.LB:
        return [f"_v = {raw}", put("_v + 4294967040 if _v >= 128 else _v")]
    return [put(raw)]


def _stored(op, v: str) -> str:
    """The sequential store of ``v`` at ``_a``."""
    if op is Opcode.SW:
        return f"W[_a >> 2] = {v}"
    return f"M[_a] = {v} & 255" if v != "0" else "M[_a] = 0"


# =========================================================================
# Functional engine
# =========================================================================

def _emit_functional_fn(proc, k, index, mem_size, fname,
                        tables_out) -> tuple[str, int]:
    """Emit the generated function for one basic block; returns its source
    and the highest register index it touches (-1 for none)."""
    block = proc.blocks[k]
    out = _Body(mem_size)
    top = -1  # highest register index touched

    def reg(r):
        nonlocal top
        i = _rx(r)
        if i < 0:
            return None
        top = max(top, i)
        return f"regs[{i}]"

    def src(instr, n) -> str:
        """Operand ``n`` of ``instr``: a register read, or 0."""
        return (reg(instr.srcs[n]) if n < len(instr.srcs) else None) or "0"

    nn = nnop = 0  # non-NOP instructions and NOPs so far
    for instr in block.body:
        op = instr.op
        if op is Opcode.NOP:
            nnop += 1
            continue
        nn += 1
        if op is Opcode.PRINT:
            out.print_(src(instr, 0))
            continue
        if op.is_load or op.is_store:
            size = 4 if op is Opcode.LW or op is Opcode.SW else 1
            if op.is_load:
                base = src(instr, 0)
                d = reg(instr.dst)
                effect = [] if d is None else _loaded(
                    op, "W[_a >> 2]" if size == 4 else "M[_a]",
                    lambda x: f"{d} = {x}")
            else:
                effect = [_stored(op, src(instr, 0))]
                base = src(instr, 1)
            out.site(instr, nn, nnop)
            out.checked(base, instr.imm or 0, size, effect)
            continue
        if ALU_FUNCS.get(op) is None:
            raise ValueError(f"cannot translate {instr}")
        a, b = src(instr, 0), src(instr, 1)
        imm = instr.imm or 0
        d = reg(instr.dst)
        expr = alu_expr(op, a, b, imm)
        if expr is not None:
            if d is not None:
                out.add(f"{d} = {expr}")
            # pure expression with a zero destination: no effect at all
            continue
        call = out.table_call(op, a, b, imm)
        out.site(instr, nn, nnop)
        out.add(f"{d} = {call}" if d is not None else call)

    term = block.terminator
    tail: list[str] = []
    if nn + (term is not None):
        tail.append(f"res.instr_count += {nn + (term is not None)}")
    if nnop:
        tail.append(f"res.nop_count += {nnop}")
    if term is None:
        tail.append(f"return {k + 1}" if k + 1 < len(proc.blocks)
                    else "return None")
    elif term.op.is_cond_branch:
        a, b = src(term, 0), src(term, 1)
        tail.append("res.branch_count += 1")
        tail.append(f"if {branch_expr(term.op, a, b)}:")
        if term.predict_taken is False:
            tail.append("    res.mispredict_count += 1")
        tail.append(f"    return {index[term.target]}")
        if term.predict_taken is True:
            tail.append("res.mispredict_count += 1")
        tail.append(f"return {k + 1}")
    elif term.op is Opcode.J:
        tail.append(f"return {index[term.target]}")
    elif term.op is Opcode.JAL:
        tail.append(f"return ({term.target!r}, {k + 1})")
    elif term.op is Opcode.JR:
        tail.append(f"return ({src(term, 0)}, {term.origin or term.uid})")
    elif term.op is Opcode.HALT:
        tail.append("return None")
    else:
        raise ValueError(f"cannot translate terminator {term}")

    body = out.finish([], (("TA", "res.instr_count"),
                           ("TN", "res.nop_count")))
    params = ["regs=REGS", "M=M", "W=W", "MC=MC", "out=OUT", "res=RES"]
    params += out.params(fname, tables_out)
    head = [f"def {fname}({', '.join(params)}):"]
    return "\n".join(head + body + ["    " + ln for ln in tail]), top


def build_functional_unit(program) -> TranslationUnit:
    """Translate every basic block of ``program`` into its own function."""
    unit = TranslationUnit("functional")
    for pord, (pname, proc) in enumerate(program.procedures.items()):
        index = {b.label: i for i, b in enumerate(proc.blocks)}
        names = tuple(f"S{pord}_{k}" for k in range(len(proc.blocks)))
        for k, fname in enumerate(names):
            unit.sources[fname], top = _emit_functional_fn(
                proc, k, index, program.mem_size, fname, unit.tables)
            unit.max_reg = max(unit.max_reg, top)
        unit.fns[pname] = names
        unit.costs[pname] = tuple(
            len(b.body) + (b.terminator is not None) for b in proc.blocks)
        unit.translated_blocks += len(names)
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


def run_functional_translated(sim, entry_name: str, fuel: int, deadline):
    """Drive a FunctionalSim through its translated blocks.

    Per block, in ``FunctionalSim._run_fast``'s order: the wall-clock
    check; the fuel test against the block's static cost, handing the
    machine to the reference loop when fuel could run out inside the
    block; block counting when stats are on; then the block's function,
    and the successor it returns.
    """
    from repro.hw.functional import EXIT_TOKEN, _RA_INDEX, _TOKEN_STRIDE

    unit = functional_unit(sim.program)
    mem = sim.mem._mem
    fnmap = _bind(unit, {
        "REGS": sim.regs, "M": mem, "W": _word_view(mem),
        "MC": sim.mem.check, "OUT": sim.result.output, "RES": sim.result,
        "TRAP": Trap,
    })
    sim.translate_counters = {"translated_blocks": unit.translated_blocks}
    result = sim.result
    regs = sim.regs
    tokens = sim._tokens
    costs = unit.costs
    monotonic = time.monotonic
    st = sim._stats_hot
    if st is not None:
        execs = st.block_execs
        keys = {pname: [(pname, b.label) for b in proc.blocks]
                for pname, proc in sim.program.procedures.items()}

    proc = entry_name
    fns, cost = fnmap[proc], costs[proc]
    idx = 0
    while True:
        if deadline is not None and monotonic() > deadline:
            raise WallClockExceeded(
                f"exceeded {sim.wall_clock_limit}s wall clock "
                f"({result.instr_count:,} instructions executed)")
        c = cost[idx]
        if fuel < c:
            return sim._interp(proc, idx, fuel, deadline)
        fuel -= c
        if st is not None:
            key = keys[proc][idx]
            execs[key] = execs.get(key, 0) + 1
        nxt = fns[idx]()
        if type(nxt) is int:
            idx = nxt
            continue
        if nxt is None:
            return result
        a, b = nxt
        if type(a) is str:  # JAL
            token = sim._next_token
            sim._next_token += _TOKEN_STRIDE
            tokens[token] = (proc, b)
            regs[_RA_INDEX] = token
            proc, idx = a, 0
        elif a == EXIT_TOKEN:
            return result
        else:
            frame = tokens.get(a)
            if frame is None:
                trap = Trap(TrapKind.ADDRESS_ERROR, addr=a, instr_uid=b)
                result.trap = trap
                raise trap
            proc, idx = frame
        fns, cost = fnmap[proc], costs[proc]


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
    out = _Body(mem_size)
    uses: set[str] = set()  # boosting-hardware bindings the body calls
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

    def defer(instr) -> str:
        # a boosted fault goes to the shift buffer at its level and the
        # slot writes nothing, as in ``SuperscalarSim._trap``
        uses.add("XR")
        return ("except TRAP as _e: _e.instr_uid = "
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
            out.add(f"_r = RG({i}, 0)")
            out.add("if _r > now: now = _r")
        # phase 1: all operands read before any result is written; a slot
        # boosted to level L sees the shadow value visible at L, else the
        # sequential register
        reads = sorted({(i.boost, _rx(s)) for i in entries for s in i.srcs
                        if _rx(s) >= 0})
        seq = [r for lvl, r in reads if not lvl]
        if seq:
            out.add("; ".join(f"_t{r} = regs[{r}]" for r in seq))
        for lvl, r in reads:
            if lvl:
                uses.add("SHR")
                out.add(f"_b{lvl}_{r} = SHR({r}, {lvl})")
                out.add(f"if _b{lvl}_{r} is None: _b{lvl}_{r} = regs[{r}]")
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
                    out.add(f"SIM._ctl = CT if {branch_expr(op, a, b)} "
                            "else CF")
                    ctl_kind = "cond"
                elif op is Opcode.J:
                    out.add("SIM._ctl = CJ")
                    ctl_kind = "jump"
                elif op is Opcode.JAL:
                    out.add("_k = SIM._next_token")
                    out.add("SIM._next_token += 16")
                    out.add("SIM._tokens[_k] = FR")
                    out.add("regs[31] = _k")
                    out.add("RD[31] = now + 1")
                    out.add("SIM._ctl = CA")
                    ctl_kind = "call"
                elif op is Opcode.JR:
                    a = operand(instr.srcs[0], 0) if instr.srcs else "0"
                    out.add(f'SIM._ctl = ("return", {a})')
                    ctl_kind = "return"
                elif op is Opcode.HALT:
                    out.add("SIM._ctl = CH")
                    ctl_kind = "halt"
                else:
                    raise ValueError(f"cannot translate terminator {instr}")
                continue
            if op is Opcode.PRINT:
                out.print_(operand(instr.srcs[0], 0) if instr.srcs else "0")
                continue
            d = _rx(instr.dst)
            if op.is_load or op.is_store:
                size = 4 if op is Opcode.LW or op is Opcode.SW else 1
                if op.is_load:
                    base = operand(instr.srcs[0], lvl)
                    raw = "W[_a >> 2]" if size == 4 else "M[_a]"
                    if lvl and has_storebuf:
                        uses.update(("SBL", "MEM"))
                        raw = (f"int.from_bytes(SBL(MEM, _a, 4, {lvl}), "
                               "'little')" if size == 4
                               else f"SBL(MEM, _a, 1, {lvl})[0]")
                    effect = [] if d < 0 else _loaded(
                        op, raw, lambda x: write(instr, d, x))
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
                                if size == 4 else f"bytes(({v} & 255,))")
                        effect = [f"SBS({lvl}, _a, {data})"]
                    else:
                        effect = [_stored(op, v)]
                off = instr.imm or 0
                if not lvl:
                    out.site(instr, nn, nnop, nb)
                    out.checked(base, off, size, effect)
                    continue
                out.address(base, off, size)
                out.add(f"    try: MC(_a, {size})")
                out.add("    " + defer(instr))
                if effect:
                    out.add("else:")
                    for ln in effect:
                        out.add("    " + ln)
                continue
            if ALU_FUNCS.get(op) is None:
                raise ValueError(f"cannot translate {instr}")
            a = operand(instr.srcs[0], lvl) if instr.srcs else "0"
            b = operand(instr.srcs[1], lvl) if len(instr.srcs) > 1 else "0"
            imm = instr.imm or 0
            expr = alu_expr(op, a, b, imm)
            if expr is not None:
                if d >= 0:
                    out.add(write(instr, d, expr))
                # pure expression with a zero destination: no effect at all
                continue
            call = out.table_call(op, a, b, imm)
            if lvl:
                out.add(f"try: _v = {call}" if d >= 0 else f"try: {call}")
                out.add(defer(instr))
                if d >= 0:
                    out.add("else: " + write(instr, d, "_v"))
            else:
                out.site(instr, nn, nnop, nb)
                out.add(write(instr, d, call) if d >= 0 else call)
        out.add("now += 1")

    body = out.finish(["SIM.now = now"], (
        ("TA", "res.instr_count"), ("TN", "res.nop_count"),
        ("TB", "SIM.boosted_executed")))
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
    params += out.params(fname, tables_out)
    return "\n".join([f"def {fname}({', '.join(params)}):"] + body)


def build_superscalar_unit(sched) -> TranslationUnit:
    """Translate every block of a scheduled program; raises ``ValueError``
    when some slot cannot be expressed."""
    unit = TranslationUnit("superscalar")
    model = sched.model
    has_storebuf = model.max_level > 0 and model.boost_stores
    for pord, (pname, proc) in enumerate(sched.procedures.items()):
        names = []
        pctl = {}
        for k, block in enumerate(proc.blocks):
            fname = f"B{pord}_{k}"
            unit.sources[fname] = _emit_superscalar_fn(
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
    """Bind the unit to a live simulator's state; returns the
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
    return _bind(unit, ns)


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
    sim.translate_counters = {"translated_blocks": unit.translated_blocks}
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
