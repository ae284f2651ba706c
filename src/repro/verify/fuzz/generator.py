"""Seeded, grammar-driven Minic program generator.

Every generated program is, by construction:

* **valid** — it uses only the grammar the real front end accepts, declares
  every name exactly once (Minic is C89-style about locals), and keeps
  shifts, divisors, and indices inside defined ranges;
* **terminating** — every loop is counted: the bound is a literal, the
  counter is *protected* (the statement generator never emits a write to
  it), and the increment is the unconditional last statement of the body.
  ``continue`` is only emitted inside ``for`` loops, whose step clause runs
  regardless; recursion counts down a parameter to a base case.
* **adversarial** — conditions are tuned so branch taken-rates span the
  paper's 72–98% predictability spread (Table 1); div/rem and raw
  loadw/storew are emitted deliberately (they are the fault-plan trap
  candidates and the boosting-recovery stress); stores and loads through
  both ``a[i]`` and ``loadw(addr(a) + 4*i)`` alias the same arrays, which
  is exactly the store-to-load edge memory disambiguation must respect.

Determinism: the program text, train inputs, and eval inputs are a pure
function of ``(seed, GenConfig)``.  The RNG is seeded from a string (CPython
hashes it with SHA-512, independent of ``PYTHONHASHSEED``), no container
with nondeterministic iteration order is ever iterated, and nothing reads
the clock — so generation is byte-identical across processes and hosts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Union

InputSet = dict[str, Union[list[int], bytes, int]]

#: size profiles: (statement budget for main, loop-iteration range,
#: input-array element count [power of two], helper-function budget)
SIZE_PROFILES: dict[str, dict] = {
    "small": dict(stmts=14, iters=(3, 10), arr_pow2=4, helpers=1),
    "medium": dict(stmts=26, iters=(6, 20), arr_pow2=5, helpers=2),
    "large": dict(stmts=42, iters=(12, 40), arr_pow2=6, helpers=2),
}


@dataclass(frozen=True)
class GenConfig:
    """Grammar knobs.  The defaults mirror the paper's workload shape."""

    size: str = "small"
    #: branch taken-probability targets span [pred_lo, pred_hi] — the
    #: Table-1 predictability spread (72–98%); each branch independently
    #: lands near one end or the other of its drawn probability
    pred_lo: float = 0.72
    pred_hi: float = 0.98
    #: deepest loop nest the generator will attempt
    max_loop_depth: int = 3
    #: deepest expression tree
    max_expr_depth: int = 3
    #: number of word arrays shared by array-syntax and raw-address access
    arrays: int = 3
    #: probability that a memory statement uses raw loadw/storew aliasing
    #: instead of ``a[i]`` syntax
    raw_mem_prob: float = 0.35
    #: probability a generated binary operator is div/rem (trap candidates)
    div_prob: float = 0.18
    #: probability main calls a helper function at an eligible site
    call_prob: float = 0.4

    def key(self) -> str:
        return (f"{self.size}:{self.pred_lo}:{self.pred_hi}:"
                f"{self.max_loop_depth}:{self.max_expr_depth}:{self.arrays}:"
                f"{self.raw_mem_prob}:{self.div_prob}:{self.call_prob}")


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated workload: source plus split train/eval inputs."""

    name: str
    seed: int
    source: str
    train: InputSet
    eval: InputSet


# --------------------------------------------------------------------- writer
class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# ------------------------------------------------------------------ generator
class _Gen:
    def __init__(self, seed: int, config: GenConfig) -> None:
        profile = SIZE_PROFILES[config.size]
        self.rng = random.Random(f"repro-fuzz/{seed}/{config.key()}")
        self.config = config
        self.stmt_budget = profile["stmts"]
        self.iter_lo, self.iter_hi = profile["iters"]
        self.arr_n = 1 << profile["arr_pow2"]
        self.helper_budget = profile["helpers"]
        self.w = _Writer()
        #: scalar locals readable at the current point
        self.scalars: list[str] = []
        #: names the statement generator must never write (loop counters)
        self.protected: set[str] = set()
        self.loop_depth = 0
        self.in_for = False
        self.counter = 0
        self.helpers: list[tuple[str, int]] = []   # (name, arity)
        self.recursive: list[str] = []

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -------------------------------------------------------------- top level
    def generate(self) -> str:
        w = self.w
        rng = self.rng
        n = self.arr_n
        for i in range(self.config.arrays):
            if i == 0:
                # input array: zero-initialised, patched by train/eval
                w.emit(f"global inp0[{n}];")
            else:
                init = ", ".join(str(rng.randint(-40, 90))
                                 for _ in range(n))
                w.emit(f"global arr{i}[{n}] = {{ {init} }};")
        w.emit("global gsum = 0;")
        w.emit("")
        self.gen_helpers()
        self.gen_main()
        return w.text()

    def gen_helpers(self) -> None:
        rng = self.rng
        for h in range(self.helper_budget):
            name = f"fn{h}"
            arity = rng.randint(1, 3)
            params = [f"p{i}" for i in range(arity)]
            self.w.emit(f"func {name}({', '.join(params)}) {{")
            self.w.depth += 1
            saved = (self.scalars, self.protected, self.stmt_budget)
            self.scalars = list(params)
            self.protected = set(params)
            self.stmt_budget = rng.randint(2, 5)
            if rng.random() < 0.5:
                # bounded recursion: count the first parameter down
                self.recursive.append(name)
                self.w.emit(f"if (p0 <= 0) {{ return {rng.randint(0, 9)}; }}")
                body_expr = self.expr(1)
                args = ["p0 - 1"] + [self.expr(1) for _ in params[1:]]
                self.w.emit(f"return ({body_expr}) + "
                            f"{name}({', '.join(args)});")
            else:
                acc = "p0"
                while self.stmt_budget > 0:
                    self.stmt()
                self.w.emit(f"return {acc} + ({self.expr(1)});")
            self.scalars, self.protected, self.stmt_budget = saved
            self.w.depth -= 1
            self.w.emit("}")
            self.w.emit("")
            self.helpers.append((name, arity))

    def gen_main(self) -> None:
        self.w.emit("func main() {")
        self.w.depth += 1
        self.w.emit("var acc = 1;")
        self.scalars = ["acc"]
        for _ in range(self.rng.randint(1, 3)):
            name = self.fresh("v")
            self.w.emit(f"var {name} = {self.rng.randint(-30, 70)};")
            self.scalars.append(name)
        while self.stmt_budget > 0:
            self.stmt()
        self.w.emit("print(acc);")
        self.w.emit("print(gsum);")
        self.w.depth -= 1
        self.w.emit("}")

    # ------------------------------------------------------------- statements
    def stmt(self) -> None:
        rng = self.rng
        self.stmt_budget -= 1
        roll = rng.random()
        can_loop = self.loop_depth < self.config.max_loop_depth
        if roll < 0.26 and can_loop:
            self.loop()
        elif roll < 0.48:
            self.branch()
        elif roll < 0.62:
            self.mem_store()
        elif roll < 0.70:
            name = self.fresh("v")
            self.w.emit(f"var {name} = {self.expr()};")
            self.scalars.append(name)
        elif roll < 0.78 and self.loop_depth:
            self.w.emit(f"print({self.pick_scalar()} & 1023);")
        elif roll < 0.84 and self.loop_depth and rng.random() < 0.4:
            # rare, guarded early exit so traces keep their off-ramps
            kind = "break" if (not self.in_for or rng.random() < 0.5) \
                else "continue"
            self.w.emit(f"if ({self.cond(rare=True)}) {{ {kind}; }}")
            self.stmt_budget += 1   # a guarded exit barely spends budget
        else:
            self.assign()

    def assign(self) -> None:
        target = self.pick_writable()
        if target is None:
            name = self.fresh("v")
            self.w.emit(f"var {name} = {self.expr()};")
            self.scalars.append(name)
            return
        self.w.emit(f"{target} = {self.expr()};")

    def loop(self) -> None:
        rng = self.rng
        counter = self.fresh("i")
        bound = rng.randint(self.iter_lo, self.iter_hi)
        body_budget = min(self.stmt_budget, rng.randint(2, 6))
        self.stmt_budget -= body_budget
        as_for = rng.random() < 0.5
        if as_for:
            self.w.emit(f"for (var {counter} = 0; {counter} < {bound}; "
                        f"{counter} = {counter} + 1) {{")
        else:
            self.w.emit(f"var {counter} = 0;")
            self.w.emit(f"while ({counter} < {bound}) {{")
        self.w.depth += 1
        self.scalars.append(counter)
        self.protected.add(counter)
        saved_budget, saved_for = self.stmt_budget, self.in_for
        saved_scalars = len(self.scalars)
        self.stmt_budget, self.in_for = body_budget, as_for
        self.loop_depth += 1
        while self.stmt_budget > 0:
            self.stmt()
        self.loop_depth -= 1
        self.stmt_budget, self.in_for = saved_budget, saved_for
        # locals declared inside the body go out of reach: Minic names are
        # function-scoped but a sibling block must not re-read a name whose
        # declaration may not have executed on this path
        del self.scalars[saved_scalars:]
        if not as_for:
            self.w.emit(f"{counter} = {counter} + 1;")
        self.w.depth -= 1
        self.w.emit("}")
        self.scalars.remove(counter)
        self.protected.discard(counter)

    def branch(self) -> None:
        rng = self.rng
        then_budget = min(self.stmt_budget, rng.randint(1, 4))
        self.stmt_budget -= then_budget
        self.w.emit(f"if ({self.cond()}) {{")
        self.w.depth += 1
        saved_budget = self.stmt_budget
        saved_scalars = len(self.scalars)
        self.stmt_budget = then_budget
        while self.stmt_budget > 0:
            self.stmt()
        self.stmt_budget = saved_budget
        del self.scalars[saved_scalars:]
        self.w.depth -= 1
        if rng.random() < 0.55:
            self.w.emit("} else {")
            self.w.depth += 1
            else_budget = min(self.stmt_budget, rng.randint(1, 3))
            self.stmt_budget -= else_budget
            saved_budget = self.stmt_budget
            saved_scalars = len(self.scalars)
            self.stmt_budget = else_budget
            while self.stmt_budget > 0:
                self.stmt()
            self.stmt_budget = saved_budget
            del self.scalars[saved_scalars:]
            self.w.depth -= 1
        self.w.emit("}")

    def mem_store(self) -> None:
        """A store that a nearby load may alias — through either syntax."""
        rng = self.rng
        arr = self.pick_array()
        idx = self.index_expr()
        value = self.expr(1)
        if rng.random() < self.config.raw_mem_prob:
            self.w.emit(f"storew(addr({arr}) + 4 * ({idx}), {value});")
        else:
            self.w.emit(f"{arr}[{idx}] = {value};")
        if rng.random() < 0.6:
            # immediately read the same array back (maybe the same slot):
            # the store-to-load pattern memory disambiguation must respect
            back = self.index_expr()
            if rng.random() < self.config.raw_mem_prob:
                load = f"loadw(addr({arr}) + 4 * ({back}))"
            else:
                load = f"{arr}[{back}]"
            target = self.pick_writable() or "gsum"
            self.w.emit(f"{target} = {target} + {load};")

    # ------------------------------------------------------------ expressions
    def pick_scalar(self) -> str:
        if not self.scalars:
            return "gsum"
        return self.rng.choice(self.scalars)

    def pick_writable(self):
        pool = [s for s in self.scalars if s not in self.protected]
        pool.append("gsum")
        return self.rng.choice(pool)

    def pick_array(self) -> str:
        i = self.rng.randrange(self.config.arrays)
        return "inp0" if i == 0 else f"arr{i}"

    def index_expr(self) -> str:
        """An always-in-bounds array index: ``& (n-1)`` of anything is
        non-negative and below the power-of-two array size."""
        return f"({self.expr(1)}) & {self.arr_n - 1}"

    def cond(self, rare: bool = False) -> str:
        """A condition whose taken-rate is tuned, not accidental.

        ``(x * A + B) & 255`` churns the low bits of a live value into a
        roughly uniform byte; comparing against ``round(256*p)`` yields a
        branch taken with probability ≈ p.  Drawing p from the configured
        [pred_lo, pred_hi] band — sometimes inverted — reproduces the
        paper's 72–98% predictability spread.  ``rare`` conditions guard
        break/continue and stay unlikely so loops keep most of their trip
        count.
        """
        rng = self.rng
        if rare:
            p = rng.uniform(0.04, 0.12)
        else:
            p = rng.uniform(self.config.pred_lo, self.config.pred_hi)
            if rng.random() < 0.5:
                p = 1.0 - p
        threshold = max(1, min(255, round(256 * p)))
        x = self.pick_scalar()
        a = rng.choice((29, 37, 53, 71, 89))
        b = rng.randint(0, 250)
        lhs = f"(({x} * {a} + {b}) & 255)"
        simple = f"{lhs} < {threshold}"
        if rng.random() < 0.3:
            # compound condition: short-circuit && / || is real control flow
            other = f"({self.pick_scalar()} & {rng.choice((1, 3, 7))}) " \
                    f"!= {rng.randint(0, 3)}"
            op = "&&" if rng.random() < 0.5 else "||"
            return f"{simple} {op} {other}"
        return simple

    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= self.config.max_expr_depth or rng.random() < 0.30:
            return self.leaf(depth)
        if rng.random() < self.config.div_prob:
            # div/rem are the excepting instructions fault plans target;
            # ``(x & 15) + k`` keeps the divisor in [k, 15+k], never zero
            num = self.expr(depth + 1)
            den = f"(({self.leaf(depth)}) & 15) + {rng.randint(1, 7)}"
            op = "/" if rng.random() < 0.5 else "%"
            return f"({num}) {op} ({den})"
        op = rng.choice(("+", "-", "*", "&", "|", "^", "+", "-"))
        lhs, rhs = self.expr(depth + 1), self.expr(depth + 1)
        if rng.random() < 0.12:
            shift = rng.randint(1, 7)
            lhs = f"({lhs} >> {shift})" if rng.random() < 0.5 \
                else f"({lhs} << {shift})"
        return f"({lhs}) {op} ({rhs})"

    def leaf(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.34:
            return self.pick_scalar()
        if roll < 0.44:
            return str(rng.randint(-100, 200))
        if roll < 0.70:
            arr = self.pick_array()
            idx = f"({self.pick_scalar()}) & {self.arr_n - 1}"
            if rng.random() < self.config.raw_mem_prob:
                return f"loadw(addr({arr}) + 4 * ({idx}))"
            return f"{arr}[{idx}]"
        if roll < 0.80 and self.helpers and depth < 2 \
                and rng.random() < self.config.call_prob:
            name, arity = rng.choice(self.helpers)
            args = [f"({self.pick_scalar()}) & 7"]
            args += [self.pick_scalar() for _ in range(arity - 1)]
            return f"{name}({', '.join(args)})"
        if roll < 0.9:
            return f"~({self.pick_scalar()})"
        return f"-({self.pick_scalar()})"


def _input_values(rng: random.Random, n: int) -> list[int]:
    """A skewed value distribution: mostly small positives (predictable
    data-dependent branches), a sprinkling of negatives and spikes."""
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.70:
            out.append(rng.randint(0, 60))
        elif roll < 0.88:
            out.append(rng.randint(-50, -1))
        else:
            out.append(rng.randint(1000, 100_000))
    return out


def generate_program(seed: int,
                     config: GenConfig = GenConfig()) -> GeneratedProgram:
    """The pure function ``(seed, config) -> program`` everything rides on."""
    gen = _Gen(seed, config)
    source = gen.generate()
    n = gen.arr_n
    train_rng = random.Random(f"repro-fuzz-train/{seed}/{config.key()}")
    eval_rng = random.Random(f"repro-fuzz-eval/{seed}/{config.key()}")
    train: InputSet = {"inp0": _input_values(train_rng, n)}
    eval_: InputSet = {"inp0": _input_values(eval_rng, n)}
    return GeneratedProgram(name=f"fuzz-{seed:06d}", seed=seed,
                            source=source, train=train, eval=eval_)


__all__ = ["GenConfig", "GeneratedProgram", "SIZE_PROFILES",
           "generate_program"]
