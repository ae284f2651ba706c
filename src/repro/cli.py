"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE`` — compile a Minic source file and print the scheduled
  program (cycle rows, boost labels, recovery code);
* ``run FILE`` — compile and simulate, printing the program output and the
  cycle statistics;
* ``bench [WORKLOAD ...]`` — regenerate the paper's tables and figures;
* ``verify`` — fault-injection differential verification of the boosting
  machinery (see ``docs/fault-injection.md``);
* ``fuzz`` — generative differential fuzzing: seeded Minic programs through
  the cross-backend × cross-machine oracle, with automatic divergence
  reduction into a triage corpus (see ``docs/fuzzing.md``);
* ``workloads`` — list the Table-1 workload suite;
* ``models`` — list the boosting hardware models and their parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Optional

from repro.frontend import CodegenError, LexError, ParseError
from repro.harness.cache import CODE_VERSION, CompileCache
from repro.hw.backend import BACKENDS
from repro.harness.experiments import BENCH_CONFIG_KEYS, Lab
from repro.harness.fsutil import atomic_write_json
from repro.harness.pipeline import CompileConfig, compile_minic
from repro.harness.report import bench_json, render_all, render_stats
from repro.harness.resilience import (
    CampaignInterrupted, ChaosConfig, Journal, JournalError,
    SupervisionPolicy, graceful_signals,
)
from repro.sched.boostmodel import ALL_MODELS, BY_NAME
from repro.sched.machine import SCALAR, SUPERSCALAR
from repro.workloads import all_workloads


# ------------------------------------------------------- argument validation
# Validators run at parse time so a bad value dies with exit code 2 and a
# one-line message naming the flag — not a traceback (or worse, a silently
# absurd campaign) minutes into a run.

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be at least 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}") from None
    if not value > 0 or value != value:  # rejects 0, negatives, and NaN
        raise argparse.ArgumentTypeError(
            f"must be greater than 0, got {text}")
    return value


def _build_config(args: argparse.Namespace) -> CompileConfig:
    machine = SCALAR if args.machine == "scalar" else SUPERSCALAR
    model = BY_NAME[args.model]
    return CompileConfig(
        machine=machine,
        model=model,
        scheduler=args.scheduler,
        regalloc=args.regalloc,
        unroll=args.unroll,
    )


def _load_inputs(spec: Optional[str]) -> Optional[dict]:
    """Inputs come as JSON: {"name": [ints] | int | "bytes-as-string"}."""
    if spec is None:
        return None
    raw = json.loads(spec)
    return {k: (v.encode() if isinstance(v, str) else v)
            for k, v in raw.items()}


def _read_source(path: str) -> str:
    """Read a source file, closing the handle even on a decode error."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _source_or_exit(path: str) -> Optional[str]:
    try:
        return _read_source(path)
    except OSError as err:
        reason = err.strerror or str(err)
        print(f"repro: cannot read {path}: {reason}", file=sys.stderr)
        return None


def _compile_or_exit(source: str, path: str, config: CompileConfig, train):
    """Compile, reporting Minic front-end errors as a one-line message
    (matching the missing-file convention) instead of a traceback."""
    try:
        return compile_minic(source, config, train)
    except (LexError, ParseError, CodegenError) as err:
        print(f"repro: {path}: {err}", file=sys.stderr)
        return None


def _make_cache(args: argparse.Namespace) -> Optional[CompileCache]:
    if args.no_cache:
        return None
    return CompileCache(args.cache_dir)


#: fallback wall-clock timeout when --chaos is given without --timeout —
#: chaos hangs workers, so *something* has to reap them
CHAOS_DEFAULT_TIMEOUT = 60.0


def _make_policy(args: argparse.Namespace) -> Optional[SupervisionPolicy]:
    """A supervision policy when any resilience knob was turned, else None
    (plain deterministic execution, exactly as before)."""
    if args.timeout is None and args.retries is None and args.chaos is None:
        return None
    timeout = args.timeout
    if timeout is None and args.chaos is not None:
        timeout = CHAOS_DEFAULT_TIMEOUT
    retries = args.retries if args.retries is not None else 2
    return SupervisionPolicy(timeout=timeout, retries=retries,
                             backoff=args.backoff,
                             seed=args.chaos if args.chaos is not None else 0)


def _make_chaos(args: argparse.Namespace,
                policy: Optional[SupervisionPolicy]) -> Optional[ChaosConfig]:
    if args.chaos is None:
        return None
    # Never inject more consecutive faults than the retry budget allows, or
    # the self-test could not converge to clean output.
    return ChaosConfig(seed=args.chaos, max_faults=min(2, policy.retries))


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _run_campaign(args: argparse.Namespace, command: str, unit: str,
                  facets: dict, run: Callable, render: Callable[[Any], str],
                  report: Callable[[Any], int]) -> int:
    """The lifecycle the campaign verbs (bench, verify, fuzz) share.

    ``run(jobs, policy, chaos, journal)`` builds a fresh driver, runs it and
    returns its result; ``render`` turns a result into the text the chaos
    self-test compares; ``report`` prints the result and returns the
    verb's exit code.  Around them this opens the journal that
    ``--journal``/``--resume`` ask for (keyed by ``facets``), routes SIGTERM
    like Ctrl-C, runs ``--chaos``' clean in-process oracle and prints its
    verdict, and maps a :class:`JournalError` to exit 2 and an interruption
    to exit 130 with a count of the finished ``unit``.
    """
    policy = _make_policy(args)
    chaos = _make_chaos(args, policy)
    journal = None
    try:
        if args.resume or args.journal:
            journal = Journal(args.journal or f".repro-{command}.journal",
                              Journal.make_fingerprint(**facets),
                              resume=args.resume, facets=facets)
        with graceful_signals():
            # Chaos self-test oracle: the same campaign, clean and in
            # process (for bench it also warms the compile cache, making
            # the chaotic run cheap).
            clean_text = (render(run(1, None, None, None))
                          if chaos is not None else None)
            result = run(args.jobs, policy, chaos, journal)
            text = render(result) if clean_text is not None else None
    except JournalError as err:
        print(f"repro {command}: {err}", file=sys.stderr)
        return 2
    except CampaignInterrupted as intr:
        hint = ""
        if journal is not None:
            hint = "; resume with --resume"
            if args.journal:
                hint += f" --journal {args.journal}"
        print(f"{command}: interrupted — {intr.completed}/{intr.total} "
              f"{unit} finished{hint}", file=sys.stderr)
        return 130
    finally:
        if journal is not None:
            journal.close()
    exit_code = report(result)
    if clean_text is not None:
        if text == clean_text:
            print(f"{command}: chaos self-test PASSED — supervised run "
                  "byte-identical to the clean run", file=sys.stderr)
        else:
            print(f"{command}: chaos self-test FAILED — supervised run "
                  "diverged from the clean run", file=sys.stderr)
            exit_code = 1
    return exit_code


def cmd_compile(args: argparse.Namespace) -> int:
    source = _source_or_exit(args.file)
    if source is None:
        return 2
    config = _build_config(args)
    cp = _compile_or_exit(source, args.file, config, _load_inputs(args.train))
    if cp is None:
        return 2
    print(f"# {config.describe()}")
    if cp.stats is not None:
        print(f"# traces={cp.stats.traces} boosted={cp.stats.boosted} "
              f"duplicates={cp.stats.duplicates} "
              f"compensation-blocks={cp.stats.split_blocks}")
    print(cp.sched.dump())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    source = _source_or_exit(args.file)
    if source is None:
        return 2
    config = _build_config(args)
    train = _load_inputs(args.train)
    inputs = _load_inputs(args.input) or train
    cp = _compile_or_exit(source, args.file, config, train)
    if cp is None:
        return 2
    run_kwargs = {}
    recorder = None
    if args.stats:
        from repro.obs.stats import SimStats
        run_kwargs["stats"] = SimStats()
    if args.trace_out:
        from repro.obs.trace import TraceRecorder
        recorder = TraceRecorder(capacity=args.trace_capacity)
        run_kwargs["trace"] = recorder
    result = cp.run(inputs, **run_kwargs)
    reference = cp.run_functional(inputs)
    status = "OK" if result.output == reference.output else "MISMATCH"
    for value in result.output:
        print(value)
    print(f"# [{config.describe()}] cycles={result.cycle_count:,} "
          f"instructions={result.instr_count:,} ipc={result.ipc:.3f} "
          f"branches={result.branch_count:,} "
          f"pred-acc={result.prediction_accuracy * 100:.1f}% "
          f"oracle={status}", file=sys.stderr)
    if args.stats and result.sim_stats is not None:
        st = result.sim_stats
        print(f"# [stats] boosted={st.boosted_executed:,} "
              f"squashed={st.boosted_squashed:,} "
              f"squash-rate={st.squash_rate * 100:.1f}% "
              f"recoveries={st.recovery_invocations:,} "
              f"interlock-stalls={st.interlock_stall_cycles:,} "
              f"slot-occupancy={st.issue_slot_occupancy * 100:.1f}%",
              file=sys.stderr)
        if st.translated_blocks:
            print(f"# [translate] blocks={st.translated_blocks:,}",
                  file=sys.stderr)
        if cp.stats is not None:
            sc = cp.stats
            print(f"# [sched] traces={sc.traces} "
                  f"motions={sc.motions_accepted}/{sc.motions_attempted} "
                  f"boosted={sc.boosted} duplicates={sc.duplicates} "
                  f"recovery-blocks={sc.recovery_blocks}", file=sys.stderr)
    if recorder is not None:
        recorder.write(args.trace_out)
        note = (f" ({recorder.dropped:,} events dropped; raise "
                f"--trace-capacity)" if recorder.dropped else "")
        print(f"# wrote {len(recorder.events())} trace events to "
              f"{args.trace_out}{note}", file=sys.stderr)
    return 0 if status == "OK" else 1


def cmd_bench(args: argparse.Namespace) -> int:
    workloads = all_workloads()
    if args.workloads:
        known = {w.name for w in workloads}
        unknown = set(args.workloads) - known
        if unknown:
            print(f"unknown workloads: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        workloads = [w for w in workloads if w.name in args.workloads]
    if args.sabotage and args.sabotage not in {w.name for w in workloads}:
        print(f"unknown sabotage workload: {args.sabotage}", file=sys.stderr)
        return 2
    facets = dict(command="bench", code_version=CODE_VERSION,
                  workloads=[w.name for w in workloads],
                  sabotage=args.sabotage, configs=BENCH_CONFIG_KEYS,
                  stats=args.stats)
    t0 = time.time()

    def run(jobs, policy, chaos, journal) -> Lab:
        lab = Lab(workloads, sabotage=args.sabotage, cache=_make_cache(args),
                  collect_stats=args.stats)
        lab.populate(jobs, policy=policy, chaos=chaos, journal=journal)
        return lab

    def report(lab: Lab) -> int:
        print(render_all(lab))
        if args.stats:
            # Printed after (not inside) render_all so the chaos self-test's
            # byte-comparison of the core report is unaffected.
            print(render_stats(lab))
        # Timing is nondeterministic — keep it off stdout so reports diff
        # clean.
        print(f"[{time.time() - t0:.0f}s of simulation]", file=sys.stderr)
        if args.json:
            atomic_write_json(args.json, bench_json(lab))
            print(f"wrote {args.json}", file=sys.stderr)
        if args.write_experiments:
            from repro.harness.report import write_experiments_md
            write_experiments_md(lab, args.write_experiments)
            print(f"wrote {args.write_experiments}", file=sys.stderr)
        if lab.errors:
            print(f"bench: {len(lab.errors)} cell(s) failed — see the error "
                  "summary above", file=sys.stderr)
            return 1
        return 0

    return _run_campaign(args, "bench", "cells", facets, run, render_all,
                         report)


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import VerifyCampaign, run_selftest

    if not args.no_selftest:
        selftest = run_selftest()
        print(selftest.format())
        print()
        if not selftest.caught:
            return 2

    if args.seed is not None:
        seeds, seed_start = 1, args.seed
    else:
        seeds, seed_start = args.seeds, args.seed_start

    def make_campaign() -> VerifyCampaign:
        return VerifyCampaign(
            workload_names=args.workloads or None,
            model_keys=args.models or None,
            seeds=seeds, seed_start=seed_start, progress=_progress,
            cache=_make_cache(args))

    try:
        campaign = make_campaign()
    except ValueError as err:
        print(f"repro verify: {err}", file=sys.stderr)
        return 2
    facets = dict(command="verify", code_version=CODE_VERSION,
                  workloads=[w.name for w in campaign.workloads],
                  models=campaign.model_keys, seeds=seeds,
                  seed_start=seed_start)

    def run(jobs, policy, chaos, journal):
        return make_campaign().run(jobs=jobs, policy=policy, chaos=chaos,
                                   journal=journal)

    def report(summary) -> int:
        print(summary.format())
        return 0 if summary.ok else 1

    return _run_campaign(args, "verify", "buckets", facets, run,
                         lambda summary: summary.format(), report)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.stats import STATS_SCHEMA
    from repro.verify.fuzz import FuzzCampaign, GenConfig

    config = GenConfig(size=args.size, pred_lo=args.pred_lo,
                       pred_hi=args.pred_hi)

    def make_campaign() -> FuzzCampaign:
        return FuzzCampaign(
            count=args.count, seed_start=args.seed_start, config=config,
            model_keys=args.models or None, backends=args.backends or None,
            plans=args.plans, sabotage=args.sabotage,
            dynamic_variants=args.dynamic_variants or None,
            progress=_progress)

    try:
        campaign = make_campaign()
    except ValueError as err:
        print(f"repro fuzz: {err}", file=sys.stderr)
        return 2
    facets = dict(command="fuzz", code_version=CODE_VERSION,
                  **campaign.facets())

    def run(jobs, policy, chaos, journal):
        return make_campaign().run(jobs=jobs, policy=policy, chaos=chaos,
                                   journal=journal)

    def report(summary) -> int:
        # The chaos comparison uses the pre-triage text: reduction happens
        # once, in the parent, after the merge — it is not part of what
        # parallelism must reproduce byte-for-byte.
        campaign.finalize(summary, triage_dir=Path(args.triage_dir),
                          reduce=not args.no_reduce)
        print(summary.format())
        if args.json:
            stats = summary.stats()
            atomic_write_json(args.json, {
                "schema": "repro-fuzz/1",
                "facets": facets,
                "stats": {"schema": STATS_SCHEMA, "fuzz": stats.snapshot()},
                "divergences": [{
                    "program": d.program, "seed": d.seed,
                    "signature": d.signature, "plan": d.plan_text,
                    "repro": d.repro_cmd,
                    "reduced_lines": (len(d.reduced_source.splitlines())
                                      if d.reduced_source else None),
                } for d in summary.divergences],
                "triage": [{
                    "signature": t.signature, "bucket": t.bucket,
                    "occurrences": t.occurrences,
                    "reduced_lines": t.reduced_lines, "note": t.note,
                } for t in summary.triage],
            })
            print(f"wrote {args.json}", file=sys.stderr)
        return 0 if summary.ok else 1

    return _run_campaign(args, "fuzz", "programs", facets, run,
                         lambda summary: summary.format(), report)


def cmd_workloads(_args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'stands in for':22s} description")
    for w in all_workloads():
        print(f"{w.name:10s} {w.paper_benchmark:22s} {w.description}")
    return 0


def cmd_models(_args: argparse.Namespace) -> int:
    print(f"{'model':10s} {'max level':>9s} {'stores':>7s} "
          f"{'multi-file':>10s} {'squash-only':>11s}")
    for m in ALL_MODELS:
        print(f"{m.name:10s} {m.max_level:>9d} "
              f"{'yes' if m.boost_stores else 'no':>7s} "
              f"{'yes' if m.multi_shadow_files else 'no':>10s} "
              f"{'yes' if m.squash_only else 'no':>11s}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Boosting (ASPLOS'92) reproduction: compile, simulate, "
                    "and benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compile_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="Minic source file")
        p.add_argument("--machine", choices=["scalar", "superscalar"],
                       default="superscalar")
        p.add_argument("--model", choices=sorted(BY_NAME), default="MinBoost3")
        p.add_argument("--scheduler", choices=["bb", "global"],
                       default="global")
        p.add_argument("--regalloc", choices=["round_robin", "infinite"],
                       default="round_robin")
        p.add_argument("--unroll", type=int, default=1)
        p.add_argument("--train", help="JSON training inputs "
                       "(profile source)", default=None)

    def add_backend_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=BACKENDS, default=None,
                       help="simulator execution engine (default: "
                            "$REPRO_SIM_BACKEND, or 'translate'): "
                            "'translate' runs every basic block as a "
                            "generated Python function, 'interp' the "
                            "pre-decoded fast interpreters, 'reference' "
                            "the readable reference interpreters")

    p = sub.add_parser("compile", help="print the scheduled program")
    add_compile_opts(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="compile and simulate")
    add_compile_opts(p)
    p.add_argument("--input", help="JSON evaluation inputs (defaults to "
                   "--train)", default=None)
    p.add_argument("--stats", action="store_true",
                   help="collect paper-metrics counters (boosting, squashes, "
                        "recovery, slot occupancy) and print a summary")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write a Chrome trace-event JSON cycle trace "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--trace-capacity", type=int, default=200_000,
                   metavar="N",
                   help="trace ring-buffer capacity in events; the oldest "
                        "events are dropped beyond this (default: 200000)")
    add_backend_opt(p)
    p.set_defaults(fn=cmd_run)

    def add_parallel_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="worker processes (default: 1 = in-process; "
                            "reports are byte-identical at any N)")
        p.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="compile-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-boost)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk compile cache")
        p.add_argument("--timeout", type=_positive_float, default=None,
                       metavar="SECS",
                       help="per-task wall-clock timeout: hung workers are "
                            "killed, replaced, and the task retried "
                            "(default: none)")
        p.add_argument("--retries", type=_nonnegative_int, default=None,
                       metavar="N",
                       help="extra attempts for a timed-out/killed/failed "
                            "task, with exponential backoff + seeded jitter "
                            "(default: 2 once supervision is active)")
        p.add_argument("--backoff", type=_positive_float, default=0.5,
                       metavar="SECS",
                       help="base retry backoff, doubling per attempt "
                            "(default: 0.5)")
        p.add_argument("--journal", metavar="PATH", default=None,
                       help="crash-safe checkpoint journal; completed tasks "
                            "are durably recorded as the campaign runs "
                            "(default with --resume: .repro-<cmd>.journal)")
        p.add_argument("--resume", action="store_true",
                       help="skip tasks already in the journal; the resumed "
                            "output is byte-identical to an uninterrupted "
                            "run")
        p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="chaos self-test: randomly kill/hang/corrupt "
                            "supervised workers (seeded) and assert the "
                            "output still matches a clean run")

    p = sub.add_parser("bench", help="regenerate the paper's tables/figures")
    p.add_argument("workloads", nargs="*",
                   help="subset of workloads (default: all registered)")
    p.add_argument("--write-experiments", metavar="PATH",
                   help="also write an EXPERIMENTS.md-style report")
    p.add_argument("--json", metavar="PATH",
                   help="also write the tables/figures as structured JSON")
    p.add_argument("--sabotage", metavar="WORKLOAD",
                   help="deliberately strangle one workload's simulations "
                        "(demonstrates graceful degradation of the report)")
    p.add_argument("--stats", action="store_true",
                   help="collect per-cell scheduler/simulator counters and "
                        "print the boosting-statistics tables (also embeds "
                        "them in --json output)")
    add_parallel_opts(p)
    add_backend_opt(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "verify",
        help="differential fault-injection verification of boosting")
    p.add_argument("--seeds", type=int, default=20,
                   help="fault-plan seeds per (workload, model) "
                        "(default: 20)")
    p.add_argument("--seed", type=int, default=None,
                   help="run exactly one seed (reproduce a report)")
    p.add_argument("--seed-start", type=int, default=0,
                   help="first seed of the range (default: 0)")
    p.add_argument("--workloads", nargs="+", metavar="NAME",
                   help="subset of workloads (default: all registered)")
    p.add_argument("--models", nargs="+", metavar="MODEL",
                   help="boosting models to verify (default: squashing "
                        "boost1 minboost3 boost7)")
    p.add_argument("--no-selftest", action="store_true",
                   help="skip the broken-shift-buffer checker self-test")
    add_parallel_opts(p)
    add_backend_opt(p)
    p.set_defaults(fn=cmd_verify)

    from repro.verify.fuzz.fuzzcampaign import SABOTAGES
    from repro.verify.fuzz.generator import SIZE_PROFILES

    p = sub.add_parser(
        "fuzz",
        help="generative differential fuzzing of the whole pipeline")
    p.add_argument("--count", type=int, default=50, metavar="N",
                   help="generated programs (default: 50)")
    p.add_argument("--seed-start", type=int, default=0,
                   help="first program seed (default: 0)")
    p.add_argument("--plans", type=int, default=4, metavar="N",
                   help="fault plans per program, including the benign "
                        "plan (default: 4)")
    p.add_argument("--size", choices=sorted(SIZE_PROFILES), default="small",
                   help="generated-program size profile (default: small)")
    p.add_argument("--pred-lo", type=float, default=0.72,
                   help="lower end of the branch-predictability band "
                        "(default: 0.72)")
    p.add_argument("--pred-hi", type=float, default=0.98,
                   help="upper end of the branch-predictability band "
                        "(default: 0.98)")
    p.add_argument("--models", nargs="+", metavar="MODEL",
                   help="boosting models for the superscalar cells "
                        "(default: squashing boost7)")
    p.add_argument("--backends", nargs="+", metavar="ENGINE",
                   help="execution engines to cross-check "
                        "(default: reference interp translate)")
    p.add_argument("--dynamic-variants", nargs="+", metavar="VARIANT",
                   help="dynamic-machine comparator variants for the "
                        "benign-plan cells (default: norename rename lsq "
                        "memdep memdep-tight)")
    p.add_argument("--sabotage", choices=sorted(SABOTAGES), default=None,
                   help="plant a deliberate bug so the campaign can prove "
                        "it catches, reduces, and triages one")
    p.add_argument("--triage-dir", metavar="PATH",
                   default=".repro-fuzz-triage",
                   help="persistent triage corpus: one directory per "
                        "divergence signature with minimized source and a "
                        "one-line repro (default: .repro-fuzz-triage)")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip automatic divergence reduction")
    p.add_argument("--json", metavar="PATH",
                   help="also write campaign stats and divergences as JSON")
    add_parallel_opts(p)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("workloads", help="list the workload suite")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("models", help="list the boosting hardware models")
    p.set_defaults(fn=cmd_models)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "backend", None):
        # Exported rather than threaded through call sites so parallel
        # worker processes inherit the same engine choice.
        os.environ["REPRO_SIM_BACKEND"] = args.backend
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Clean SIGINT/SIGTERM shutdown: pools are torn down where the
        # interrupt fired; report it and exit with the conventional 130.
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
