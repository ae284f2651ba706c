"""Human-readable rendering of the experiment results, in the same shape as
the paper's tables and figures."""

from __future__ import annotations

from dataclasses import asdict

from repro.harness.experiments import (
    BENCH_CONFIG_KEYS, DYNAMIC_CONFIGS, Lab, TABLE2_MODELS, dynamic_matrix,
    figure8, figure9, table1, table2,
)
from repro.harness.fsutil import atomic_write_text
from repro.obs.stats import STATS_SCHEMA

#: schema tag shared by ``bench --json`` and ``benchmarks/perf_smoke.py``
BENCH_SCHEMA = "repro-bench/1"

#: the paper's published values, for side-by-side comparison
PAPER_TABLE1 = {
    "awk": (0.89, 82.0), "compress": (0.87, 82.7), "eqntott": (0.95, 72.1),
    "espresso": (0.89, 75.7), "grep": (0.81, 97.9), "nroff": (0.82, 96.7),
    "xlisp": (0.89, 83.5),
}
PAPER_TABLE2 = {
    "awk": (11.2, 16.4, 17.2, 18.1),
    "compress": (9.1, 10.6, 10.6, 10.6),
    "eqntott": (8.0, 14.4, 16.0, 16.0),
    "espresso": (9.8, 18.0, 21.3, 23.0),
    "grep": (15.4, 27.7, 40.8, 40.8),
    "nroff": (11.4, 24.4, 31.7, 36.6),
    "xlisp": (6.7, 13.3, 12.5, 14.2),
}
PAPER_TABLE2_GM = (9.9, 17.0, 19.3, 20.5)
PAPER_FIGURE8_GM = {"bb": 1.14, "global": 1.24}


def _f(value, spec: str, width: int = 0) -> str:
    """Format a measurement that may have degraded to ``None`` (-> ERR)."""
    text = "ERR" if value is None else spec.format(value)
    return f"{text:>{width}s}" if width else text


def render_table1(lab: Lab) -> str:
    lines = [
        "Table 1: benchmark programs and their simulation information",
        f"{'':10s} {'Total Cycles':>13s} {'IPC':>6s} {'Pred.Acc':>9s} "
        f"{'paper IPC':>10s} {'paper acc':>10s}",
    ]
    for row in table1(lab):
        # Fuzz-promoted workloads have no paper column to compare against.
        paper = PAPER_TABLE1.get(row.name)
        p_ipc = f"{paper[0]:.2f}" if paper else "—"
        p_acc = f"{paper[1]:.1f}%" if paper else "—"
        acc = (None if row.prediction_accuracy is None
               else row.prediction_accuracy * 100)
        lines.append(
            f"{row.name:10s} {_f(row.cycles, '{:,}', 13)} "
            f"{_f(row.ipc, '{:.2f}', 6)} {_f(acc, '{:.1f}%', 9)} "
            f"{p_ipc:>10s} {p_acc:>10s}")
    return "\n".join(lines)


def _speedup_bar(value, full: float = 2.5, width: int = 30) -> str:
    """A one-line bar for a speedup value (the paper's figures are bars)."""
    if value is None:
        return "E" * 3 + "·" * (width - 3)
    filled = max(0, min(width, round((value - 1.0) / (full - 1.0) * width)))
    return "█" * filled + "·" * (width - filled)


def render_figure8(lab: Lab) -> str:
    rows, means = figure8(lab)
    lines = [
        "Figure 8: speedup over scalar without speculative-execution hardware",
        f"{'':10s} {'bb sched':>9s} {'global':>8s} {'global+∞regs':>13s}",
    ]
    for row in rows:
        lines.append(f"{row.name:10s} {_f(row.bb_speedup, '{:.2f}', 9)} "
                     f"{_f(row.global_speedup, '{:.2f}', 8)} "
                     f"{_f(row.global_inf_speedup, '{:.2f}', 13)}")
    lines.append(
        f"{'G.M.':10s} {_f(means['bb'], '{:.2f}', 9)} "
        f"{_f(means['global'], '{:.2f}', 8)} "
        f"{_f(means['global_inf'], '{:.2f}', 13)}")
    lines.append(
        f"{'paper G.M.':10s} {PAPER_FIGURE8_GM['bb']:>9.2f} "
        f"{PAPER_FIGURE8_GM['global']:>8.2f} {'—':>13s}")
    lines.append("")
    for row in rows:
        lines.append(f"  {row.name:10s} bb     {_speedup_bar(row.bb_speedup)}"
                     f" {_f(row.bb_speedup, '{:.2f}x')}")
        lines.append(f"  {'':10s} global {_speedup_bar(row.global_speedup)}"
                     f" {_f(row.global_speedup, '{:.2f}x')}")
    return "\n".join(lines)


def render_table2(lab: Lab) -> str:
    rows, means = table2(lab)
    header = " ".join(f"{m:>10s}" for m in
                      ("Squashing", "Boost1", "MinBoost3", "Boost7"))
    lines = [
        "Table 2: % improvement over global scheduling",
        f"{'':10s} {header}",
    ]
    for row in rows:
        cells = " ".join(_f(row.improvements[k], "{:.1f}%", 10)
                         for k in TABLE2_MODELS)
        paper = PAPER_TABLE2.get(row.name)
        note = ("/".join(f"{v:.1f}" for v in paper) if paper else "—")
        lines.append(f"{row.name:10s} {cells}   (paper: {note})")
    cells = " ".join(_f(means[k], "{:.1f}%", 10) for k in TABLE2_MODELS)
    lines.append(f"{'G.M.':10s} {cells}   (paper: "
                 + "/".join(f"{v:.1f}" for v in PAPER_TABLE2_GM) + ")")
    return "\n".join(lines)


def render_figure9(lab: Lab) -> str:
    rows, means = figure9(lab)
    lines = [
        "Figure 9: speedup over scalar — MinBoost3 vs dynamic scheduler",
        f"{'':10s} {'MinBoost3':>10s} {'MB3+∞regs':>10s} "
        f"{'dynamic':>9s} {'dyn+rename':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row.name:10s} {_f(row.minboost3_speedup, '{:.2f}', 10)} "
            f"{_f(row.minboost3_inf_speedup, '{:.2f}', 10)} "
            f"{_f(row.dynamic_speedup, '{:.2f}', 9)} "
            f"{_f(row.dynamic_rename_speedup, '{:.2f}', 11)}")
    lines.append(
        f"{'G.M.':10s} {_f(means['minboost3'], '{:.2f}', 10)} "
        f"{_f(means['minboost3_inf'], '{:.2f}', 10)} "
        f"{_f(means['dynamic'], '{:.2f}', 9)} "
        f"{_f(means['dynamic_rename'], '{:.2f}', 11)}")
    lines.append(f"{'paper':10s} {'≈1.5x':>10s} {'':>10s} {'≈1.5x':>9s}")
    lines.append("")
    for row in rows:
        lines.append(f"  {row.name:10s} MinBoost3 "
                     f"{_speedup_bar(row.minboost3_speedup)} "
                     f"{_f(row.minboost3_speedup, '{:.2f}x')}")
        lines.append(f"  {'':10s} dynamic   "
                     f"{_speedup_bar(row.dynamic_speedup)} "
                     f"{_f(row.dynamic_speedup, '{:.2f}x')}")
    return "\n".join(lines)


#: column headers for the dynamic-machine matrix, keyed like
#: ``DYNAMIC_CONFIGS``
_DYN_LABELS = {
    "dynamic": "dyn",
    "dynamic_rename": "+rename",
    "dynamic_lsq": "+lsq",
    "dynamic_memdep": "+memdep",
    "dynamic_vfr": "+vfr",
}


def render_dynamic_matrix(lab: Lab) -> str:
    rows, means = dynamic_matrix(lab)
    header = " ".join(f"{_DYN_LABELS[k]:>8s}" for k in DYNAMIC_CONFIGS)
    lines = [
        "Dynamic-machine matrix: speedup over scalar under stronger "
        "baselines",
        "(lsq = 16-entry load/store queue + store-to-load forwarding, "
        "memdep = dependence speculation, vfr = variable fetch rate)",
        f"{'':10s} {'MinBoost3':>9s} {header}",
    ]
    for row in rows:
        cells = " ".join(_f(row.speedups[k], "{:.2f}", 8)
                         for k in DYNAMIC_CONFIGS)
        lines.append(f"{row.name:10s} "
                     f"{_f(row.minboost3_speedup, '{:.2f}', 9)} {cells}")
    cells = " ".join(_f(means[k], "{:.2f}", 8) for k in DYNAMIC_CONFIGS)
    lines.append(f"{'G.M.':10s} {_f(means['minboost3'], '{:.2f}', 9)} "
                 f"{cells}")
    return "\n".join(lines)


def render_errors(lab: Lab) -> str:
    """Error summary for every degraded cell (empty string when clean).

    Cells that failed at the *harness* level (worker timeout, killed
    worker, exhausted retries) carry their structured record in
    ``lab.failures`` and are totalled by kind here, so a partial report
    states exactly how it degraded.
    """
    if not lab.errors:
        return ""
    lines = [f"Errors: {len(lab.errors)} (workload, configuration) cell(s) "
             "failed; geometric means cover the successful rows only"]
    for (wname, config_key), text in sorted(lab.errors.items()):
        lines.append(f"  {wname}/{config_key}: {text}")
    if lab.failures:
        kinds: dict[str, int] = {}
        for info in lab.failures.values():
            kinds[info["kind"]] = kinds.get(info["kind"], 0) + 1
        summary = ", ".join(f"{kind}: {count}"
                            for kind, count in sorted(kinds.items()))
        lines.append(f"  harness failures by kind — {summary}")
    return "\n".join(lines)


def _boost_histogram(by_level: dict, total: int) -> str:
    """``.B1:36% .B2:64%`` — boost-distance distribution of executions."""
    if not by_level or not total:
        return "—"
    return " ".join(f".B{level}:{100 * by_level[level] / total:.1f}%"
                    for level in sorted(by_level, key=int))


def render_stats(lab: Lab) -> str:
    """The paper-style statistics table behind ``bench --stats``.

    Dynamic behaviour per workload × boosting model — fraction of executed
    instructions that were boosted, the boost-distance (``.Bn``) histogram,
    and the squash rate (Figures 6–7 territory) — followed by the static
    scheduler counters that produced each schedule.
    """
    lines = [
        "Boosting statistics: dynamic behaviour per workload × model",
        f"{'':10s} {'model':>10s} {'%boosted':>9s} {'squash%':>8s} "
        f"{'recov':>6s}  boost-distance histogram",
    ]
    for w in lab.workloads:
        for key in TABLE2_MODELS:
            res = lab.cell(w.name, key)
            st = res.sim_stats if res is not None else None
            name = w.name if key == TABLE2_MODELS[0] else ""
            if st is None:
                lines.append(f"{name:10s} {key:>10s} {'ERR':>9s} {'ERR':>8s} "
                             f"{'ERR':>6s}  —")
                continue
            pct = (100 * st.boosted_executed / st.instrs
                   if st.instrs else 0.0)
            hist = _boost_histogram(st.boosted_by_level, st.boosted_executed)
            lines.append(
                f"{name:10s} {key:>10s} {pct:>8.1f}% "
                f"{100 * st.squash_rate:>7.1f}% "
                f"{st.recovery_invocations:>6d}  {hist}")
    lines += [
        "",
        "Scheduler statistics: static counters per workload × model",
        f"{'':10s} {'model':>10s} {'traces':>7s} {'motions':>12s} "
        f"{'boosted':>8s} {'dups':>5s} {'recov.blk':>10s} {'occup':>6s}",
    ]
    for w in lab.workloads:
        for key in TABLE2_MODELS:
            res = lab.cell(w.name, key)
            st = res.sched_stats if res is not None else None
            name = w.name if key == TABLE2_MODELS[0] else ""
            if st is None:
                lines.append(f"{name:10s} {key:>10s} {'ERR':>7s} {'ERR':>12s} "
                             f"{'ERR':>8s} {'ERR':>5s} {'ERR':>10s} "
                             f"{'ERR':>6s}")
                continue
            motions = f"{st.motions_accepted}/{st.motions_attempted}"
            lines.append(
                f"{name:10s} {key:>10s} {st.traces:>7d} {motions:>12s} "
                f"{st.boosted:>8d} {st.duplicates:>5d} "
                f"{st.recovery_blocks:>10d} "
                f"{100 * st.issue_slot_occupancy:>5.1f}%")
    lsq_keys = [k for k in DYNAMIC_CONFIGS
                if DYNAMIC_CONFIGS[k].lsq_size > 0]
    lines += [
        "",
        "Memory speculation: dynamic-machine counters per workload × "
        "variant",
        f"{'':10s} {'variant':>8s} {'stlf':>7s} {'mdsquash':>9s} "
        f"{'mdstall':>8s} {'lsq hw':>7s} {'lsq avg':>8s} {'flushes':>8s}",
    ]
    for w in lab.workloads:
        for key in lsq_keys:
            res = lab.cell(w.name, key)
            st = res.sim_stats if res is not None else None
            name = w.name if key == lsq_keys[0] else ""
            label = _DYN_LABELS[key]
            if st is None:
                lines.append(f"{name:10s} {label:>8s} {'ERR':>7s} "
                             f"{'ERR':>9s} {'ERR':>8s} {'ERR':>7s} "
                             f"{'ERR':>8s} {'ERR':>8s}")
                continue
            lines.append(
                f"{name:10s} {label:>8s} {st.stlf_hits:>7d} "
                f"{st.memdep_squashes:>9d} {st.memdep_stall_cycles:>8d} "
                f"{st.lsq_high_water:>7d} {st.lsq_occupancy:>8.2f} "
                f"{st.flushes:>8d}")
    return "\n".join(lines)


def stats_json(lab: Lab) -> dict:
    """The ``repro-stats/1`` section of ``bench --json``.

    Deterministic (sorted histogram keys, fixed rounding), so CI can demand
    an exact match against a committed baseline.
    """
    workloads: dict[str, dict] = {}
    for w in lab.workloads:
        per: dict[str, object] = {}
        for key in BENCH_CONFIG_KEYS:
            res = lab.cell(w.name, key)
            if res is None:
                per[key] = None
                continue
            per[key] = {
                "sched": (res.sched_stats.snapshot()
                          if res.sched_stats is not None else None),
                "sim": (res.sim_stats.snapshot()
                        if res.sim_stats is not None else None),
            }
        workloads[w.name] = per
    return {
        "schema": STATS_SCHEMA,
        "collected": lab.collect_stats,
        "workloads": workloads,
    }


def render_all(lab: Lab) -> str:
    parts = [
        render_table1(lab),
        render_figure8(lab),
        render_table2(lab),
        render_figure9(lab),
        render_dynamic_matrix(lab),
    ]
    errors = render_errors(lab)
    if errors:
        parts.append(errors)
    return "\n\n".join(parts)


def bench_json(lab: Lab) -> dict:
    """The tables/figures as one JSON-serializable structure.

    Numbers are raw (no formatting/rounding); degraded cells are ``null``
    with the failure text under ``errors`` — so CI can diff perf/accuracy
    trajectories without parsing the human-readable report.
    """
    f8_rows, f8_means = figure8(lab)
    t2_rows, t2_means = table2(lab)
    f9_rows, f9_means = figure9(lab)
    dm_rows, dm_means = dynamic_matrix(lab)
    return {
        "schema": BENCH_SCHEMA,
        "table1": [asdict(r) for r in table1(lab)],
        "figure8": {"rows": [asdict(r) for r in f8_rows],
                    "geomeans": f8_means},
        "table2": {"rows": [asdict(r) for r in t2_rows],
                   "geomeans": t2_means},
        "figure9": {"rows": [asdict(r) for r in f9_rows],
                    "geomeans": f9_means},
        "dynamic_matrix": {"rows": [asdict(r) for r in dm_rows],
                           "geomeans": dm_means},
        "stats": stats_json(lab),
        "errors": {f"{w}/{c}": text
                   for (w, c), text in sorted(lab.errors.items())},
        "failures": {f"{w}/{c}": info
                     for (w, c), info in sorted(lab.failures.items())},
    }


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(out)


def write_experiments_md(lab: Lab, path: str) -> str:
    """Generate EXPERIMENTS.md: measured-vs-paper for every table/figure."""
    from repro.harness.experiments import TABLE2_MODELS

    t1 = table1(lab)
    f8_rows, f8_means = figure8(lab)
    t2_rows, t2_means = table2(lab)
    f9_rows, f9_means = figure9(lab)

    parts = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `repro.harness.report.write_experiments_md` "
        "(`python examples/paper_experiments.py` prints the same data).",
        "",
        "Absolute numbers differ from the paper — the workloads are "
        "reimplementations sized for cycle-level simulation in Python, and "
        "the substrate is our own compiler and machine models — so the "
        "comparison to read is the *shape*: orderings, rough ratios, and "
        "where returns diminish.",
        "",
        "## Table 1 — benchmark programs and simulation information",
        "",
    ]
    rows = []
    for r in t1:
        paper = PAPER_TABLE1.get(r.name)
        acc = (None if r.prediction_accuracy is None
               else 100 * r.prediction_accuracy)
        rows.append([r.name, _f(r.cycles, "{:,}"), _f(r.ipc, "{:.2f}"),
                     f"{paper[0]:.2f}" if paper else "—",
                     _f(acc, "{:.1f}%"),
                     f"{paper[1]:.1f}%" if paper else "—"])
    parts.append(_md_table(
        ["benchmark", "cycles (measured)", "IPC", "IPC (paper)",
         "pred. acc.", "pred. acc. (paper)"], rows))
    parts += [
        "",
        "Shape check: every benchmark sustains a bit under one IPC on the "
        "scalar machine; grep/nroff are the most predictable and eqntott "
        "the least, as in the paper.",
        "",
        "## Figure 8 — speedup without speculative-execution hardware",
        "",
    ]
    rows = [[r.name, _f(r.bb_speedup, "{:.2f}x"),
             _f(r.global_speedup, "{:.2f}x"),
             _f(r.global_inf_speedup, "{:.2f}x")] for r in f8_rows]
    rows.append(["**G.M.**",
                 f"**{_f(f8_means['bb'], '{:.2f}x')}**",
                 f"**{_f(f8_means['global'], '{:.2f}x')}**",
                 f"**{_f(f8_means['global_inf'], '{:.2f}x')}**"])
    rows.append(["paper G.M.", "1.14x", "1.24x", "—"])
    parts.append(_md_table(
        ["benchmark", "bb sched", "global sched", "global + ∞ regs"], rows))
    parts += [
        "",
        "Shape check: global scheduling beats basic-block scheduling on "
        "every benchmark; the infinite-register model bounds what an "
        "integrated allocator/scheduler could add.",
        "",
        "## Table 2 — % improvement over global scheduling",
        "",
    ]
    rows = []
    for r in t2_rows:
        paper = PAPER_TABLE2.get(r.name)
        rows.append([r.name]
                    + [_f(r.improvements[k], "{:.1f}%")
                       for k in TABLE2_MODELS]
                    + ["/".join(f"{v:.1f}" for v in paper)
                       if paper else "—"])
    rows.append(["**G.M.**"]
                + [f"**{_f(t2_means[k], '{:.1f}%')}**" for k in TABLE2_MODELS]
                + ["/".join(f"{v:.1f}" for v in PAPER_TABLE2_GM)])
    parts.append(_md_table(
        ["benchmark", "Squashing", "Boost1", "MinBoost3", "Boost7",
         "paper (Sq/B1/MB3/B7)"], rows))
    parts += [
        "",
        "Shape check: every model improves on global scheduling; the "
        "ordering Squashing ≤ Boost1 ≤ MinBoost3 ≤ Boost7 holds in the "
        "mean; and the paper's punchline survives — Boost7's 'obviously "
        "unreasonable' hardware adds almost nothing over MinBoost3.",
        "",
        "## Figure 9 — MinBoost3 vs the dynamically-scheduled machine",
        "",
    ]
    rows = [[r.name, _f(r.minboost3_speedup, "{:.2f}x"),
             _f(r.minboost3_inf_speedup, "{:.2f}x"),
             _f(r.dynamic_speedup, "{:.2f}x"),
             _f(r.dynamic_rename_speedup, "{:.2f}x")] for r in f9_rows]
    rows.append(["**G.M.**",
                 f"**{_f(f9_means['minboost3'], '{:.2f}x')}**",
                 f"**{_f(f9_means['minboost3_inf'], '{:.2f}x')}**",
                 f"**{_f(f9_means['dynamic'], '{:.2f}x')}**",
                 f"**{_f(f9_means['dynamic_rename'], '{:.2f}x')}**"])
    rows.append(["paper", "≈1.5x", "—", "≈1.5x", "—"])
    parts.append(_md_table(
        ["benchmark", "MinBoost3", "MinBoost3 + ∞ regs", "dynamic",
         "dynamic + rename"], rows))
    parts += [
        "",
        "Shape check: both machines land in the same band — the "
        "statically-scheduled machine with minimal boosting hardware keeps "
        "pace with the reservation-station/reorder-buffer/BTB design.",
        "",
        "## Dynamic-machine matrix — Figure 9 under stronger baselines",
        "",
        "The paper's comparator orders memory conservatively.  These "
        "variants add a 16-entry load/store queue with store-to-load "
        "forwarding (`+lsq`), memory-dependence speculation (`+memdep`), "
        "and a variable-rate front end (`+vfr`) — see "
        "[docs/memory-speculation.md](docs/memory-speculation.md).",
        "",
    ]
    dm_rows, dm_means = dynamic_matrix(lab)
    rows = [[r.name, _f(r.minboost3_speedup, "{:.2f}x")]
            + [_f(r.speedups[k], "{:.2f}x") for k in DYNAMIC_CONFIGS]
            for r in dm_rows]
    rows.append(["**G.M.**", f"**{_f(dm_means['minboost3'], '{:.2f}x')}**"]
                + [f"**{_f(dm_means[k], '{:.2f}x')}**"
                   for k in DYNAMIC_CONFIGS])
    parts.append(_md_table(
        ["benchmark", "MinBoost3"]
        + [_DYN_LABELS[k] for k in DYNAMIC_CONFIGS], rows))
    parts += [
        "",
        "Shape check: forwarding alone never hurts (the conservative LSQ "
        "is architecturally identical and no slower); dependence "
        "speculation and the wider refill front end push the dynamic "
        "machine ahead on memory- and branch-bound workloads, which is "
        "exactly the gap a paper-era comparison could not see.",
        "",
        "## Figure 7 / §4.3.2 — hardware cost",
        "",
    ]
    from repro.hw.cost import section_432_comparison
    ratios = section_432_comparison()
    parts.append(_md_table(
        ["design", "decoder overhead vs plain 64-reg file", "paper"],
        [["Boost1", f"+{100 * ratios['Boost1']:.0f}%", "+33%"],
         ["MinBoost3", f"+{100 * ratios['MinBoost3']:.0f}%", "+50%"]]))
    parts += [
        "",
        "## Known deviations",
        "",
        "* Workloads are reimplementations: prediction accuracies track the "
        "paper's ordering but sit a few points higher on compress/espresso "
        "(real SPEC inputs are messier than our generators).",
        "* The scalar baseline models a load-interlocked pipeline rather "
        "than undefined stale reads, and `li` is a single-cycle "
        "pseudo-instruction; both shift absolute IPC slightly.",
        "* Traces stop at loop back edges (the paper extends them one block "
        "for lookahead); cross-iteration boosting is therefore absent, "
        "which mostly compresses the Squashing→Boost7 spread on "
        "loop-bound workloads.",
        "* The dynamic comparator is execution-driven with a 1-cycle taken-"
        "fetch bubble and 2-cycle mispredict restart (Johnson-style), not "
        "the authors' trace-driven simulator.",
        "",
    ]
    errors = render_errors(lab)
    if errors:
        parts += ["## Errors", "", "```", errors, "```", ""]
    text = "\n".join(parts)
    atomic_write_text(path, text)
    return text
