"""Counter sinks for the compiler and the simulators.

Two kinds of objects live here:

* :class:`SchedStats` — counters accumulated while a program is scheduled
  (trace formation, code motion, duplication, recovery-block emission).
  One instance is attached to every compiled program.
* :class:`SimStats` — counters accumulated while a program executes
  (issue-slot occupancy, stalls, branch outcomes, boosted commits vs
  squashes by boost level, shadow-structure high-water marks).  Simulators
  take an optional ``stats`` sink defaulting to ``None`` so the fast paths
  pay a single ``is not None`` test per basic block when disabled.

``snapshot()`` on either object returns a plain, deterministic,
JSON-serialisable dict (sorted keys, histogram keys stringified) — this is
what lands in the ``repro-stats/1`` section of ``bench --json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional

STATS_SCHEMA = "repro-stats/1"


def _hist(d: Dict) -> Dict[str, int]:
    """Render a histogram dict deterministically (sorted, string keys)."""
    return {str(k): d[k] for k in sorted(d)}


@dataclass
class SchedStats:
    """Counters from trace formation, code motion, and list scheduling."""

    # Legacy counters (pre-dating repro.obs); names are load-bearing.
    boosted: int = 0
    duplicates: int = 0
    safe_speculative: int = 0
    traces: int = 0
    split_blocks: int = 0

    # Trace formation.
    trace_lengths: Dict[int, int] = field(default_factory=dict)

    # Code motion.
    motions_attempted: int = 0
    motions_accepted: int = 0
    motions_rejected: Dict[str, int] = field(default_factory=dict)

    # Speculation and duplication.
    boosted_by_level: Dict[int, int] = field(default_factory=dict)
    dup_kinds: Dict[str, int] = field(default_factory=dict)

    # Recovery code.
    recovery_blocks: int = 0
    recovery_instrs: int = 0

    # List scheduling.
    list_blocks: int = 0
    list_instrs: int = 0

    # Static schedule shape (filled by record_schedule_occupancy).
    issue_slots: int = 0
    issue_slots_filled: int = 0

    def note_trace(self, nblocks: int) -> None:
        self.traces += 1
        self.trace_lengths[nblocks] = self.trace_lengths.get(nblocks, 0) + 1

    def note_rejected(self, code: str) -> None:
        self.motions_rejected[code] = self.motions_rejected.get(code, 0) + 1

    def note_boost_level(self, level: int) -> None:
        self.boosted_by_level[level] = self.boosted_by_level.get(level, 0) + 1

    def note_dup(self, kind: str) -> None:
        self.dup_kinds[kind] = self.dup_kinds.get(kind, 0) + 1

    @property
    def issue_slot_occupancy(self) -> float:
        if not self.issue_slots:
            return 0.0
        return self.issue_slots_filled / self.issue_slots

    def snapshot(self) -> Dict[str, object]:
        return {
            "boosted": self.boosted,
            "boosted_by_level": _hist(self.boosted_by_level),
            "dup_kinds": _hist(self.dup_kinds),
            "duplicates": self.duplicates,
            "issue_slot_occupancy": round(self.issue_slot_occupancy, 6),
            "issue_slots": self.issue_slots,
            "issue_slots_filled": self.issue_slots_filled,
            "list_blocks": self.list_blocks,
            "list_instrs": self.list_instrs,
            "motions_accepted": self.motions_accepted,
            "motions_attempted": self.motions_attempted,
            "motions_rejected": _hist(self.motions_rejected),
            "recovery_blocks": self.recovery_blocks,
            "recovery_instrs": self.recovery_instrs,
            "safe_speculative": self.safe_speculative,
            "split_blocks": self.split_blocks,
            "trace_lengths": _hist(self.trace_lengths),
            "traces": self.traces,
        }


def record_schedule_occupancy(sched, stats: SchedStats) -> None:
    """Walk a scheduled program and record static issue-slot occupancy.

    ``sched`` is duck-typed (a ``ScheduledProgram``): it must expose
    ``machine.issue_width`` and ``procedures`` mapping to objects whose
    ``blocks`` have ``cycles`` — each cycle a sequence of slots, ``None``
    meaning an empty slot.
    """
    width = sched.machine.issue_width
    slots = 0
    filled = 0
    for proc in sched.procedures.values():
        for block in proc.blocks:
            for row in block.cycles:
                slots += width
                for slot in row:
                    if slot is not None:
                        filled += 1
    stats.issue_slots += slots
    stats.issue_slots_filled += filled


@dataclass
class SimStats:
    """Counters from one simulator run.

    The hot loops only touch :attr:`block_execs` (a per-(proc, block)
    execution counter) and call the ``note_*`` hooks at block boundaries;
    the per-instruction aggregates are reconstructed after the run by the
    ``finalize_*`` methods from static per-block shapes, so instrumented
    runs stay close to uninstrumented speed.
    """

    #: Simulators treat a sink with ``collecting = False`` (NullStats)
    #: exactly like ``stats=None`` in their hot loops — only the final
    #: ``finalize_*`` call still reaches it.
    collecting: ClassVar[bool] = True

    kind: str = ""

    # Headline counters (mirrors of ExecutionResult, for self-containment).
    cycles: int = 0
    instrs: int = 0
    nops: int = 0
    branches: int = 0
    mispredicts: int = 0

    # Execution shape.
    blocks_executed: int = 0
    rows_executed: int = 0
    slots_total: int = 0
    slots_filled: int = 0
    interlock_stall_cycles: int = 0

    # Speculation.
    boosted_executed: int = 0
    boosted_squashed: int = 0
    boosted_by_level: Dict[int, int] = field(default_factory=dict)
    boosted_commits_by_level: Dict[int, int] = field(default_factory=dict)
    boosted_squashes_by_level: Dict[int, int] = field(default_factory=dict)
    commit_events: int = 0
    squash_events: int = 0

    # Recovery code.
    recovery_invocations: int = 0
    recovery_instrs: int = 0
    recovery_cycles: int = 0

    # Shadow-structure high-water marks.
    shadow_high_water: int = 0
    storebuf_high_water: int = 0

    # Translating backend (repro.hw.translate); zero under the
    # interpreter backends.
    translated_blocks: int = 0

    # Dynamic (out-of-order) pipeline.
    rob_high_water: int = 0
    rob_occupancy_sum: int = 0
    fetch_queue_high_water: int = 0
    fetch_stall_cycles: int = 0
    rename_stall_events: int = 0
    flushes: int = 0

    # Dynamic-machine memory speculation (zero without an LSQ; see
    # docs/memory-speculation.md for the counter -> figure mapping).
    stlf_hits: int = 0
    memdep_squashes: int = 0
    memdep_stall_cycles: int = 0
    lsq_high_water: int = 0
    lsq_occupancy_sum: int = 0

    # Transient hot-loop state; cleared by finalize_*.  ``None`` (as in
    # NullStats) tells the hot loops to skip even the per-block counter.
    block_execs: Optional[Dict] = field(default_factory=dict)
    pending: List[List[int]] = field(default_factory=list)

    # -- hot-path hooks -------------------------------------------------

    def note_boosted(self, level: int) -> None:
        self.boosted_by_level[level] = self.boosted_by_level.get(level, 0) + 1
        self.pending.append([level, level])

    def _flush_pending(self) -> None:
        squashes = self.boosted_squashes_by_level
        for level, _ in self.pending:
            squashes[level] = squashes.get(level, 0) + 1
        self.pending.clear()

    def note_branch_commit(self, shadow_out: int, store_out: int) -> None:
        if shadow_out > self.shadow_high_water:
            self.shadow_high_water = shadow_out
        if store_out > self.storebuf_high_water:
            self.storebuf_high_water = store_out
        self.commit_events += 1
        commits = self.boosted_commits_by_level
        keep = []
        for entry in self.pending:
            entry[1] -= 1
            if entry[1] <= 0:
                level = entry[0]
                commits[level] = commits.get(level, 0) + 1
            else:
                keep.append(entry)
        self.pending = keep

    def note_squash(self, shadow_out: int, store_out: int) -> None:
        if shadow_out > self.shadow_high_water:
            self.shadow_high_water = shadow_out
        if store_out > self.storebuf_high_water:
            self.storebuf_high_water = store_out
        self.squash_events += 1
        self._flush_pending()

    def note_recovery(self, overhead: int, ninstrs: int) -> None:
        self.recovery_cycles += overhead + ninstrs
        self.recovery_instrs += ninstrs
        self._flush_pending()

    def note_dynamic_cycle(
        self, rob_len: int, fetchq_len: int, fetch_stalled: bool
    ) -> None:
        if rob_len > self.rob_high_water:
            self.rob_high_water = rob_len
        self.rob_occupancy_sum += rob_len
        if fetchq_len > self.fetch_queue_high_water:
            self.fetch_queue_high_water = fetchq_len
        if fetch_stalled:
            self.fetch_stall_cycles += 1

    # -- post-run aggregation -------------------------------------------

    def _copy_result(self, result) -> None:
        self.cycles = result.cycle_count
        self.instrs = result.instr_count
        self.nops = result.nop_count
        self.branches = result.branch_count
        self.mispredicts = result.mispredict_count

    def _copy_translation(self, sim) -> None:
        counters = getattr(sim, "translate_counters", None)
        if counters is None:
            return
        self.translated_blocks = counters["translated_blocks"]

    def _accumulate_blocks(self, shapes: Dict) -> None:
        """Combine per-block execution counts with static block shapes.

        ``shapes`` maps the same keys used in :attr:`block_execs` to
        ``(rows, filled_slots, width)`` tuples.
        """
        for key, count in self.block_execs.items():
            rows, filled, width = shapes[key]
            self.blocks_executed += count
            self.rows_executed += count * rows
            self.slots_total += count * rows * width
            self.slots_filled += count * filled
        self.block_execs = {}

    def finalize_superscalar(self, sim) -> None:
        self.kind = "superscalar"
        self._copy_result(sim.result)
        self.boosted_executed = sim.boosted_executed
        self.boosted_squashed = sim.boosted_squashed
        self.recovery_invocations = sim.recovery_invocations
        width = sim.sched.machine.issue_width
        shapes = {}
        for proc in sim.sched.procedures.values():
            for idx, block in enumerate(proc.blocks):
                filled = sum(
                    1
                    for row in block.cycles
                    for slot in row
                    if slot is not None
                )
                shapes[(proc.name, idx)] = (len(block.cycles), filled, width)
        self._accumulate_blocks(shapes)
        self._copy_translation(sim)
        stall = self.cycles - self.rows_executed - self.recovery_cycles
        self.interlock_stall_cycles = max(stall, 0)
        self.pending = []

    def finalize_functional(self, sim, shapes: Dict) -> None:
        self.kind = "functional"
        self._copy_result(sim.result)
        self._accumulate_blocks(shapes)
        self._copy_translation(sim)
        self.pending = []

    def finalize_dynamic(self, sim) -> None:
        self.kind = "dynamic"
        self._copy_result(sim.result)
        # Memory-speculation counters are tracked as plain ints on the
        # simulator (and its LSQ) — no hot-loop hook needed.
        self.memdep_squashes = getattr(sim, "memdep_squashes", 0)
        self.memdep_stall_cycles = getattr(sim, "memdep_stall_cycles", 0)
        lsq = getattr(sim, "lsq", None)
        if lsq is not None:
            self.stlf_hits = lsq.stlf_hits
            self.lsq_high_water = lsq.high_water
            self.lsq_occupancy_sum = lsq.occupancy_sum
        self.block_execs = {}
        self.pending = []

    # -- reporting ------------------------------------------------------

    @property
    def issue_slot_occupancy(self) -> float:
        if not self.slots_total:
            return 0.0
        return self.slots_filled / self.slots_total

    @property
    def squash_rate(self) -> float:
        if not self.boosted_executed:
            return 0.0
        return self.boosted_squashed / self.boosted_executed

    @property
    def rob_occupancy(self) -> float:
        if not self.cycles:
            return 0.0
        return self.rob_occupancy_sum / self.cycles

    @property
    def lsq_occupancy(self) -> float:
        if not self.cycles:
            return 0.0
        return self.lsq_occupancy_sum / self.cycles

    def snapshot(self) -> Dict[str, object]:
        return {
            "blocks_executed": self.blocks_executed,
            "boosted_by_level": _hist(self.boosted_by_level),
            "boosted_commits_by_level": _hist(self.boosted_commits_by_level),
            "boosted_executed": self.boosted_executed,
            "boosted_squashed": self.boosted_squashed,
            "boosted_squashes_by_level": _hist(self.boosted_squashes_by_level),
            "branches": self.branches,
            "commit_events": self.commit_events,
            "cycles": self.cycles,
            "fetch_queue_high_water": self.fetch_queue_high_water,
            "fetch_stall_cycles": self.fetch_stall_cycles,
            "flushes": self.flushes,
            "instrs": self.instrs,
            "interlock_stall_cycles": self.interlock_stall_cycles,
            "issue_slot_occupancy": round(self.issue_slot_occupancy, 6),
            "kind": self.kind,
            "lsq_high_water": self.lsq_high_water,
            "lsq_occupancy": round(self.lsq_occupancy, 6),
            "memdep_squashes": self.memdep_squashes,
            "memdep_stall_cycles": self.memdep_stall_cycles,
            "mispredicts": self.mispredicts,
            "nops": self.nops,
            "recovery_cycles": self.recovery_cycles,
            "recovery_instrs": self.recovery_instrs,
            "recovery_invocations": self.recovery_invocations,
            "rename_stall_events": self.rename_stall_events,
            "rob_high_water": self.rob_high_water,
            "rob_occupancy": round(self.rob_occupancy, 6),
            "rows_executed": self.rows_executed,
            "shadow_high_water": self.shadow_high_water,
            "slots_filled": self.slots_filled,
            "slots_total": self.slots_total,
            "squash_events": self.squash_events,
            "squash_rate": round(self.squash_rate, 6),
            "stlf_hits": self.stlf_hits,
            "storebuf_high_water": self.storebuf_high_water,
            "translated_blocks": self.translated_blocks,
        }


@dataclass
class FuzzStats:
    """Counters from one generative fuzz campaign.

    Accumulated by :class:`repro.verify.fuzz.fuzzcampaign.FuzzCampaign`;
    ``snapshot()`` lands in the ``repro-stats/1`` section of
    ``fuzz --json``.  Everything here is deterministic for a given
    (seed range, config, model/backend matrix) — timing never leaks in —
    so merged reports stay byte-identical at any parallelism.
    """

    programs: int = 0  # generated programs that entered the oracle
    compile_errors: int = 0  # programs the pipeline failed to prepare
    runs: int = 0  # differential comparisons executed
    plans: int = 0  # fault plans drawn (incl. the benign plan)
    trapped: int = 0  # comparisons whose reference run trapped
    flipped: int = 0  # comparisons under a prediction-flip plan
    injected_hits: int = 0  # injected-fault firings across both machines
    divergent: int = 0  # comparisons that disagreed
    oracle_errors: int = 0  # harness-level failures (timeouts, workers)
    backend_cells: int = 0  # (program, engine) functional cross-checks
    model_cells: int = 0  # (program, model, backend) superscalar cells
    dynamic_cells: int = 0  # (program, variant) dynamic-machine cells
    reduced: int = 0  # divergences auto-reduced to a minimal source
    triage_buckets: int = 0  # distinct divergence signatures filed

    def snapshot(self) -> Dict[str, object]:
        return {
            "backend_cells": self.backend_cells,
            "compile_errors": self.compile_errors,
            "divergent": self.divergent,
            "dynamic_cells": self.dynamic_cells,
            "flipped": self.flipped,
            "injected_hits": self.injected_hits,
            "model_cells": self.model_cells,
            "oracle_errors": self.oracle_errors,
            "plans": self.plans,
            "programs": self.programs,
            "reduced": self.reduced,
            "runs": self.runs,
            "trapped": self.trapped,
            "triage_buckets": self.triage_buckets,
        }


class NullStats(SimStats):
    """A sink whose hooks do nothing.

    Used by the perf-smoke overhead check: running with a ``NullStats``
    sink exercises the ``collecting`` gate at simulator construction and
    the ``finalize_*`` seam without collecting anything, which bounds the
    cost of having the instrumentation attached at all.
    """

    collecting: ClassVar[bool] = False

    def __init__(self) -> None:
        super().__init__()
        # Disables the per-block execution counter too — the finalizers
        # below never read it, so the hot loops can skip the dict update.
        self.block_execs = None

    def note_boosted(self, level: int) -> None:
        pass

    def note_branch_commit(self, shadow_out: int, store_out: int) -> None:
        pass

    def note_squash(self, shadow_out: int, store_out: int) -> None:
        pass

    def note_recovery(self, overhead: int, ninstrs: int) -> None:
        pass

    def note_dynamic_cycle(
        self, rob_len: int, fetchq_len: int, fetch_stalled: bool
    ) -> None:
        pass

    def finalize_superscalar(self, sim) -> None:
        self.kind = "null"

    def finalize_functional(self, sim, shapes: Optional[Dict] = None) -> None:
        self.kind = "null"

    def finalize_dynamic(self, sim) -> None:
        self.kind = "null"
