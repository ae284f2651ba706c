"""SchedStats/SimStats: accounting invariants and zero-interference.

The observability layer must never change what it observes: an instrumented
run has to produce the exact ExecutionResult an uninstrumented run does,
and the counters have to balance (every boosted execution either commits
or is squashed).
"""

import json

import pytest

from repro.harness.pipeline import CompileConfig, compile_minic
from repro.obs.stats import NullStats, SchedStats, SimStats, STATS_SCHEMA
from repro.sched.boostmodel import BY_NAME

SOURCE = """
global xs[8];
global n = 0;
func main() {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (xs[i] > 3) { s = s + xs[i]; }
    }
    print(s);
}
"""
TRAIN = {"xs": [1, 5, 2, 6, 3, 7, 4, 8], "n": 8}


@pytest.fixture(scope="module")
def compiled():
    return compile_minic(
        SOURCE, CompileConfig(model=BY_NAME["MinBoost3"]), TRAIN
    )


# ----------------------------------------------------------- SchedStats


def test_schema_tag():
    assert STATS_SCHEMA == "repro-stats/1"


def test_sched_stats_note_hooks():
    st = SchedStats()
    st.note_trace(3)
    st.note_trace(3)
    st.note_trace(1)
    st.note_rejected("barrier")
    st.note_boost_level(2)
    st.note_dup("split")
    assert st.traces == 3
    assert st.trace_lengths == {3: 2, 1: 1}
    assert st.motions_rejected == {"barrier": 1}
    assert st.boosted_by_level == {2: 1}
    assert st.dup_kinds == {"split": 1}


def test_compiled_program_sched_stats(compiled):
    st = compiled.stats
    assert st is not None
    assert st.traces == sum(st.trace_lengths.values())
    assert st.motions_accepted <= st.motions_attempted
    rejected = sum(st.motions_rejected.values())
    assert st.motions_accepted + rejected <= st.motions_attempted
    assert st.boosted == sum(st.boosted_by_level.values())
    assert 0.0 < st.issue_slot_occupancy <= 1.0
    assert st.issue_slots_filled <= st.issue_slots


def test_sched_snapshot_is_json_stable(compiled):
    snap = compiled.stats.snapshot()
    text = json.dumps(snap, sort_keys=True)
    assert json.loads(text) == snap
    # Histogram keys are stringified so the snapshot survives a JSON
    # round-trip unchanged.
    for key in snap["boosted_by_level"]:
        assert isinstance(key, str)


# ------------------------------------------------------------- SimStats


def test_boosted_executions_balance(compiled):
    st = SimStats()
    compiled.run(TRAIN, stats=st)
    total = sum(st.boosted_by_level.values())
    commits = sum(st.boosted_commits_by_level.values())
    squashes = sum(st.boosted_squashes_by_level.values())
    assert st.boosted_executed == total
    assert total == commits + squashes
    assert st.boosted_squashed == squashes
    assert 0.0 <= st.squash_rate <= 1.0


def test_sim_stats_mirror_result(compiled):
    st = SimStats()
    res = compiled.run(TRAIN, stats=st)
    assert res.sim_stats is st
    assert st.kind == "superscalar"
    assert st.cycles == res.cycle_count
    assert st.instrs == res.instr_count
    assert st.branches == res.branch_count
    assert st.mispredicts == res.mispredict_count
    # Transients are cleared by finalize so snapshots stay small.
    assert st.block_execs == {}
    assert st.pending == []


def test_slot_accounting(compiled):
    st = SimStats()
    compiled.run(TRAIN, stats=st)
    assert st.rows_executed > 0
    assert st.slots_filled <= st.slots_total
    width = compiled.sched.machine.issue_width
    assert st.slots_total == st.rows_executed * width
    assert 0.0 < st.issue_slot_occupancy <= 1.0
    assert (
        st.cycles
        == st.rows_executed + st.recovery_cycles + st.interlock_stall_cycles
    )


def test_stats_do_not_perturb_execution(compiled):
    bare = compiled.run(TRAIN)
    with_stats = compiled.run(TRAIN, stats=SimStats())
    with_null = compiled.run(TRAIN, stats=NullStats())
    for res in (with_stats, with_null):
        assert res.output == bare.output
        assert res.cycle_count == bare.cycle_count
        assert res.instr_count == bare.instr_count
        assert res.mispredict_count == bare.mispredict_count


#: backend metadata, legitimately different between execution engines —
#: everything architectural must still match exactly
_BACKEND_KEYS = ("translated_blocks",)


def test_stats_identical_on_both_sim_paths(compiled):
    fast = SimStats()
    slow = SimStats()
    compiled.run(TRAIN, stats=fast, fast=True)
    compiled.run(TRAIN, stats=slow, fast=False)
    fsnap, ssnap = fast.snapshot(), slow.snapshot()
    for key in _BACKEND_KEYS:
        fsnap.pop(key)
        ssnap.pop(key)
    assert fsnap == ssnap


def test_null_stats_collects_nothing(compiled):
    st = NullStats()
    assert st.block_execs is None
    compiled.run(TRAIN, stats=st)
    assert st.kind == "null"
    assert st.boosted_by_level == {}
    assert st.commit_events == 0
    assert st.squash_events == 0


def test_functional_sim_stats(compiled):
    st = SimStats()
    res = compiled.run_functional(TRAIN, stats=st)
    assert res.sim_stats is st
    assert st.kind == "functional"
    assert st.instrs == res.instr_count
    assert st.blocks_executed > 0
    assert st.rows_executed == st.instrs


def test_sim_snapshot_key_order(compiled):
    st = SimStats()
    compiled.run(TRAIN, stats=st)
    keys = list(st.snapshot())
    assert keys == sorted(keys)
