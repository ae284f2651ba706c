"""Tests for the dynamically-scheduled machine (Figure 9's comparator)."""

import pytest

from repro.harness.experiments import DYNAMIC_CONFIGS
from repro.harness.pipeline import SCALAR_CONFIG, compile_minic, make_input_image
from repro.hw.dynamic import DynamicConfig, DynamicSim, run_dynamic
from repro.hw.exceptions import Trap, TrapKind
from repro.hw.functional import FunctionalSim, run_functional
from repro.frontend import compile_source
from repro.opt import allocate_program, optimize_program

SOURCE = """
global data[16];
global n = 0;
func main() {
    var total = 0;
    var odd = 0;
    for (var i = 0; i < n; i = i + 1) {
        var v = data[i];
        if (v & 1) { odd = odd + 1; }
        total = total + v;
    }
    print(total);
    print(odd);
}
"""
INPUTS = {"data": [(i * 13 + 5) % 64 for i in range(16)], "n": 16}


def prepared_program():
    prog = compile_source(SOURCE)
    optimize_program(prog)
    allocate_program(prog)
    return prog


def test_matches_functional_reference():
    prog = prepared_program()
    from repro.harness.pipeline import make_input_image
    image = make_input_image(prog, INPUTS)
    from repro.hw.functional import FunctionalSim
    ref = FunctionalSim(prog, input_image=image).run()
    for rename in (False, True):
        res = run_dynamic(prog, rename=rename, input_image=image)
        assert res.output == ref.output


def test_out_of_order_beats_tiny_window():
    prog = prepared_program()
    image = make_input_image(prog, INPUTS)
    big = DynamicSim(prog, DynamicConfig(rob_entries=16),
                     input_image=image).run()
    prog2 = prepared_program()
    tiny = DynamicSim(prog2, DynamicConfig(rob_entries=2),
                      input_image=image).run()
    assert big.cycle_count < tiny.cycle_count


def test_rename_roughly_matches_or_beats_no_rename():
    # Renaming removes WAW/WAR dispatch stalls.  It may occasionally *cost*
    # a little: deeper speculation contends for the single memory port and
    # makes loads wait on more unresolved store addresses — so the check
    # allows a small regression rather than demanding strict dominance.
    prog = prepared_program()
    image = make_input_image(prog, INPUTS)
    with_rename = DynamicSim(prog, DynamicConfig(rename=True),
                             input_image=image).run()
    without = DynamicSim(prepared_program(), DynamicConfig(rename=False),
                         input_image=image).run()
    assert with_rename.cycle_count <= without.cycle_count * 1.10


def test_branches_counted_and_predicted():
    prog = prepared_program()
    image = make_input_image(prog, INPUTS)
    res = run_dynamic(prog, input_image=image)
    assert res.branch_count >= 16          # at least one branch per element
    assert 0 < res.mispredict_count < res.branch_count


def test_mispredict_penalty_costs_cycles():
    prog = prepared_program()
    image = make_input_image(prog, INPUTS)
    cheap = DynamicSim(prog, DynamicConfig(mispredict_restart=0),
                       input_image=image).run()
    costly = DynamicSim(prepared_program(),
                        DynamicConfig(mispredict_restart=6),
                        input_image=image).run()
    assert costly.cycle_count > cheap.cycle_count


def test_trap_is_precise_at_commit():
    source = """
func main() {
    var p = 0;
    print(loadw(p));
}
"""
    prog = compile_source(source)
    optimize_program(prog)
    allocate_program(prog)
    with pytest.raises(Trap) as info:
        run_dynamic(prog)
    assert info.value.kind is TrapKind.ADDRESS_ERROR


def test_wrong_path_fault_never_surfaces():
    # A load behind a rarely-taken branch: speculation down the wrong path
    # may execute it, but no trap may escape if the branch goes the other
    # way.
    source = """
global flag = 1;
func main() {
    var p = 0;
    if (flag == 0) {
        print(loadw(p));
    }
    print(7);
}
"""
    prog = compile_source(source)
    optimize_program(prog)
    allocate_program(prog)
    res = run_dynamic(prog)
    assert res.output == [7]
    assert res.trap is None


def test_store_not_architectural_until_commit():
    # Calls and returns exercise the jr-prediction path with memory traffic.
    source = """
global slot = 0;
func bump(v) {
    slot = slot + v;
    return slot;
}
func main() {
    var a = bump(3);
    var b = bump(4);
    print(a);
    print(b);
    print(slot);
}
"""
    prog = compile_source(source)
    optimize_program(prog)
    allocate_program(prog)
    res = run_dynamic(prog)
    assert res.output == [3, 7, 7]


def test_decode_path_matches_reference_on_workload():
    """The pre-decoded cycle loop must agree with the functional reference
    on a real workload, and renaming must not change architectural
    results — only timing."""
    from repro.workloads import get

    w = get("eqntott")
    cp = compile_minic(w.source, SCALAR_CONFIG, w.train)
    image = make_input_image(cp.program, w.eval)
    expected = run_functional(cp.reference,
                              input_image=make_input_image(cp.reference,
                                                           w.eval)).output
    results = {}
    for rename in (False, True):
        r = DynamicSim(cp.program, config=DynamicConfig(rename=rename),
                       input_image=image).run()
        assert r.output == expected
        results[rename] = r
    # Same instruction stream either way; renaming only removes stalls.
    assert results[False].instr_count == results[True].instr_count
    assert results[False].branch_count == results[True].branch_count
    assert results[True].cycle_count <= results[False].cycle_count


# Fuzz seed 33139, auto-reduced.  The recursive call after ``return 9`` is
# fetched down a mispredicted path and its JAL issues before the squash.
RA_DRIFT_SOURCE = """
func fn0(p0, p1) {
    return 9;
    return fn0(0, 0);
}

func main() {
    var v1 = 8;
    for (var i2 = 0; i2; i2 = 0) {
    }
    if (v1 * 71 < 64 || 1) {
        v1 = fn0(0, 0);
    }
}
"""


def test_squashed_call_gives_back_its_return_address():
    # A JAL takes its return-address token at issue.  A squash must hand
    # the tokens of flushed JALs back, or every later call links a
    # different ``ra`` than the reference machine and a spilled ``ra``
    # leaves final memory different.
    prog = compile_source(RA_DRIFT_SOURCE)
    optimize_program(prog)
    allocate_program(prog)
    ref = FunctionalSim(prog, backend="reference")
    expected = ref.run()
    for key, config in DYNAMIC_CONFIGS.items():
        sim = DynamicSim(prog, config=config)
        res = sim.run()
        assert res.output == expected.output, key
        assert sim.mem.snapshot() == ref.mem.snapshot(), key
