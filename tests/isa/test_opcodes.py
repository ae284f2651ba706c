"""Tests for the opcode table."""

import dataclasses

from repro.isa import BY_MNEMONIC, FU, OpInfo, Opcode


def test_every_opcode_has_unique_mnemonic():
    assert len(BY_MNEMONIC) == len(Opcode)


def test_loads_are_unsafe_and_long_latency():
    for op in (Opcode.LW, Opcode.LB, Opcode.LBU):
        assert op.can_except
        assert op.is_load
        assert op.latency == 2  # one delay slot, as on the R2000


def test_stores_except_but_write_nothing():
    for op in (Opcode.SW, Opcode.SB):
        assert op.can_except
        assert op.is_store
        assert not op.writes_dst


def test_div_excepts_add_does_not():
    assert Opcode.DIV.can_except
    assert Opcode.REM.can_except
    assert not Opcode.ADD.can_except  # addu semantics


def test_branch_classification():
    assert Opcode.BEQ.is_cond_branch and Opcode.BEQ.is_branch
    assert Opcode.J.is_jump and not Opcode.J.is_cond_branch
    assert Opcode.JAL.is_call and Opcode.JAL.writes_dst
    assert Opcode.JR.is_indirect


def test_fu_assignment_matches_paper_machine():
    # Section 4.3.1: shifter, branch unit, mul/div on side A; memory on side B.
    assert Opcode.SLL.fu is FU.SHIFT
    assert Opcode.BEQ.fu is FU.BRANCH
    assert Opcode.MUL.fu is FU.MULDIV
    assert Opcode.LW.fu is FU.MEM
    assert Opcode.ADD.fu is FU.ALU


def test_muldiv_longer_than_alu():
    assert Opcode.MUL.latency > Opcode.ADD.latency
    assert Opcode.DIV.latency > Opcode.MUL.latency


def test_member_attributes_mirror_opinfo():
    # Every OpInfo field is a plain attribute of the member; a field added
    # to OpInfo without one fails here.
    for op in Opcode:
        assert op.info is op.value
        for f in dataclasses.fields(OpInfo):
            assert getattr(op, f.name) == getattr(op.info, f.name), (op, f.name)
        assert op.is_branch == (op.info.is_cond_branch or op.info.is_jump)
        assert op.is_mem == (op.info.is_load or op.info.is_store)
