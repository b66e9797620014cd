"""Tests for Phase 3: constraint study, frequency boosting, one-shots."""

import pytest

from repro.bist.template import RandomLoad
from repro.dsp.isa import Instruction, Opcode
from repro.selftest.phase3 import (
    ConstraintResult,
    OneShotSequence,
    append_one_shots,
    boost_frequency,
    constraint_study,
    discardable_modes,
)
from repro.selftest.program import ProgramLine, TestProgram


@pytest.fixture(scope="module")
def shifter_study():
    return constraint_study("shifter", n_patterns=2048)


def test_constraint_study_shape(shifter_study):
    """The paper's finding: excluding mode 01 collapses coverage, the
    fixed-shift modes barely matter."""
    by_modes = {r.allowed_modes: r for r in shifter_study}
    baseline = by_modes[(0, 1, 2, 3)]
    no_01 = by_modes[(0, 2, 3)]
    no_10 = by_modes[(0, 1, 3)]
    no_11 = by_modes[(0, 1, 2)]
    only_00_01 = by_modes[(0, 1)]
    assert no_01.fault_coverage < baseline.fault_coverage - 0.2
    assert no_10.n_undetected - baseline.n_undetected <= 8
    assert no_11.n_undetected - baseline.n_undetected <= 8
    assert only_00_01.n_undetected - baseline.n_undetected <= 12


def test_discardable_modes(shifter_study):
    """Modes 10 and 11 are discardable; mode 01 never is."""
    modes = discardable_modes(shifter_study, loss_budget=10)
    assert 2 in modes and 3 in modes
    assert 1 not in modes


def test_constraint_study_constrains_the_control_port():
    """mux7's control port is ``sel``: restricting it to one leg leaves
    the other leg's faults undetected, so neither mode is discardable."""
    study = constraint_study("mux7", n_patterns=512)
    assert [r.allowed_modes for r in study] == [(0, 1), (1,), (0,)]
    assert [r.n_undetected for r in study] == [0, 17, 25]
    assert discardable_modes(study) == []


def test_constraint_result_describe():
    r = ConstraintResult("shifter", (0, 1), 100, 95, 5)
    assert "shifter" in r.describe()
    assert "95.00%" in r.describe()


def boosted_fixture():
    program = TestProgram()
    program.add(RandomLoad(0), phase="wrapper")
    program.add(Instruction(Opcode.SHIFTA, rega=0, dest=2),
                phase="phase1", covers=[("shifter", 1)])
    program.add(Instruction(Opcode.OUT, regb=2), phase="wrapper",
                comment="observe result")
    program.add(Instruction(Opcode.MPYA, rega=0, regb=1, dest=3),
                phase="phase1", covers=[("multiplier", 0)])
    return program


def test_boost_frequency_repeats_targets():
    program = boosted_fixture()
    boosted = boost_frequency(program, components=("shifter",), repeats=3)
    shift_count = sum(
        1 for line in boosted.loop_lines
        if not isinstance(line.item, RandomLoad)
        and line.item.opcode is Opcode.SHIFTA
    )
    assert shift_count == 3
    # The wrapper following the shift is repeated too.
    out_count = sum(
        1 for line in boosted.loop_lines
        if not isinstance(line.item, RandomLoad)
        and line.item.opcode is Opcode.OUT
    )
    assert out_count == 3
    # Non-target instructions appear once.
    mpy_count = sum(
        1 for line in boosted.loop_lines
        if not isinstance(line.item, RandomLoad)
        and line.item.opcode is Opcode.MPYA
    )
    assert mpy_count == 1


def test_boost_frequency_validates():
    with pytest.raises(ValueError):
        boost_frequency(boosted_fixture(), repeats=0)


def test_boost_repeats_1_is_identity():
    program = boosted_fixture()
    assert len(boost_frequency(program, repeats=1)) == len(program)


def test_append_one_shots():
    program = boosted_fixture()
    from repro.faults.model import Fault
    seq = OneShotSequence(
        component="addsub",
        fault=Fault(0, 1),
        lines=[ProgramLine(item=Instruction(Opcode.LDI, imm=1, dest=4)),
               ProgramLine(item=Instruction(Opcode.OUT, regb=4))],
    )
    extended = append_one_shots(program, [seq])
    assert len(extended.one_shot_lines) == 2
    assert all(not l.in_loop for l in extended.one_shot_lines)
    assert len(extended.loop_lines) == len(program.loop_lines)
    assert extended.n_vectors(10) == 2 + 10 * len(program.loop_lines)
