"""Tests for Table 1 (simple datapath) metrics."""

import pytest

from repro.dsp.simple import SimpleOp
from repro.metrics.simple_metrics import (
    SimpleVariant,
    build_table1,
    measure_simple_controllability,
    measure_simple_observability,
    render_table1,
    table1_variants,
)
from repro.runtime.errors import ConfigError


def test_table1_has_eight_rows():
    variants = table1_variants()
    assert len(variants) == 8
    assert [v.label for v in variants[:2]] == ["Add 0", "Add R"]


@pytest.fixture(scope="module")
def table1():
    return build_table1(n_samples=200, n_good=12, seed=3)


def test_mult_controllable_everywhere(table1):
    for row in table1.values():
        if "Mult" in row:
            assert row["Mult"].c > 0.8


def test_alu_modes_match_rows(table1):
    assert "Add" in table1["Add 0"]
    assert "Sub" not in table1["Add 0"]
    assert "Sub" in table1["Sub R"]
    assert "Clear" in table1["Clr 0"]
    assert "Add" in table1["Mac R"]


def test_random_acc_state_raises_alu_controllability(table1):
    assert table1["Add R"]["Add"].c > table1["Add 0"]["Add"].c
    assert table1["Sub R"]["Sub"].c > table1["Sub 0"]["Sub"].c


def test_mac_r_covers_three_columns(table1):
    """The paper's Phase 1 walkthrough: 'Mac R covers three columns'."""
    covered = [label for label, cell in table1["Mac R"].items()
               if cell.covered()]
    assert len(covered) >= 3
    assert "Mult" in covered and "Acc" in covered


def test_clear_blocks_mult_observability(table1):
    """Paper Table 1: Clr rows have Mult O = 0.00."""
    assert table1["Clr 0"]["Mult"].o == 0.0
    assert table1["Clr R"]["Mult"].o == 0.0


def test_mult_observable_under_mac(table1):
    assert table1["Mac R"]["Mult"].o > 0.9


def test_acc_observability_high(table1):
    """The accumulator drives the output port: O ≈ 0.99 (paper)."""
    assert table1["Add R"]["Acc"].o > 0.9


def test_render_table1(table1):
    text = render_table1(table1)
    assert "Mult" in text and "Clear" in text
    assert "Add 0" in text
    # Every row of Table 1 should be present.
    for variant in table1_variants():
        assert variant.label in text


def test_individual_engines_deterministic():
    v = SimpleVariant(SimpleOp.MAC, "R")
    a = measure_simple_controllability(v, n_samples=100, seed=1)
    b = measure_simple_controllability(v, n_samples=100, seed=1)
    assert a == b
    oa = measure_simple_observability(v, n_good=5, seed=2)
    ob = measure_simple_observability(v, n_good=5, seed=2)
    assert oa == ob


def test_engines_reject_unusable_sample_counts():
    """Like the DSP engines: C needs two samples, O one good machine."""
    v = SimpleVariant(SimpleOp.ADD, "0")
    with pytest.raises(ConfigError, match="2 samples"):
        measure_simple_controllability(v, n_samples=1)
    with pytest.raises(ConfigError, match="good simulation"):
        measure_simple_observability(v, n_good=0)
