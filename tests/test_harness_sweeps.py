"""Tests for the design-space sweep driver's artifact contract."""

import json

from repro.dsp.family import CoreSpec
from repro.harness.sweeps import SweepConfig, run_sweep, validate_sweep_doc


def _old_point_record(spec):
    """A finished-point record as sweeps wrote it while every point still
    ran a two-engine parity check (extra ``parity_ok`` key)."""
    return {
        "spec": spec.to_doc(), "label": spec.label(), "area": 1583,
        "n_columns": 40, "n_covered_columns": 38,
        "phase1_instructions": 9, "phase2_sequences": 2,
        "still_uncovered": 0, "program_length": 24, "n_vectors": 120,
        "signature": 12345, "n_faults": 1000, "n_detected": 560,
        "fault_coverage": 0.56, "lint_errors": 0, "parity_ok": True,
        "campaign": {"metrics": {}, "grade": {}},
    }


def test_resume_accepts_point_records_with_parity_ok(tmp_path):
    spec = CoreSpec.paper()
    record = _old_point_record(spec)
    (tmp_path / f"{spec.label()}.result.json").write_text(
        json.dumps(record), encoding="utf-8")
    doc = run_sweep(SweepConfig(specs=[spec]),
                    checkpoint_dir=str(tmp_path), resume=True)
    assert validate_sweep_doc(doc) == []
    assert doc["points"] == [record]
    assert "engine" not in doc["context"]
