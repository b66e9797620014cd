"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench

Runs every workload at the tiny size, untraced and traced, and checks
that the result line names every metric of BENCHMARK.json with its
unit.  Seed 11 has no committed reference, so a correct result also
shows that repeated fresh processes gave identical outputs.  The output
check must fail on a perturbed first-detect map.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "11", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_check_fails_on_perturbed_first_detect(tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(
        workloads.make_inputs("grade_bist", 11, "tiny")))
    run = child.main(str(inputs), "grade_bist", "0",
                     str(tmp_path / "spans.jsonl"))
    outputs, unit_ok = run["outputs"], run["unit_ok"]
    assert workloads.count_grade_failures(outputs, unit_ok, outputs) == 0

    cycles = list(outputs["first_detect"])
    hit = next(i for i, c in enumerate(cycles) if c is not None)
    miss = cycles.index(None)
    cycles[hit] += 1
    cycles[miss] = 0
    perturbed = dict(outputs, first_detect=cycles)
    assert workloads.count_grade_failures(perturbed, unit_ok, outputs) == 2

    flagged = [True] * len(unit_ok)
    flagged[miss] = False
    assert workloads.count_grade_failures(outputs, flagged, outputs) == 1
