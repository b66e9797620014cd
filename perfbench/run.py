"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload grade_selftest --seed 7 \\
        --seconds 20 --trace 0

Builds the workload's inputs from ``--seed`` once, starts a few
processes that only set up, then fresh measured processes
(``child.py``) one after another while the next one should end within
``--seconds`` (at least three).  Each measured process sets up, runs the
timed operation once with ``jobs=1`` and reports its outputs.  Every
output is checked against the committed reference (``references.json``)
when the seed has one, and against the first process otherwise, since
the simulator is deterministic.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json as
medians over the processes.  Times are host seconds scaled to a CPU that
runs the speed probe of ``child.py`` in ``PROBE_REFERENCE_US``; a
shared host's own speed swings would otherwise decide the figures.
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics as medians over the traced ones, plus the tracing
overhead (traced minus untraced ``run_s``).  The last stdout line is the
JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
REFERENCES = os.path.join(HERE, "references.json")
MIN_RUNS = 3
#: Extra processes per invocation that only set up, for ``setup_s``.
SETUP_ONLY = 3
#: Probe time of the reference CPU the reported times are scaled to.
PROBE_REFERENCE_US = 100.0
#: Each invocation must end within this many seconds.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="run lengths (tiny is the smoke test's)")
    p.add_argument("--record", action="store_true",
                   help="store this seed's outputs as the reference")
    return p.parse_args(argv)


def spawn(inputs_path: str, workload: str, mode: str,
          timeout: float) -> Dict:
    """One measured process; returns its result plus ``setup_s``."""
    spans = os.path.join(WORK, f"spans-{workload}.jsonl")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), inputs_path,
         workload, mode, spans],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode:
        raise BenchError(f"measured process failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["timed_start"] - spawned
    out["setup_scaled_s"] = (out["setup_s"] * PROBE_REFERENCE_US
                             / out["setup_probe_us"])
    if "run_s" in out:
        out["run_scaled_s"] = (out["run_s"] * PROBE_REFERENCE_US
                               / out["probe_us"])
    return out


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def expected_outputs(workload: str, seed: int, size: str,
                     first: Dict) -> Dict:
    """Reference outputs for this seed, or the first process's."""
    refs = {}
    if size == "full" and os.path.exists(REFERENCES):
        with open(REFERENCES) as fh:
            refs = json.load(fh).get(workload, {})
    if str(seed) in refs:
        return refs[str(seed)]
    expected = dict(first)
    if workload == "generate" and refs:
        # The table and program do not depend on the seed.
        default = next(iter(refs.values()))
        expected.update(program=default["program"], table=default["table"])
    return expected


def check(workload: str, runs: List[Dict], expected: Dict):
    """(attempted, failed) over every measured process."""
    import workloads
    attempted = failed = 0
    for run in runs:
        attempted += len(run["unit_ok"])
        if workload == "generate":
            failed += not workloads.generate_matches(run["outputs"],
                                                     expected)
        else:
            failed += workloads.count_grade_failures(
                run["outputs"], run["unit_ok"], expected)
    return attempted, failed


def record(workload: str, seed: int, outputs: Dict) -> None:
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as fh:
            refs = json.load(fh)
    refs.setdefault(workload, {})[str(seed)] = outputs
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: run from a checkout of the repository "
              "(src/repro not found)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    from tracing import COVERAGE_SLACK

    began = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    inputs_path = os.path.join(WORK, f"{args.workload}-{args.seed}.json")
    with open(inputs_path, "w") as fh:
        json.dump(workloads.make_inputs(args.workload, args.seed, args.size),
                  fh)

    kinds = (False, True) if args.trace else (False,)
    runs: Dict[bool, List[Dict]] = {kind: [] for kind in kinds}
    min_runs = MIN_RUNS if not args.trace else 2
    walls: List[float] = []
    setups: List[Dict] = []
    try:
        for _ in range(SETUP_ONLY):
            setups.append(spawn(inputs_path, args.workload, "setup",
                                DEADLINE_S))
        measured = time.monotonic()
        # Start another process only while it should end within the
        # measuring window, but always run the minimum.
        while (any(len(r) < min_runs for r in runs.values())
               or time.monotonic() - measured + statistics.median(walls)
               < args.seconds):
            kind = kinds[len(walls) % len(kinds)]
            left = DEADLINE_S - (time.monotonic() - began)
            start = time.monotonic()
            runs[kind].append(spawn(inputs_path, args.workload,
                                    "1" if kind else "0", left))
            walls.append(time.monotonic() - start)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in (inputs_path, inputs_path + ".checkpoint.jsonl"):
            if os.path.exists(path):
                os.remove(path)

    every = [run for kind in kinds for run in runs[kind]]
    expected = expected_outputs(args.workload, args.seed, args.size,
                                every[0]["outputs"])
    attempted, failed = check(args.workload, every, expected)
    correct = failed == 0
    plain = runs[False]
    setup_runs = every + setups
    print(f"{args.workload} seed {args.seed}: {len(every)} processes, "
          f"{failed}/{attempted} operations failed")
    for name, runs_ in (("run", plain), ("setup", setup_runs)):
        for key in (f"{name}_s", f"{name}_scaled_s"):
            print(f"  {key:14s} {quartiles([r[key] for r in runs_])}")

    if args.trace:
        traced = runs[True]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # Layer times are host seconds of the traced processes; the
        # overhead compares scaled times, as run_s does.
        values["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
        values["trace.overhead_s"] = (
            statistics.median(r["run_scaled_s"] for r in traced)
            - statistics.median(r["run_scaled_s"] for r in plain))
        for name in sorted(values):
            print(f"  {name:32s} {values[name]:.6g}")
        if values["trace.coverage"] < 1 - COVERAGE_SLACK:
            print(f"error: top-level spans cover only "
                  f"{values['trace.coverage']:.1%} of the traced run_s",
                  file=sys.stderr)
            correct = False
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": statistics.median(r["run_scaled_s"] for r in plain),
            "setup_s": statistics.median(r["setup_scaled_s"]
                                         for r in setup_runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "success_rate": 1 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    if args.record:
        record(args.workload, args.seed, every[0]["outputs"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
