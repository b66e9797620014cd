"""One measured run: a fresh process that sets up, runs one workload
operation and prints its result as one JSON line.

    python3 perfbench/child.py INPUTS.json WORKLOAD MODE SPANS.jsonl

MODE is ``0`` (untraced), ``1`` (traced) or ``setup`` (stop after
set-up).  Started by ``run.py``, which takes set-up time from the
moment it spawned this process to the ``timed_start`` this process
reports (both on the system-wide monotonic clock).

On a shared virtual machine the CPU speed can swing by a factor of up
to two over seconds to minutes, for identical work.  A speed probe
therefore times a fixed pure-Python loop every 20 ms throughout the
process; ``run.py`` scales each time by the probe's speed over the same
interval.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

PROBE_PERIOD_S = 0.02


class SpeedProbe:
    """Samples how long a fixed loop takes, every ``PROBE_PERIOD_S``."""

    def __init__(self) -> None:
        self.samples: list = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i
        self.samples.append(time.perf_counter() - start)

    def take(self) -> float:
        """Probe time in microseconds since the last ``take``.

        Samples are evenly spaced in wall time, so the work done at
        reference speed is the mean of the per-sample speed (1/time),
        not one over the mean time.  The slowest and fastest tenth are
        dropped: a probe that the host preempts can take a thousand
        times longer.
        """
        speeds, self.samples = sorted(1 / t for t in self.samples), []
        cut = len(speeds) // 10
        kept = speeds[cut:len(speeds) - cut]
        return 1e6 * len(kept) / sum(kept)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main(inputs_path: str, workload: str, mode: str,
         spans_path: str) -> dict:
    probe = SpeedProbe()
    started = time.perf_counter()
    # Every module the timed phase uses is imported here, so its import
    # time counts as set-up.
    import workloads
    from repro.dsp.components import COMPONENTS
    from repro.faults.hierarchical import fault_unit_id
    from repro.metrics.table import build_metrics_table  # noqa: F401
    from repro.runtime.cache import cache_stats
    from repro.runtime.campaigns import HierarchicalCampaign
    from repro.selftest.generator import SelfTestGenerator  # noqa: F401
    from repro.selftest.vectors import run_with_misr
    from tracing import Tracer

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    imported = time.perf_counter()

    campaign = None
    if workload == "generate":
        for spec in COMPONENTS:
            if spec.kind == "comb":
                spec.netlist()
    else:
        checkpoint = None
        if inputs["checkpoint"]:
            checkpoint = inputs_path + ".checkpoint.jsonl"
            if os.path.exists(checkpoint):
                os.remove(checkpoint)
        campaign = HierarchicalCampaign(inputs["words"],
                                        checkpoint=checkpoint, jobs=1)
    built = time.perf_counter()

    if mode == "setup":
        probe.stop()
        return {"timed_start": time.monotonic(),
                "setup_probe_us": probe.take()}
    tracer = Tracer() if mode == "1" else None
    if tracer is not None:
        tracer.install()
    timed_start = time.monotonic()
    setup_probe_us = probe.take()
    t0 = time.perf_counter()
    if campaign is None:
        result = workloads.generate_flow(inputs["size"],
                                         tuple(inputs["lfsr_seeds"]))
    else:
        result = campaign.run()
    run_s = time.perf_counter() - t0
    probe_us = probe.take()
    probe.stop()
    if tracer is not None:
        tracer.unpatch()
    # Cumulative since process start: the universe build compiles too.
    cache = cache_stats()

    out = {"timed_start": timed_start, "run_s": run_s,
           "setup_probe_us": setup_probe_us, "probe_us": probe_us,
           "import_s": imported - started, "universe_s": built - imported,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if campaign is None:
        table, selftest, _, golden = result
        out["outputs"] = workloads.generate_outputs(table, selftest, golden)
        out["unit_ok"] = [True]
    else:
        report = result.report
        first_detect = {fault_unit_id(f): c
                        for f, c in result.result.first_detect.items()}
        out["outputs"] = workloads.grade_outputs(
            first_detect, run_with_misr(campaign.words).signature,
            len(campaign.words))
        clean = {r.unit_id: r.status == "ok" and r.attempts == 1
                 and not r.leaked_threads for r in report.results.values()}
        out["unit_ok"] = [clean.get(i, False) for i in sorted(first_detect)]
    if tracer is not None:
        layers = tracer.layer_metrics(run_s)
        layers.update({
            "logic.compile_misses": cache["compile_misses"],
            "logic.cone_misses": cache["cone_misses"],
            "logic.cone_hits": cache["cone_hits"],
            "logic.trace_hit_rate": (
                cache["trace_hits"]
                / max(1, cache["trace_hits"] + cache["trace_misses"])),
            "runtime.checkpoint_bytes": (
                os.path.getsize(campaign.runner.store.path)
                if campaign is not None and campaign.runner.store else 0),
            "setup.import_s": out["import_s"],
            "setup.universe_s": out["universe_s"],
        })
        out["layers"] = layers
        tracer.write(spans_path)
    return out


if __name__ == "__main__":
    try:
        result = main(*sys.argv[1:5])
    finally:
        # A timer signal after the handler is gone would kill the process.
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    print(json.dumps(result))
