"""Layer tracing for the benchmark's traced runs.

The tracer patches the public entry points of the ``src/repro`` layers
from outside (``src/`` is not changed) and times every call:

* coarse calls (campaign run, prepare, one span per graded fault, the
  metrics engines, the Phase 1/2 searches, expansion and MISR) become
  recorded spans -- name, layer, start, end, parent, run id;
* hot calls (``DspCore.step``, local detection, the tier-2 gate
  evaluation) are only aggregated: their time still leaves their
  parent's self time, but no span is kept per call.

A layer's self time is the time spent in its calls minus the time of the
traced calls nested inside them.  Time outside every traced call (for
example program assembly) is attributed to no layer; ``coverage`` is the
share of the run the top-level spans cover.

ISS steps are attributed to the outermost enclosing call (prepare,
comb grading, storage grading, metrics measurement, Phase 2, MISR).
Inside comb grading the override kind passed to ``step`` splits them
further: a fresh fork replays without overrides (``fork_replay``), an
integer override starts a tier-1 single-cycle injection (``tier1``) and
a callable override a tier-2 continuous injection (``tier2``).
"""

from __future__ import annotations

import json
import os
import statistics
import time
import uuid
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: The top-level spans must cover at least this share of the traced run.
COVERAGE_SLACK = 0.05

STEP_BUCKETS = ("fork_replay", "tier1", "tier2", "storage", "prepare",
                "metrics", "phase2", "misr")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.t0 = time.perf_counter()
        self.spans: List[Dict] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.unit_s: List[float] = []
        self._frames: List[List[float]] = []   # [child seconds] per open call
        self._open: List[int] = []             # indices of open spans
        self._bucket: Optional[str] = None
        self._comb_mode = "fork_replay"
        self._in_gate = False
        self._patches: List = []

    # ------------------------------------------------------------------
    def timed(self, fn: Callable, name: str, layer: str, record: bool,
              bucket: Optional[str] = None,
              on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to time each call into ``layer``."""
        frames, spans, opened = self._frames, self.spans, self._open
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self._bucket
            if bucket is not None and outer is None:
                self._bucket = bucket
            if record:
                opened.append(len(spans))
                spans.append({"run": self.run_id, "id": len(spans),
                              "parent": opened[-2] if len(opened) > 1
                              else None,
                              "name": name, "layer": layer})
            frame = [0.0]
            frames.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                elapsed = end - start
                self.self_s[layer] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                self.incl_s[name] += elapsed
                self.counts[name] += 1
                if record:
                    span = spans[opened.pop()]
                    span["start"] = start - self.t0
                    span["end"] = end - self.t0
                self._bucket = outer
            if on_result is not None:
                on_result(result, elapsed)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every traced entry point (call before the timed run)."""
        import repro.selftest.generator as generator
        import repro.selftest.phase2 as phase2
        import repro.selftest.vectors as vectors
        from repro.dsp.core import CoreState, DspCore
        from repro.faults.combsim import CombFaultSimulator
        from repro.faults.hierarchical import HierarchicalFaultSimulator
        from repro.metrics.controllability import ControllabilityEngine
        from repro.metrics.observability import ObservabilityEngine
        from repro.runtime.campaigns import HierarchicalCampaign

        counts = self.counts

        def grade_done(result, elapsed):
            self.unit_s.append(elapsed)
            counts["faults.graded"] += 1
            if result is not None:
                counts["faults.detected"] += 1

        def comb_done(result, elapsed):
            grade_done(result, elapsed)
            if result is not None:
                counts["faults.comb_detected"] += 1

        def each(owner, attr, name, layer, record, **kw):
            self.patch(owner, attr, self.timed(getattr(owner, attr), name,
                                               layer, record, **kw))

        each(HierarchicalCampaign, "run", "runtime.campaign", "runtime", True)
        each(HierarchicalFaultSimulator, "prepare", "faults.prepare",
             "faults", True, bucket="prepare")
        each(HierarchicalFaultSimulator, "grade_comb_fault",
             "faults.grade_comb", "faults", True, bucket="comb",
             on_result=comb_done)
        each(HierarchicalFaultSimulator, "grade_storage_fault",
             "faults.grade_storage", "faults", True, bucket="storage",
             on_result=grade_done)
        each(ControllabilityEngine, "measure", "metrics.controllability",
             "metrics", True, bucket="metrics")
        each(ObservabilityEngine, "measure", "metrics.observability",
             "metrics", True, bucket="metrics")
        each(generator, "run_phase1", "selftest.phase1", "selftest", True)
        each(generator, "run_phase2", "selftest.phase2", "selftest", True,
             bucket="phase2")
        each(phase2, "self_sequence_for", "selftest.self_sequence",
             "selftest", True)
        each(vectors, "expand_program", "selftest.expand", "selftest", True)
        each(vectors, "run_with_misr", "selftest.misr", "selftest", True,
             bucket="misr")
        self._install_hot(CombFaultSimulator, CoreState, DspCore)

    def _install_hot(self, sim_cls, state_cls, core_cls) -> None:
        counts = self.counts

        gate = self.timed(sim_cls.faulty_output_word, "faults.tier2_gate",
                          "faults", False)

        def faulty_output_word(*args, **kwargs):
            self._in_gate = True
            try:
                return gate(*args, **kwargs)
            finally:
                self._in_gate = False

        def local(fn, name, on_result=None):
            timed = self.timed(fn, name, "faults", False, on_result=on_result)

            def wrapper(*args, **kwargs):
                if self._in_gate or self._bucket != "comb":
                    return fn(*args, **kwargs)
                return timed(*args, **kwargs)
            return wrapper

        def excited(result, elapsed):
            if result[0]:
                counts["faults.local_excited"] += 1

        self.patch(sim_cls, "faulty_output_word", faulty_output_word)
        self.patch(sim_cls, "simulate_fault",
                   local(sim_cls.simulate_fault, "faults.local_detect",
                         excited))
        self.patch(sim_cls, "good_values",
                   local(sim_cls.good_values, "faults.good_values"))

        copy = state_cls.copy

        def state_copy(state):
            counts["dsp.state_copies"] += 1
            return copy(state)

        self.patch(state_cls, "copy", state_copy)

        init = core_cls.__init__

        def core_init(core, state=None, *args, **kwargs):
            if state is not None and self._bucket == "comb":
                counts["faults.forks"] += 1
                self._comb_mode = "fork_replay"
            init(core, state, *args, **kwargs)

        self.patch(core_cls, "__init__", core_init)

        step = self.timed(core_cls.step, "dsp.step", "dsp", False)

        def core_step(core, word, overrides=None, trace=None):
            bucket = self._bucket
            if bucket == "comb":
                if overrides:
                    kind = "tier2" if callable(
                        next(iter(overrides.values()))) else "tier1"
                    if kind == "tier1" or self._comb_mode != "tier2":
                        counts[f"faults.{kind}_starts"] += 1
                    self._comb_mode = kind
                bucket = self._comb_mode
            counts[f"dsp.steps.{bucket or 'other'}"] += 1
            return step(core, word, overrides, trace)

        self.patch(core_cls, "step", core_step)

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines (once, when the run ends)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def coverage(self, run_s: float) -> float:
        """Share of ``run_s`` covered by the top-level spans."""
        top = sum(s["end"] - s["start"] for s in self.spans
                  if s["parent"] is None)
        return top / run_s

    def layer_metrics(self, run_s: float) -> Dict[str, float]:
        """The per-layer metrics of this traced run (see BENCHMARK.json)."""
        c, incl, self_s = self.counts, self.incl_s, self.self_s
        starts = c["faults.tier1_starts"] + c["faults.tier2_starts"]
        units = sorted(self.unit_s)
        metrics = {
            "dsp.steps": sum(c[f"dsp.steps.{b}"]
                             for b in STEP_BUCKETS + ("other",)),
            "dsp.step_self_s": self_s["dsp"],
            "dsp.state_copies": c["dsp.state_copies"],
            "faults.forks": c["faults.forks"],
            "faults.self_s": self_s["faults"],
            "faults.prepare_s": incl["faults.prepare"],
            "faults.grade_comb_s": incl["faults.grade_comb"],
            "faults.grade_storage_s": incl["faults.grade_storage"],
            "faults.local_detect_s": (incl["faults.local_detect"]
                                      + incl["faults.good_values"]),
            "faults.local_detect_calls": c["faults.local_detect"],
            "faults.local_excited": c["faults.local_excited"],
            "faults.tier2_gate_s": incl["faults.tier2_gate"],
            "faults.tier2_gate_calls": c["faults.tier2_gate"],
            "faults.tier1_starts": c["faults.tier1_starts"],
            "faults.tier2_starts": c["faults.tier2_starts"],
            "faults.detected": c["faults.detected"],
            "faults.graded": c["faults.graded"],
            "faults.starts_per_detect": (starts / c["faults.comb_detected"]
                                         if c["faults.comb_detected"]
                                         else 0.0),
            "faults.unit_p50_ms": (1e3 * statistics.median(units)
                                   if units else 0.0),
            "faults.unit_p99_ms": (1e3 * units[int(0.99 * (len(units) - 1))]
                                   if units else 0.0),
            "metrics.self_s": self_s["metrics"],
            "metrics.controllability_s": incl["metrics.controllability"],
            "metrics.observability_s": incl["metrics.observability"],
            "metrics.variants": c["metrics.controllability"],
            "selftest.self_s": self_s["selftest"],
            "selftest.phase1_s": incl["selftest.phase1"],
            "selftest.phase2_s": incl["selftest.phase2"],
            "selftest.self_sequence_calls": c["selftest.self_sequence"],
            "selftest.expand_s": incl["selftest.expand"],
            "selftest.misr_s": incl["selftest.misr"],
            "runtime.overhead_s": self_s["runtime"],
            "runtime.units": c["faults.graded"],
            "trace.coverage": self.coverage(run_s),
        }
        for bucket in STEP_BUCKETS:
            metrics[f"dsp.steps.{bucket}"] = c[f"dsp.steps.{bucket}"]
        return metrics
