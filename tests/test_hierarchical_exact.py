"""The hierarchical simulator's shortcuts change no grade.

Forks start from the clean state recorded before every cycle, and a
tier-1 window stops as soon as the fork's state equals the clean state.
Both are claimed exact.  A test-local reference grader drops both: it
replays every fork from reset through the traced (slow) core path and
runs every tier-1 window to its end.  On seeded streams the two must give
the same first-detect map.
"""

import random

import pytest

from repro import obs
from repro.dsp.core import DspCore
from repro.dsp.isa import Instruction, Opcode, encode
from repro.faults.hierarchical import (
    DspFaultUniverse,
    HierarchicalFaultSimulator,
    fault_unit_id,
)

COMPONENTS = ["mux7", "muxb", "limiter", "truncater", "muxg_limiter"]


class ReferenceGrader(HierarchicalFaultSimulator):
    """Replays each fork from reset and runs every tier-1 window out."""

    def _fork_at(self, ctx, t):
        fork = DspCore()
        for cycle in range(t):
            fork.step(ctx.words[cycle], trace={})
        return fork

    def _propagates(self, name, faulty_word, t, ctx, limit):
        fork = self._fork_at(ctx, t)
        end = min(limit, t + self.propagation_window)
        ports = [fork.step(ctx.words[t], overrides={name: faulty_word}).port]
        ports += [fork.step(ctx.words[cycle], trace={}).port
                  for cycle in range(t + 1, end)]
        return ports != ctx.clean_ports[t:end]


class CountingGrader(HierarchicalFaultSimulator):
    """Counts the tier-1 starts and their detections as they happen."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.starts = 0
        self.detections = 0

    def _propagates(self, *args):
        self.starts += 1
        detected = super()._propagates(*args)
        self.detections += detected
        return detected


def _stream(seed, length=160):
    """A seeded looped program: loads, MAC-family work and outputs."""
    rng = random.Random(seed)
    n = 16
    macs = [op for op in Opcode
            if op not in (Opcode.NOP, Opcode.LDI, Opcode.OUT, Opcode.MOV)]
    words = []
    while len(words) < length:
        words.append(encode(Instruction(Opcode.LDI, imm=rng.randrange(256),
                                        dest=rng.randrange(n))))
        words.append(encode(Instruction(rng.choice(macs),
                                        rega=rng.randrange(n),
                                        regb=rng.randrange(n),
                                        dest=rng.randrange(n))))
        words.append(encode(Instruction(Opcode.OUT,
                                        regb=rng.randrange(n))))
    return words[:length]


def _grade(cls, words, **kwargs):
    universe = DspFaultUniverse(components=COMPONENTS, include_regfile=False)
    sim = cls(universe=universe, block_size=64, checkpoint_every=16,
              propagation_window=24, **kwargs)
    result = sim.run(words)
    return sim, {fault_unit_id(f): c for f, c in result.first_detect.items()}


@pytest.mark.parametrize("seed", [1, 2])
def test_shortcuts_keep_first_detect(seed):
    words = _stream(seed)
    with obs.enabled_session(trace=False, metrics=True, profile=False) \
            as session:
        _, fast = _grade(HierarchicalFaultSimulator, words)
        counters = session.registry.snapshot()["counters"]
    _, reference = _grade(ReferenceGrader, words)
    assert fast == reference
    assert any(cycle is not None for cycle in fast.values())
    # The comparison means something only if the exit actually fired.
    assert counters["sim.hier.tier1_converged"] > 0


def test_every_tier1_start_ends_exactly_once():
    """Each tier-1 start ends detected, converged or window-exhausted."""
    words = _stream(seed=3, length=256)
    with obs.enabled_session(trace=False, metrics=True, profile=False) \
            as session:
        sim, _ = _grade(CountingGrader, words)
        counters = session.registry.snapshot()["counters"]
    starts = counters["sim.hier.tier1_starts"]
    assert starts == sim.starts > 0
    assert counters["sim.hier.tier1_detected"] == sim.detections > 0
    assert counters["sim.hier.tier1_converged"] > 0
    assert starts == (counters["sim.hier.tier1_detected"]
                      + counters["sim.hier.tier1_converged"]
                      + counters.get("sim.hier.window_exhausted", 0))
