"""Block entry points of the fault simulator agree with the single-pattern one.

:class:`CombFaultSimulator` grades a whole block of patterns at once,
packed one pattern per integer bit: ``detect`` and ``local_detection``
over one block, ``run_with_dropping`` over a stream of blocks.
``faulty_output_word`` evaluates a single pattern.  On seeded random
netlists and on a paper-core component, every block answer must equal
what the single-pattern evaluation (or the undropped ``detect`` mask)
gives pattern by pattern — a packing, unpacking or block-offset slip
shows up as a disagreement.

Any disagreeing random netlist is dumped to ``tests/artifacts/`` as a
replayable JSON repro artifact, mirroring the cross-validation sweep.
"""

import json
import random
from pathlib import Path

import pytest

from repro.faults.combsim import CombFaultSimulator
from repro.logic.random_nets import netlist_to_doc, random_netlist
from repro.logic.simulator import unpack_output
from repro.runtime.cache import clear_caches

N_CASES = 25
ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def _dump_failure(netlist, seed, **extra):
    ARTIFACT_DIR.mkdir(exist_ok=True)
    doc = netlist_to_doc(netlist)
    doc["xval"] = {"seed": seed, **extra}
    path = ARTIFACT_DIR / f"blocks_{netlist.name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _netlist(seed):
    return random_netlist(2000 + seed, n_inputs=4 + seed % 5,
                          n_gates=24 + seed % 33,
                          name=f"randblocks{seed}")


def _block(netlist, seed, width=9):
    rng = random.Random(("block-patterns", seed).__repr__())
    n_in = len(netlist.buses["in"])
    return {"in": [rng.getrandbits(n_in) for _ in range(width)]}


def _first_set_bit(mask):
    return (mask & -mask).bit_length() - 1 if mask else None


@pytest.mark.parametrize("seed", range(N_CASES))
def test_local_detection_and_faulty_words(seed):
    """``local_detection`` over a block equals ``detect`` on the same
    block and ``faulty_output_word`` on each pattern on its own."""
    clear_caches()
    netlist = _netlist(seed)
    block = _block(netlist, seed)
    sim = CombFaultSimulator(netlist)
    n_patterns = len(block["in"])
    good = sim.good_values(block, n_patterns)
    good_bits = [good[n] for n in netlist.buses["out"]]
    good_words = [unpack_output(good_bits, k) for k in range(n_patterns)]
    masks = sim.detect(block)
    bad = []
    for fault in sim.fault_list.faults:
        local = sim.local_detection(fault, block, ["out"])
        singles = [sim.faulty_output_word(fault, {"in": w}, "out")
                   for w in block["in"]]
        differs = sum(1 << k for k in range(n_patterns)
                      if singles[k] != good_words[k])
        if local.detected_mask != masks[fault] \
                or local.detected_mask != differs \
                or local.faulty_words["out"] != singles:
            bad.append(fault.describe(netlist))
    if bad:
        path = _dump_failure(netlist, seed, check="local_detection",
                             mismatched=bad[:10])
        pytest.fail(f"seed {seed}: {len(bad)} fault(s) disagree; "
                    f"repro dumped to {path}")


def test_paper_core_component_parity():
    """On a real paper-core component, dropping over a stream of blocks
    reports each fault's first detecting pattern at its global index:
    the lowest set bit of the undropped mask over the whole stream."""
    from repro.dsp.components import component_by_name
    clear_caches()
    netlist = component_by_name("addsub").netlist()
    rng = random.Random(("blocks-addsub",).__repr__())
    in_nets = set(netlist.inputs)
    buses = {name: nets for name, nets in netlist.buses.items()
             if nets and all(n in in_nets for n in nets)}
    blocks = [{name: [rng.getrandbits(len(nets)) for _ in range(width)]
               for name, nets in buses.items()} for width in (1, 3, 27)]
    flat = {name: [w for b in blocks for w in b[name]] for name in buses}
    sim = CombFaultSimulator(netlist)
    masks = sim.detect(flat)
    first = sim.run_with_dropping(blocks)
    assert first == {f: _first_set_bit(m) for f, m in masks.items()}
    # Some fault is first caught past the first block, so the global
    # offsets are exercised.
    assert any(v is not None and v >= 4 for v in first.values())
