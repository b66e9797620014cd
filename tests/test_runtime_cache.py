"""Tests for the shared compile/trace caches (repro.runtime.cache)."""

import random

import pytest

from repro.dsp.components import component_by_name
from repro.faults.combsim import CombFaultSimulator
from repro.faults.model import collapse_faults
from repro.logic.simulator import CombSimulator, pack_patterns
from repro.runtime import cache
from repro.runtime.cache import (
    cache_stats,
    clear_caches,
    compiled_evaluator,
    compiled_evaluator3,
    netlist_hash,
)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def fresh_netlist(name="mux7"):
    """An independently built netlist (``ComponentSpec.netlist`` caches)."""
    return component_by_name(name).factory()


# ----------------------------------------------------------------------
# Structural hashing
# ----------------------------------------------------------------------
def test_netlist_hash_stable_across_independent_builds():
    a = fresh_netlist()
    b = fresh_netlist()
    assert a is not b
    assert netlist_hash(a) == netlist_hash(b)


def test_netlist_hash_distinguishes_structures():
    mux = component_by_name("mux7").netlist()
    shifter = component_by_name("shifter").netlist()
    assert netlist_hash(mux) != netlist_hash(shifter)


def test_netlist_hash_memoised_and_invalidated_on_growth():
    netlist = fresh_netlist()
    first = netlist_hash(netlist)
    assert netlist._structural_hash[1] == first
    assert netlist_hash(netlist) == first
    # Growing the netlist changes its shape, so the memo is discarded.
    from repro.logic.gates import GateType
    extra = netlist.add_net("extra_for_hash_test")
    netlist.add_gate(GateType.NOT, extra, [netlist.inputs[0]])
    assert netlist_hash(netlist) != first


# ----------------------------------------------------------------------
# Compiled-evaluator dedupe
# ----------------------------------------------------------------------
def test_compiled_evaluator_shared_across_instances():
    a = fresh_netlist()
    b = fresh_netlist()
    assert compiled_evaluator(a) is compiled_evaluator(b)
    stats = cache_stats()
    assert stats["compile_misses"] == 1
    assert stats["compile_hits"] == 1


def test_compiled_evaluator3_cache_is_separate():
    netlist = component_by_name("mux7").netlist()
    two = compiled_evaluator(netlist)
    three = compiled_evaluator3(netlist)
    assert two is not three
    assert compiled_evaluator3(netlist) is three


def test_simulators_share_one_compiled_evaluator():
    """CombFaultSimulator instances over identical netlists compile once."""
    sims = []
    for _ in range(3):
        netlist = fresh_netlist()
        sims.append(CombFaultSimulator(netlist, collapse_faults(netlist)))
    compiled = {id(sim._compiled) for sim in sims}
    assert len(compiled) == 1


# ----------------------------------------------------------------------
# Good-machine trace cache
# ----------------------------------------------------------------------
def block_for(netlist, n_patterns=16, seed=3):
    rng = random.Random(seed)
    return {
        name: [rng.randrange(1 << len(nets)) for _ in range(n_patterns)]
        for name, nets in netlist.buses.items()
        if all(n in netlist.inputs for n in nets)
    }


def test_good_values_cached_across_simulator_instances():
    netlist = fresh_netlist()
    faults = collapse_faults(netlist)
    block = block_for(netlist)
    first = CombFaultSimulator(netlist, faults).good_values(block, 16)
    again = CombFaultSimulator(fresh_netlist(), faults) \
        .good_values(block, 16)
    assert again is first          # replayed by reference, not recomputed
    stats = cache_stats()
    assert stats["trace_misses"] == 1
    assert stats["trace_hits"] == 1
    assert stats["trace_hit_rate"] == 0.5


def test_cached_good_values_matches_direct_simulation():
    netlist = component_by_name("mux7").netlist()
    block = block_for(netlist)
    cached = CombFaultSimulator(netlist, collapse_faults(netlist)) \
        .good_values(block, 16)
    packed = {}
    for name, words in block.items():
        for i, net in enumerate(netlist.buses[name]):
            packed[net] = pack_patterns(words, i)
    direct = CombSimulator(netlist).run(packed, 16)
    assert list(cached) == list(direct)


def test_trace_cache_key_includes_block_and_width():
    netlist = component_by_name("mux7").netlist()
    sim = CombFaultSimulator(netlist, collapse_faults(netlist))
    a = sim.good_values(block_for(netlist, seed=3), 16)
    b = sim.good_values(block_for(netlist, seed=4), 16)
    assert a is not b
    assert cache_stats()["trace_misses"] == 2


def test_trace_cache_lru_bound(monkeypatch):
    monkeypatch.setattr(cache, "TRACE_CACHE_MAX", 2)
    netlist = component_by_name("mux7").netlist()
    sim = CombFaultSimulator(netlist, collapse_faults(netlist))
    for seed in range(4):
        sim.good_values(block_for(netlist, seed=seed), 16)
    assert cache_stats()["trace_blocks"] == 2
    # The evicted first block recomputes (a miss, not a hit).
    sim.good_values(block_for(netlist, seed=0), 16)
    assert cache_stats()["trace_hits"] == 0
    assert cache_stats()["trace_misses"] == 5


def test_clear_caches_resets_everything():
    netlist = component_by_name("mux7").netlist()
    compiled_evaluator(netlist)
    CombFaultSimulator(netlist, collapse_faults(netlist)) \
        .good_values(block_for(netlist), 16)
    clear_caches()
    stats = cache_stats()
    assert stats["compiled_evaluators"] == 0
    assert stats["trace_blocks"] == 0
    assert stats["compile_hits"] == stats["compile_misses"] == 0
    assert stats["cone_hits"] == stats["cone_misses"] == 0
    assert stats["trace_hits"] == stats["trace_misses"] == 0
