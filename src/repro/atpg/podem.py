"""PODEM combinational ATPG.

Classic PODEM over the project's netlist model, engineered for pure-Python
speed:

* the **good machine** is re-implied with a compiled three-valued
  (bitplane) evaluator (:class:`~repro.logic.compiled.CompiledEvaluator3`);
* the **faulty machine** is an overlay evaluated only over the fault
  sites' transitive fanout cone, which is also where the D-frontier is
  collected;
* decisions are PI-only with objective/backtrace and a backtrack limit.

Multiple fault sites with individual polarities are supported so one
*physical* fault replicated across time frames (sequential ATPG via
:mod:`repro.atpg.unroll`) can be targeted as a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.faults.model import Fault
from repro.logic.gates import GateType
from repro.logic.netlist import Gate, Netlist

X = None  # unknown

#: Controlling value per gate type (None = no controlling value).
_CONTROLLING = {
    GateType.AND: 0, GateType.NAND: 0,
    GateType.OR: 1, GateType.NOR: 1,
}
#: Gate types whose output inverts the underlying function.
_INVERTING = {
    GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT,
}


def _eval3_scalar(kind: GateType, values: List[Optional[int]]) -> Optional[int]:
    """Three-valued gate evaluation over {0, 1, None}."""
    if kind is GateType.AND or kind is GateType.NAND:
        if any(v == 0 for v in values):
            out = 0
        elif all(v == 1 for v in values):
            out = 1
        else:
            return X
        return out ^ 1 if kind is GateType.NAND else out
    if kind is GateType.OR or kind is GateType.NOR:
        if any(v == 1 for v in values):
            out = 1
        elif all(v == 0 for v in values):
            out = 0
        else:
            return X
        return out ^ 1 if kind is GateType.NOR else out
    if kind is GateType.XOR or kind is GateType.XNOR:
        a, b = values[0], values[1]
        if a is None or b is None:
            return X
        out = a ^ b
        return out ^ 1 if kind is GateType.XNOR else out
    if kind is GateType.NOT:
        v = values[0]
        return X if v is None else v ^ 1
    if kind is GateType.BUF:
        return values[0]
    if kind is GateType.CONST0:
        return 0
    if kind is GateType.CONST1:
        return 1
    raise ValueError(f"unknown gate type {kind!r}")


@dataclass
class PodemResult:
    """Outcome of one PODEM run.

    ``backtracks`` counts decision reversals and ``decisions`` counts PI
    assignments tried; together they measure search effort (E5 reports
    the backtrack total).
    """

    fault_sites: Tuple[Fault, ...]
    pattern: Optional[Dict[int, int]]  # PI net -> value (when detected)
    status: str                        # "detected" | "untestable" | "aborted"
    backtracks: int
    decisions: int = 0

    @property
    def detected(self) -> bool:
        return self.status == "detected"

    def pattern_words(self, netlist: Netlist) -> Dict[str, int]:
        """The pattern as words per input bus (unassigned bits are 0)."""
        if self.pattern is None:
            raise ValueError("no pattern (fault not detected)")
        words: Dict[str, int] = {}
        pi_set = set(netlist.inputs)
        for name, nets in netlist.buses.items():
            if not all(n in pi_set for n in nets):
                continue
            word = 0
            for i, net in enumerate(nets):
                if self.pattern.get(net):
                    word |= 1 << i
            words[name] = word
        return words


class _Machines:
    """Good bitplanes plus the faulty overlay for one implication."""

    __slots__ = ("is1", "is0", "overlay")

    def __init__(self, is1: Sequence[int], is0: Sequence[int],
                 overlay: Dict[int, Optional[int]]):
        self.is1 = is1
        self.is0 = is0
        self.overlay = overlay  # net -> faulty value in {0, 1, None}

    def good(self, net: int) -> Optional[int]:
        if self.is1[net]:
            return 1
        if self.is0[net]:
            return 0
        return X

    def faulty(self, net: int) -> Optional[int]:
        if net in self.overlay:
            return self.overlay[net]
        return self.good(net)


class Podem:
    """PODEM test generation for stuck-at faults on a combinational netlist.

    Objective and backtrace use the classic first-X heuristics: excite
    the first unassigned site, propagate through the first X side input
    of a D-frontier gate and justify through the first X gate input.
    """

    def __init__(self, netlist: Netlist, backtrack_limit: int = 2000):
        if netlist.dffs:
            raise ValueError(
                "PODEM needs a combinational netlist; unroll sequential "
                "designs first (repro.atpg.unroll)"
            )
        self.netlist = netlist
        self.order = netlist.levelize()
        self.backtrack_limit = backtrack_limit
        from repro.runtime.cache import compiled_evaluator3
        self._eval3 = compiled_evaluator3(netlist)
        self._driver_gate: Dict[int, Gate] = {
            g.output: g for g in netlist.gates
        }
        self._pi_set = set(netlist.inputs)
        self._po_set = set(netlist.outputs)

    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> PodemResult:
        """Generate a pattern for a single stuck-at fault."""
        return self.generate_multi((fault,))

    def generate_multi(self, faults: Sequence[Fault]) -> PodemResult:
        """Generate a pattern for one fault replicated at several sites."""
        sites = {f.net: f.stuck_at for f in faults}
        cone = self._site_cone(frozenset(sites))
        cone_pos = [n for n in (set(g.output for g in cone) | set(sites))
                    if n in self._po_set]

        assignments: Dict[int, int] = {}
        decisions: List[Tuple[int, int, bool]] = []
        backtracks = 0
        n_decisions = 0

        machines = self._imply(assignments, sites, cone)
        while True:
            if self._detected(machines, cone_pos):
                return PodemResult(
                    fault_sites=tuple(faults),
                    pattern=dict(assignments),
                    status="detected",
                    backtracks=backtracks,
                    decisions=n_decisions,
                )
            objective = self._objective(machines, sites, cone)
            pi: Optional[Tuple[int, int]] = None
            if objective is not None:
                pi = self._backtrace(*objective, machines)
            if pi is None:
                backtracked = False
                while decisions:
                    net, value, flipped = decisions.pop()
                    del assignments[net]
                    if not flipped:
                        backtracks += 1
                        if backtracks > self.backtrack_limit:
                            return PodemResult(tuple(faults), None,
                                               "aborted", backtracks,
                                               n_decisions)
                        decisions.append((net, value ^ 1, True))
                        assignments[net] = value ^ 1
                        backtracked = True
                        break
                if not backtracked:
                    return PodemResult(tuple(faults), None, "untestable",
                                       backtracks, n_decisions)
            else:
                net, value = pi
                assignments[net] = value
                decisions.append((net, value, False))
                n_decisions += 1
            machines = self._imply(assignments, sites, cone)

    # ------------------------------------------------------------------
    def _site_cone(self, sites: FrozenSet[int]) -> List[Gate]:
        """Gates in the transitive fanout of any site, topological order."""
        tainted = set(sites)
        cone: List[Gate] = []
        for gate in self.order:
            if any(i in tainted for i in gate.inputs):
                tainted.add(gate.output)
                cone.append(gate)
        return cone

    def _imply(self, assignments: Dict[int, int], sites: Dict[int, int],
               cone: List[Gate]) -> _Machines:
        """Good machine: compiled full eval.  Faulty: event-driven overlay.

        The overlay only stores nets whose faulty value *differs* from the
        good one, so gates with no overlay input are skipped — for an
        unexcited fault the cone walk degenerates to dictionary probes.
        """
        is1, is0 = self._eval3.run(assignments)
        overlay: Dict[int, Optional[int]] = dict(sites)
        for gate in cone:
            touched = False
            for i in gate.inputs:
                if i in overlay:
                    touched = True
                    break
            if not touched:
                continue
            out = gate.output
            if out in sites:
                continue  # stays forced
            values = []
            for i in gate.inputs:
                if i in overlay:
                    values.append(overlay[i])
                elif is1[i]:
                    values.append(1)
                elif is0[i]:
                    values.append(0)
                else:
                    values.append(X)
            val = _eval3_scalar(gate.kind, values)
            good_out = 1 if is1[out] else (0 if is0[out] else X)
            if val != good_out:
                overlay[out] = val
        return _Machines(is1, is0, overlay)

    def _detected(self, machines: _Machines, cone_pos: Sequence[int]) -> bool:
        for po in cone_pos:
            g = machines.good(po)
            f = machines.faulty(po)
            if g is not X and f is not X and g != f:
                return True
        return False

    def _objective(self, machines: _Machines, sites: Dict[int, int],
                   cone: List[Gate]) -> Optional[Tuple[int, int]]:
        """Next (net, value) goal, or ``None`` on conflict."""
        # 1. Excitation: at least one site must carry the opposite of its
        # stuck value in the good machine.
        excited = any(machines.good(n) == (s ^ 1)
                      for n, s in sites.items())
        if not excited:
            for net, stuck in sites.items():
                if machines.good(net) is X:
                    return net, stuck ^ 1
            return None  # every site is pinned at its stuck value
        # 2. Propagation: an X side-input of a D-frontier gate (all
        # D-frontier gates lie inside the cone by construction).
        for gate in cone:
            out = gate.output
            g_out = machines.good(out)
            f_out = machines.faulty(out)
            if g_out is not X and f_out is not X:
                continue  # fully determined (either D already or masked)
            has_d = False
            for i in gate.inputs:
                if i not in machines.overlay and i not in sites:
                    continue
                g = machines.good(i)
                f = machines.faulty(i)
                if g is not X and f is not X and g != f:
                    has_d = True
                    break
            if not has_d:
                continue
            control = _CONTROLLING.get(gate.kind)
            non_controlling = (control ^ 1) if control is not None else 0
            for i in gate.inputs:
                if machines.good(i) is X and i not in machines.overlay:
                    return i, non_controlling
        return None

    def _backtrace(self, net: int, value: int,
                   machines: _Machines) -> Optional[Tuple[int, int]]:
        """Map an internal objective to a PI assignment."""
        good = machines.good
        current, target = net, value
        for _ in range(self.netlist.n_nets + 1):
            if current in self._pi_set:
                if good(current) is not X:
                    return None
                return current, target
            gate = self._driver_gate.get(current)
            if gate is None or not gate.inputs:
                return None  # constant or undriven: cannot justify
            if gate.kind in _INVERTING:
                target ^= 1
            x_inputs = [i for i in gate.inputs if good(i) is X]
            if not x_inputs:
                return None
            if gate.kind in (GateType.XOR, GateType.XNOR):
                # The known input flips the parity the X input must set.
                other = [i for i in gate.inputs if good(i) is not X]
                if other and good(other[0]) == 1:
                    target ^= 1
            # After inversion the input wants the output's value: one
            # controlling input suffices, a non-controlling one is
            # needed on every input, so the first X input is next.
            current = x_inputs[0]
        return None
