"""Code-generated netlist evaluation.

Interpreted gate-by-gate evaluation pays Python's per-gate dispatch cost on
every call.  For hot paths (fault-simulation good machines, mixed-level
propagation) this module compiles a netlist's levelised gate list into one
straight-line Python function of array assignments — typically 5–10×
faster — with results bit-identical to :class:`CombSimulator`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.logic.gates import GateType
from repro.logic.netlist import Netlist


def _gate_expression(kind: GateType, operands: List[str]) -> str:
    if kind is GateType.AND:
        return " & ".join(operands)
    if kind is GateType.OR:
        return " | ".join(operands)
    if kind is GateType.NAND:
        return f"({' & '.join(operands)}) ^ m"
    if kind is GateType.NOR:
        return f"({' | '.join(operands)}) ^ m"
    if kind is GateType.XOR:
        return " ^ ".join(operands)
    if kind is GateType.XNOR:
        return f"({' ^ '.join(operands)}) ^ m"
    if kind is GateType.NOT:
        return f"{operands[0]} ^ m"
    if kind is GateType.BUF:
        return operands[0]
    if kind is GateType.CONST0:
        return "0"
    if kind is GateType.CONST1:
        return "m"
    raise ValueError(f"unknown gate type {kind!r}")


class CompiledEvaluator:
    """A compiled combinational evaluator for one netlist.

    :meth:`eval_into` fills a pre-populated value list in place: the caller
    sets primary-input (and DFF Q) slots, the compiled body computes every
    gate output.  Forcing/fault injection is layered on top by the caller
    (cone re-evaluation), exactly as with the interpreted simulator.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        lines = ["def _eval(v, m):"]
        order = netlist.levelize()
        if not order:
            lines.append("    pass")
        for gate in order:
            operands = [f"v[{i}]" for i in gate.inputs]
            lines.append(
                f"    v[{gate.output}] = {_gate_expression(gate.kind, operands)}"
            )
        namespace: Dict = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
        self._eval = namespace["_eval"]

    def run(self, inputs: Dict[int, int], n_patterns: int = 1,
            state: Optional[Dict[int, int]] = None) -> List[int]:
        """Drop-in equivalent of :meth:`CombSimulator.run` (no forcing)."""
        width_mask = (1 << n_patterns) - 1
        values = [0] * self.netlist.n_nets
        for net in self.netlist.inputs:
            values[net] = inputs[net] & width_mask
        for dff in self.netlist.dffs:
            if state is not None and dff.q in state:
                values[dff.q] = state[dff.q] & width_mask
            else:
                values[dff.q] = width_mask if dff.init else 0
        self._eval(values, width_mask)
        return values


def _gate_expression3(kind: GateType, one: List[str],
                      zero: List[str]) -> tuple:
    """(is-one expr, is-zero expr) for three-valued bitplane evaluation."""
    if kind is GateType.AND:
        return " & ".join(one), " | ".join(zero)
    if kind is GateType.OR:
        return " | ".join(one), " & ".join(zero)
    if kind is GateType.NAND:
        return " | ".join(zero), " & ".join(one)
    if kind is GateType.NOR:
        return " & ".join(zero), " | ".join(one)
    if kind is GateType.XOR:
        a1, b1 = one
        a0, b0 = zero
        return (f"({a1} & {b0}) | ({a0} & {b1})",
                f"({a1} & {b1}) | ({a0} & {b0})")
    if kind is GateType.XNOR:
        a1, b1 = one
        a0, b0 = zero
        return (f"({a1} & {b1}) | ({a0} & {b0})",
                f"({a1} & {b0}) | ({a0} & {b1})")
    if kind is GateType.NOT:
        return zero[0], one[0]
    if kind is GateType.BUF:
        return one[0], zero[0]
    if kind is GateType.CONST0:
        return "0", "1"
    if kind is GateType.CONST1:
        return "1", "0"
    raise ValueError(f"unknown gate type {kind!r}")


class CompiledEvaluator3:
    """Compiled three-valued (0/1/X) evaluation over two bitplanes.

    A net's value is represented by two flags: *is-one* and *is-zero*
    (neither set = X).  Used by PODEM's implication, where the good machine
    must be fully re-evaluated on every decision.
    """

    def __init__(self, netlist: Netlist):
        if netlist.dffs:
            raise ValueError("three-valued evaluation is combinational only")
        self.netlist = netlist
        lines = ["def _eval3(v1, v0):"]
        order = netlist.levelize()
        if not order:
            lines.append("    pass")
        for gate in order:
            one = [f"v1[{i}]" for i in gate.inputs]
            zero = [f"v0[{i}]" for i in gate.inputs]
            e1, e0 = _gate_expression3(gate.kind, one, zero)
            lines.append(f"    v1[{gate.output}] = {e1}")
            lines.append(f"    v0[{gate.output}] = {e0}")
        namespace: Dict = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
        self._eval3 = namespace["_eval3"]

    def run(self, assignments: Dict[int, int]) -> tuple:
        """Evaluate with partially assigned PIs; returns ``(is1, is0)``."""
        n = self.netlist.n_nets
        is1 = [0] * n
        is0 = [0] * n
        for net in self.netlist.inputs:
            value = assignments.get(net)
            if value == 1:
                is1[net] = 1
            elif value == 0:
                is0[net] = 1
        self._eval3(is1, is0)
        return is1, is0
