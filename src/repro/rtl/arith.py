"""Ripple-carry adders and the MAC's adder/subtracter.

The adder/subtracter computes ``result = a + b`` or ``result = a - b``
depending on the ``sub`` control input, implemented the classic way: XOR the
second operand with ``sub`` and feed ``sub`` as carry-in.  Widths are
parametric; the DSP core instantiates it at 18 bits (the paper's
accumulator width).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro._util import to_unsigned
from repro.logic.builder import NetlistBuilder
from repro.logic.netlist import Netlist


def full_adder(b: NetlistBuilder, a: int, bb: int, cin: int) -> Tuple[int, int]:
    """One full adder; returns ``(sum, carry_out)`` nets."""
    axb = b.xor(a, bb)
    s = b.xor(axb, cin)
    carry = b.or_(b.and_(a, bb), b.and_(axb, cin))
    return s, carry


def ripple_adder(
    b: NetlistBuilder,
    a: Sequence[int],
    bb: Sequence[int],
    cin: int,
    drop_final_carry: bool = False,
) -> Tuple[List[int], Optional[int]]:
    """Ripple-carry add two equal-width buses; returns ``(sum_bus, cout)``.

    With ``drop_final_carry`` the most significant stage builds only the sum
    XOR (no carry gates), avoiding dead logic — and therefore untestable
    faults — when the caller discards the carry-out.
    """
    if len(a) != len(bb):
        raise ValueError(f"adder width mismatch: {len(a)} vs {len(bb)}")
    total: List[int] = []
    carry: Optional[int] = cin
    carry_const = b.const_value(cin)
    for i, (ai, bi) in enumerate(zip(a, bb)):
        last = i == len(a) - 1
        if last and drop_final_carry:
            if carry_const == 0:
                total.append(b.xor(ai, bi))
            elif carry_const == 1:
                total.append(b.xnor(ai, bi))
            else:
                total.append(b.xor(b.xor(ai, bi), carry))
            carry = None
        elif carry_const == 0:
            # Constant-zero carry-in: the stage degenerates to a half adder
            # (a full adder here would carry untestable faults).
            total.append(b.xor(ai, bi))
            carry = b.and_(ai, bi)
            carry_const = None
        elif carry_const == 1:
            total.append(b.xnor(ai, bi))
            carry = b.or_(ai, bi)
            carry_const = None
        else:
            s, carry = full_adder(b, ai, bi, carry)
            total.append(s)
    return total, carry


def make_adder(width: int, name: str = "adder") -> Netlist:
    """Standalone adder netlist: buses ``a``, ``b``, ``cin`` → ``sum``, ``cout``."""
    b = NetlistBuilder(name)
    a = b.input_bus("a", width)
    bb = b.input_bus("b", width)
    cin = b.input("cin")
    total, cout = ripple_adder(b, a, bb, cin)
    b.output_bus("sum", total)
    b.output(cout)
    b.netlist.add_bus("cout", [cout])
    return b.finish()


def make_addsub(width: int, name: str = "addsub") -> Netlist:
    """Adder/subtracter netlist: ``a``, ``b``, ``sub`` → ``result``.

    ``result = a + b`` when ``sub = 0`` and ``a - b`` when ``sub = 1``
    (two's complement wrap-around, no flags).
    """
    b = NetlistBuilder(name)
    a = b.input_bus("a", width)
    bb = b.input_bus("b", width)
    sub = b.input("sub")
    b_inverted = [b.xor(bit, sub) for bit in bb]
    total, _ = ripple_adder(b, a, b_inverted, sub, drop_final_carry=True)
    b.output_bus("result", total)
    return b.finish()


def addsub_reference(a: int, bb: int, sub: int, width: int) -> int:
    """Word-level model of :func:`make_addsub`."""
    if sub:
        return to_unsigned(a - bb, width)
    return to_unsigned(a + bb, width)
