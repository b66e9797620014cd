"""Behavioural MAC datapath (paper Fig. 5) with tracing and injection.

Dataflow (one EX-stage evaluation)::

    opA(8), opB(8)  ──► multiplier ──► P(18) ──► MUXa ──► X ─┐
    AccA/AccB ──► MUXg_shifter ──► shifter ──► S ──► MUXb ──► Y ─┤
                                                   adder/sub: R = Y ± X
    R ──► truncater ──► T ──► Acc[accsel]  (write-through)
    Acc' ──► MUXg_limiter ──► limiter ──► L(8) ──► MacReg

The shifter reads the accumulator value *before* the write (the feedback
loop of Fig. 5); the limiter reads the value *after* it (write-through), so
a MAC instruction's limited result is available the same cycle.

Every component evaluation is recorded in an optional trace (inputs,
output, active mode) and any component's output can be *overridden* — the
primitive that the observability metric and the hierarchical fault
simulator build on.  The unrolled MUXg instances of the paper
(``muxg_shifter`` / ``muxg_limiter``) are traced as separate components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

from repro._util import bits
from repro.dsp.fixedpoint import ACC_WIDTH, OPERAND_WIDTH
from repro.dsp.isa import ControlWord
from repro.rtl.arith import addsub_reference
from repro.rtl.multiplier import multiplier_reference
from repro.rtl.saturate import limiter_reference
from repro.rtl.shifter import shifter_reference
from repro.rtl.truncate import truncater_reference


@dataclass
class ComponentActivity:
    """One component evaluation: named input ports, output word, mode key."""

    inputs: Dict[str, int]
    output: int
    mode: int = 0


#: A trace is component name → activity for one evaluation.
Trace = Dict[str, ComponentActivity]

#: Overrides force a component's *output* to a given word for one evaluation.
Overrides = Mapping[str, int]


@dataclass(frozen=True)
class MacControls:
    """The MAC-facing slice of a :class:`~repro.dsp.isa.ControlWord`."""

    muxa_zero: int
    muxb_shift: int
    sub: int
    shmode: int
    trunc: int
    accsel: int
    acc_we: int

    @staticmethod
    def from_control_word(cw: ControlWord) -> "MacControls":
        return MacControls(
            muxa_zero=cw.muxa_zero,
            muxb_shift=cw.muxb_shift,
            sub=cw.sub,
            shmode=cw.shmode,
            trunc=cw.trunc,
            accsel=cw.accsel,
            acc_we=cw.acc_we,
        )


@dataclass
class MacResult:
    """Outcome of one MAC evaluation."""

    acc_a: int      # accumulator values after the (possible) write
    acc_b: int
    limited: int    # 8-bit limiter output (the MacReg D input)


class MacDatapath:
    """Stateless evaluator for the MAC datapath.

    The accumulators live in the caller (the pipeline's architectural
    state); :meth:`evaluate` takes their current values and returns the
    next values plus the limited result.
    """

    @staticmethod
    def evaluate(
        opa: int,
        opb: int,
        ctrl: MacControls,
        acc_a: int,
        acc_b: int,
        trace: Optional[Trace] = None,
        overrides: Optional[Overrides] = None,
    ) -> MacResult:
        """Run one EX-stage evaluation of the MAC."""
        if trace is None and not overrides:
            return MacDatapath._evaluate_fast(opa, opb, ctrl, acc_a, acc_b)

        def emit(name: str, inputs: Dict[str, int], output: int,
                 mode: int = 0) -> int:
            if overrides and name in overrides:
                override = overrides[name]
                output = override(inputs) if callable(override) else override
            if trace is not None:
                trace[name] = ComponentActivity(inputs, output, mode)
            return output

        product = emit(
            "multiplier", {"a": opa, "b": opb},
            multiplier_reference(opa, opb, OPERAND_WIDTH, ACC_WIDTH),
        )
        x = emit(
            "muxa", {"data": product, "en": ctrl.muxa_zero},
            0 if ctrl.muxa_zero else product,
            mode=ctrl.muxa_zero,
        )
        shift_in = emit(
            "muxg_shifter", {"a": acc_a, "b": acc_b, "sel": ctrl.accsel},
            acc_b if ctrl.accsel else acc_a,
            mode=ctrl.accsel,
        )
        amt = bits(opa, 3, 0)
        shifted = emit(
            "shifter", {"data": shift_in, "amt": amt, "mode": ctrl.shmode},
            shifter_reference(shift_in, amt, ctrl.shmode, ACC_WIDTH),
            mode=ctrl.shmode,
        )
        y = emit(
            "muxb", {"data": shifted, "en": ctrl.muxb_shift},
            shifted if ctrl.muxb_shift else 0,
            mode=ctrl.muxb_shift,
        )
        result = emit(
            "addsub", {"a": y, "b": x, "sub": ctrl.sub},
            addsub_reference(y, x, ctrl.sub, ACC_WIDTH),
            mode=ctrl.sub,
        )
        truncated = emit(
            "truncater", {"data": result, "en": ctrl.trunc},
            truncater_reference(result, ctrl.trunc, ACC_WIDTH),
            mode=ctrl.trunc,
        )
        next_a = emit(
            "acca",
            {"d": truncated, "en": ctrl.acc_we & (1 - ctrl.accsel), "q": acc_a},
            truncated if (ctrl.acc_we and not ctrl.accsel) else acc_a,
        )
        next_b = emit(
            "accb",
            {"d": truncated, "en": ctrl.acc_we & ctrl.accsel, "q": acc_b},
            truncated if (ctrl.acc_we and ctrl.accsel) else acc_b,
        )
        # The limiter never reads the 4 lowest fractional bits, so the
        # limiter-side MUXg instance is physically a 14-bit mux (synthesis
        # trims the dead low lanes).
        limit_in = emit(
            "muxg_limiter",
            {"a": next_a >> 4, "b": next_b >> 4, "sel": ctrl.accsel},
            (next_b if ctrl.accsel else next_a) >> 4,
            mode=ctrl.accsel,
        )
        limited = emit(
            "limiter", {"data": limit_in << 4},
            limiter_reference(limit_in << 4),
        )
        return MacResult(acc_a=next_a, acc_b=next_b, limited=limited)

    @staticmethod
    def _evaluate_fast(opa: int, opb: int,
                       ctrl: Union[MacControls, ControlWord],
                       acc_a: int, acc_b: int) -> MacResult:
        """Allocation-light twin of :meth:`evaluate` for untraced,
        non-injected cycles (the fault simulators' hot path).  Keep the
        dataflow in lock-step with :meth:`evaluate`.

        ``ctrl`` may be the full :class:`ControlWord`: only the MAC
        control attributes are read, so the core's fast path skips the
        :class:`MacControls` copy."""
        product = multiplier_reference(opa, opb, OPERAND_WIDTH, ACC_WIDTH)
        x = 0 if ctrl.muxa_zero else product
        shift_in = acc_b if ctrl.accsel else acc_a
        shifted = shifter_reference(shift_in, opa & 0xF, ctrl.shmode,
                                    ACC_WIDTH)
        y = shifted if ctrl.muxb_shift else 0
        result = addsub_reference(y, x, ctrl.sub, ACC_WIDTH)
        truncated = truncater_reference(result, ctrl.trunc, ACC_WIDTH)
        if ctrl.acc_we:
            if ctrl.accsel:
                acc_b = truncated
            else:
                acc_a = truncated
        limit_in = acc_b if ctrl.accsel else acc_a
        return MacResult(
            acc_a=acc_a, acc_b=acc_b,
            limited=limiter_reference(limit_in),
        )
