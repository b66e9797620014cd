"""Behavioural instruction-set simulator of the four-stage pipelined core.

Pipeline (paper Fig. 6)::

    IF ──► ID (decode, register read, forwarding) ──► EX (MAC / buffer)
       ──► WB (register write, output port)

Hazard handling follows the paper: read-after-write hazards are resolved
with forwarding through a temporary register — a distance-1 producer is
bypassed combinationally from the EX stage, a distance-2 producer through
the ``temp`` register that latches each EX result; distance-3 producers
have already written the register file.

Stage 3 holds the ``buffer`` used by ``ld``/``out``/``mov``; MAC results go
through ``MacReg``.  ``MUX7`` selects between them for write-back and the
8-bit output port.

Like the MAC datapath, every traced component's output can be overridden
for a cycle (error injection), and persistent stuck bits can be applied to
any architectural state element (used for word-level register fault
simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro._util import mask
from repro.dsp.fixedpoint import ACC_WIDTH, OPERAND_WIDTH
from repro.dsp.isa import (
    ControlWord,
    INSTRUCTION_WIDTH,
    Instruction,
    N_REGISTERS,
    Opcode,
    control_word,
    decode,
)
from repro.dsp.mac import (
    ComponentActivity,
    MacControls,
    MacDatapath,
    Overrides,
    Trace,
)

_REG_MASK = mask(OPERAND_WIDTH)
_ACC_MASK = mask(ACC_WIDTH)
_WORD_MASK = mask(INSTRUCTION_WIDTH)


@dataclass(frozen=True)
class IdEx:
    """ID/EX pipeline latch: decoded instruction plus fetched operands.

    Frozen, like :class:`ExWb`: the pipeline replaces its latches every
    cycle and never edits one, so state copies can share them.
    """

    instr: Instruction
    ctrl: ControlWord
    opa: int
    opb: int


@dataclass(frozen=True)
class ExWb:
    """EX/WB pipeline latch.

    Carries only the instruction and its controls — the data travels in
    the architectural MacReg and buffer registers, which MUX7 reads in WB.
    """

    instr: Instruction
    ctrl: ControlWord


@dataclass
class CoreState:
    """Complete architectural + pipeline state of the core."""

    regs: List[int] = field(default_factory=lambda: [0] * N_REGISTERS)
    acc_a: int = 0
    acc_b: int = 0
    temp: int = 0
    temp_dest: Optional[int] = None  # register the temp value targets
    macreg: int = 0
    buffer: int = 0
    if_id: Optional[int] = None
    id_ex: Optional[IdEx] = None
    ex_wb: Optional[ExWb] = None

    def copy(self) -> "CoreState":
        """An independent copy; the frozen pipeline latches are shared."""
        return CoreState(
            regs=list(self.regs),
            acc_a=self.acc_a,
            acc_b=self.acc_b,
            temp=self.temp,
            temp_dest=self.temp_dest,
            macreg=self.macreg,
            buffer=self.buffer,
            if_id=self.if_id,
            id_ex=self.id_ex,
            ex_wb=self.ex_wb,
        )


@dataclass
class StepResult:
    """Externally visible outcome of one clock cycle."""

    out_valid: bool
    out_value: int  # 8-bit output port (0 when not driven)

    @property
    def port(self) -> int:
        """The raw output port value (what a MISR would compact)."""
        return self.out_value if self.out_valid else 0


#: State elements addressable by stuck-bit injection: ``("reg", i)``,
#: ``("acc_a",)``, ``("acc_b",)``, ``("macreg",)``, ``("buffer",)``,
#: ``("temp",)``.
StuckBits = Mapping[Tuple, Tuple[int, int]]


class DspCore:
    """The pipelined DSP core.

    ``stuck_bits`` maps state-element keys to ``(and_mask, or_mask)`` pairs
    applied after every cycle (and at construction), modelling stuck-at
    faults in storage elements.
    """

    def __init__(self, state: Optional[CoreState] = None,
                 stuck_bits: Optional[StuckBits] = None):
        self.state = state if state is not None else CoreState()
        self.stuck_bits = dict(stuck_bits) if stuck_bits else {}
        if self.stuck_bits:
            self._apply_stuck_bits()

    # ------------------------------------------------------------------
    def _apply_stuck_bits(self) -> None:
        s = self.state
        for key, (and_mask, or_mask) in self.stuck_bits.items():
            kind = key[0]
            if kind == "reg":
                s.regs[key[1]] = (s.regs[key[1]] & and_mask) | or_mask
            elif kind == "acc_a":
                s.acc_a = (s.acc_a & and_mask) | or_mask
            elif kind == "acc_b":
                s.acc_b = (s.acc_b & and_mask) | or_mask
            elif kind == "macreg":
                s.macreg = (s.macreg & and_mask) | or_mask
            elif kind == "buffer":
                s.buffer = (s.buffer & and_mask) | or_mask
            elif kind == "temp":
                s.temp = (s.temp & and_mask) | or_mask
            else:
                raise ValueError(f"unknown stuck-bit target {key!r}")

    # ------------------------------------------------------------------
    def step(self, instr_word: int,
             overrides: Optional[Overrides] = None,
             trace: Optional[Trace] = None) -> StepResult:
        """Advance the core by one clock cycle, fetching ``instr_word``."""
        if not overrides and trace is None:
            return self._step_fast(instr_word)
        s = self.state

        def emit(name: str, inputs: Dict[str, int], output: int,
                 mode: int = 0) -> int:
            if overrides and name in overrides:
                override = overrides[name]
                output = override(inputs) if callable(override) else override
            if trace is not None:
                trace[name] = ComponentActivity(inputs, output, mode)
            return output

        # ---------------- WB stage (uses ex_wb latch) -----------------
        # MUX7 reads the *stored* MacReg/buffer values, i.e. the values the
        # WB-stage instruction latched when it was in EX — before this
        # cycle's EX stage overwrites them.
        out_valid = False
        out_value = 0
        wb = s.ex_wb
        wb_value = 0
        if wb is not None:
            wb_value = emit(
                "mux7",
                {"a": s.macreg, "b": s.buffer, "sel": wb.ctrl.mux7_buffer},
                s.buffer if wb.ctrl.mux7_buffer else s.macreg,
                mode=wb.ctrl.mux7_buffer,
            ) & _REG_MASK
            if wb.ctrl.out_en:
                out_valid = True
                out_value = wb_value

        # ---------------- EX stage (uses id_ex latch) -----------------
        new_ex_wb: Optional[ExWb] = None
        ex_bypass: Optional[Tuple[int, int]] = None  # (dest, value)
        if s.id_ex is not None:
            stage = s.id_ex
            ctrl = stage.ctrl
            mac = MacDatapath.evaluate(
                stage.opa, stage.opb,
                MacControls.from_control_word(ctrl),
                s.acc_a, s.acc_b,
                trace=trace, overrides=overrides,
            )
            s.acc_a = mac.acc_a & _ACC_MASK
            s.acc_b = mac.acc_b & _ACC_MASK

            buffer_d = stage.instr.imm if ctrl.buf_imm else stage.opb
            macreg_value = emit(
                "macreg", {"d": mac.limited, "q": s.macreg}, mac.limited
            )
            buffer_value = emit(
                "buffer", {"d": buffer_d, "q": s.buffer}, buffer_d
            )
            s.macreg = macreg_value & _REG_MASK
            s.buffer = buffer_value & _REG_MASK
            new_ex_wb = ExWb(instr=stage.instr, ctrl=ctrl)
            if ctrl.reg_we:
                bypass_value = (buffer_value if ctrl.mux7_buffer
                                else macreg_value) & _REG_MASK
                ex_bypass = (stage.instr.dest, bypass_value)

        # ---------------- ID stage (uses if_id latch) -----------------
        new_id_ex: Optional[IdEx] = None
        if s.if_id is not None:
            instr = decode(s.if_id)
            ctrl_packed = emit(
                "decoder", {"in": int(instr.opcode)},
                control_word(instr.opcode).pack(),
            )
            ctrl = ControlWord.unpack(ctrl_packed)

            def read_reg(addr: int, port: str) -> int:
                value = s.regs[addr]
                if ex_bypass is not None and ex_bypass[0] == addr:
                    value = ex_bypass[1]
                elif (wb is not None and wb.ctrl.reg_we
                        and wb.instr.dest == addr):
                    # Distance-2 forward: the producer is in WB right now and
                    # its value sits in the temp register (latched when it
                    # left EX).
                    value = s.temp
                return emit(f"regread_{port}", {"addr": addr}, value)

            opa = read_reg(instr.rega, "a") & _REG_MASK
            opb = read_reg(instr.regb, "b") & _REG_MASK
            new_id_ex = IdEx(instr=instr, ctrl=ctrl, opa=opa, opb=opb)

        # ---------------- register write & latch advance --------------
        if wb is not None and wb.ctrl.reg_we:
            s.regs[wb.instr.dest] = wb_value

        if ex_bypass is not None:
            s.temp = emit(
                "temp", {"d": ex_bypass[1], "q": s.temp}, ex_bypass[1]
            ) & _REG_MASK
            s.temp_dest = ex_bypass[0]
        # A producer's temp entry stays valid until the next producer; a
        # stale entry is harmless because the register file already holds
        # the same value by then.

        s.ex_wb = new_ex_wb
        s.id_ex = new_id_ex
        s.if_id = instr_word & _WORD_MASK
        if self.stuck_bits:
            self._apply_stuck_bits()
        return StepResult(out_valid=out_valid, out_value=out_value)

    def _step_fast(self, instr_word: int) -> StepResult:
        """:meth:`step` for an untraced cycle without overrides.

        The same dataflow without the component bookkeeping: no emit
        closure or per-component input dicts, no decoder pack/unpack
        round trip (the cached control word *is* the decoded one), and
        the MAC reads the control word directly.  Keep it in lock-step
        with :meth:`step`; the core tests check the two agree cycle for
        cycle.
        """
        s = self.state

        # WB: MUX7 reads the stored MacReg/buffer values.  A register
        # index of -1 below means "no register".
        out_valid = False
        out_value = 0
        wb = s.ex_wb
        wb_value = 0
        wb_dest = -1
        if wb is not None:
            wb_ctrl = wb.ctrl
            wb_value = (s.buffer if wb_ctrl.mux7_buffer
                        else s.macreg) & _REG_MASK
            if wb_ctrl.out_en:
                out_valid = True
                out_value = wb_value
            if wb_ctrl.reg_we:
                wb_dest = wb.instr.dest

        # EX
        new_ex_wb: Optional[ExWb] = None
        bypass_dest = -1
        bypass_value = 0
        stage = s.id_ex
        if stage is not None:
            ctrl = stage.ctrl
            mac = MacDatapath._evaluate_fast(stage.opa, stage.opb, ctrl,
                                             s.acc_a, s.acc_b)
            s.acc_a = mac.acc_a & _ACC_MASK
            s.acc_b = mac.acc_b & _ACC_MASK
            buffer_value = stage.instr.imm if ctrl.buf_imm else stage.opb
            s.macreg = mac.limited & _REG_MASK
            s.buffer = buffer_value & _REG_MASK
            new_ex_wb = ExWb(instr=stage.instr, ctrl=ctrl)
            if ctrl.reg_we:
                bypass_value = (buffer_value if ctrl.mux7_buffer
                                else mac.limited) & _REG_MASK
                bypass_dest = stage.instr.dest

        # ID, with distance-1 (EX) and distance-2 (temp) forwarding.
        new_id_ex: Optional[IdEx] = None
        if s.if_id is not None:
            instr = decode(s.if_id)
            a = instr.rega
            b = instr.regb
            opa = (bypass_value if a == bypass_dest
                   else s.temp if a == wb_dest else s.regs[a]) & _REG_MASK
            opb = (bypass_value if b == bypass_dest
                   else s.temp if b == wb_dest else s.regs[b]) & _REG_MASK
            new_id_ex = IdEx(instr=instr, ctrl=control_word(instr.opcode),
                             opa=opa, opb=opb)

        # Register write and latch advance.
        if wb_dest >= 0:
            s.regs[wb_dest] = wb_value
        if bypass_dest >= 0:
            s.temp = bypass_value
            s.temp_dest = bypass_dest
        s.ex_wb = new_ex_wb
        s.id_ex = new_id_ex
        s.if_id = instr_word & _WORD_MASK
        if self.stuck_bits:
            self._apply_stuck_bits()
        return StepResult(out_valid=out_valid, out_value=out_value)

    # ------------------------------------------------------------------
    def run(self, words, overrides_by_cycle=None) -> List[StepResult]:
        """Run a sequence of instruction words; returns per-cycle results.

        Four NOPs are *not* appended automatically — callers that need the
        pipeline drained should use :meth:`run_program`.
        """
        results = []
        for t, word in enumerate(words):
            ov = overrides_by_cycle.get(t) if overrides_by_cycle else None
            results.append(self.step(word, overrides=ov))
        return results

    def run_program(self, instructions, drain: bool = True) -> List[int]:
        """Execute :class:`Instruction` objects; returns the output-port
        values of every cycle (including pipeline drain)."""
        from repro.dsp.isa import encode
        words = [encode(i) for i in instructions]
        if drain:
            words += [encode(Instruction(Opcode.NOP))] * 4
        return [r.port for r in self.run(words)]
