"""Registry of the DSP core's datapath components.

Each :class:`ComponentSpec` ties together the three views of one component:

1. the *behavioural* view — the trace entries emitted by
   :class:`~repro.dsp.mac.MacDatapath` / :class:`~repro.dsp.core.DspCore`
   (matched by ``name``, with input-port keys equal to the netlist bus
   names);
2. the *gate-level* view — a standalone netlist defining the component's
   stuck-at fault universe (combinational components);
3. the *metrics-table* view — the component's control-bit **modes**, each
   of which is a separate column in the paper's Tables 1–3 (e.g. the
   shifter contributes four columns, "the shifter has two control bits and
   therefore requires four columns").

Sequential storage components (accumulators, MacReg, buffer, temp) use an
exact word-level fault model (stuck storage/data/enable bits) instead of a
gate netlist; see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.dsp.fixedpoint import ACC_WIDTH, OPERAND_WIDTH
from repro.dsp.isa import CONTROL_WIDTH, OPCODE_WIDTH, decoder_truth_table
from repro.logic.netlist import Netlist
from repro.rtl.arith import make_addsub
from repro.rtl.decoder import make_truth_table_logic
from repro.rtl.multiplier import make_multiplier
from repro.rtl.mux import make_gated_bus, make_mux2_bus
from repro.rtl.saturate import make_limiter
from repro.rtl.shifter import make_shifter
from repro.rtl.truncate import make_truncater


@dataclass(frozen=True)
class ComponentSpec:
    """Static description of one datapath component."""

    name: str
    kind: str                          # "comb" or "register"
    output_width: int
    input_ports: Tuple[Tuple[str, int], ...]
    modes: Tuple[int, ...]
    mode_labels: Tuple[Tuple[int, str], ...]
    factory: Optional[Callable[[], Netlist]] = None
    output_bus: str = "out"
    state_key: Optional[Tuple] = None  # stuck-bit key for registers
    #: Whether the component appears as metrics-table columns.  The control
    #: decoder is fault-simulated but not metered per instruction (its input
    #: is the constant opcode, so per-instruction entropy is meaningless).
    in_metrics_table: bool = True
    #: Input ports hard-wired to a constant in the datapath (e.g. the zero
    #: legs of MUXa/MUXb).  They carry no randomness by construction and
    #: are excluded from the controllability estimate.
    tied_ports: Tuple[str, ...] = ()

    def mode_label(self, mode: int) -> str:
        return dict(self.mode_labels).get(mode, str(mode))

    def column_names(self) -> List[str]:
        """One metrics-table column name per mode."""
        if len(self.modes) == 1:
            return [self.name]
        return [f"{self.name} {self.mode_label(m)}" for m in self.modes]

    @property
    def total_input_width(self) -> int:
        return sum(w for _, w in self.input_ports)

    def netlist(self) -> Netlist:
        """The component's gate-level netlist (cached per spec)."""
        if self.factory is None:
            raise ValueError(f"component {self.name!r} has no gate netlist")
        return _cached_netlist(self)


def _mux18() -> Callable[[], Netlist]:
    return lambda: make_mux2_bus(ACC_WIDTH)


_FACTORIES: Dict[str, Callable[[], Netlist]] = {
    "multiplier": lambda: make_multiplier(OPERAND_WIDTH, ACC_WIDTH),
    # MUXa/MUXb have one leg tied to zero, so their real structure is a
    # clear gate (MUXa clears when muxa_zero=1, MUXb passes when
    # muxb_shift=1).
    "muxa": lambda: make_gated_bus(ACC_WIDTH, invert_enable=True),
    "muxb": lambda: make_gated_bus(ACC_WIDTH, invert_enable=False),
    "muxg_shifter": _mux18(),
    # The limiter ignores the 4 lowest fractional bits, so its MUXg
    # instance is a 14-bit mux.
    "muxg_limiter": lambda: make_mux2_bus(ACC_WIDTH - 4),
    "shifter": lambda: make_shifter(ACC_WIDTH, 4),
    "addsub": lambda: make_addsub(ACC_WIDTH),
    "truncater": lambda: make_truncater(ACC_WIDTH, 8),
    "limiter": lambda: make_limiter(),
    "mux7": lambda: make_mux2_bus(OPERAND_WIDTH),
    "decoder": lambda: make_truth_table_logic(
        OPCODE_WIDTH, CONTROL_WIDTH, decoder_truth_table()
    ),
}


@lru_cache(maxsize=None)
def _cached_netlist(spec: "ComponentSpec") -> Netlist:
    return spec.factory()


_ONOFF = ((0, "0"), (1, "1"))

COMPONENTS: Tuple[ComponentSpec, ...] = (
    ComponentSpec(
        name="multiplier", kind="comb", output_width=ACC_WIDTH,
        input_ports=(("a", 8), ("b", 8)), modes=(0,),
        mode_labels=((0, ""),), factory=_FACTORIES["multiplier"],
        output_bus="p",
    ),
    ComponentSpec(
        name="shifter", kind="comb", output_width=ACC_WIDTH,
        input_ports=(("data", 18), ("amt", 4), ("mode", 2)),
        modes=(0, 1, 2, 3),
        mode_labels=((0, "00"), (1, "01"), (2, "10"), (3, "11")),
        factory=_FACTORIES["shifter"],
    ),
    ComponentSpec(
        name="addsub", kind="comb", output_width=ACC_WIDTH,
        input_ports=(("a", 18), ("b", 18), ("sub", 1)), modes=(0, 1),
        mode_labels=((0, "add"), (1, "sub")), factory=_FACTORIES["addsub"],
        output_bus="result",
    ),
    ComponentSpec(
        name="truncater", kind="comb", output_width=ACC_WIDTH,
        input_ports=(("data", 18), ("en", 1)), modes=(0, 1),
        mode_labels=((0, "pass"), (1, "trunc")),
        factory=_FACTORIES["truncater"],
    ),
    ComponentSpec(
        name="limiter", kind="comb", output_width=OPERAND_WIDTH,
        input_ports=(("data", 18),), modes=(0,), mode_labels=((0, ""),),
        factory=_FACTORIES["limiter"],
    ),
    ComponentSpec(
        name="muxa", kind="comb", output_width=ACC_WIDTH,
        input_ports=(("data", 18), ("en", 1)), modes=(0, 1),
        mode_labels=_ONOFF, factory=_FACTORIES["muxa"],
    ),
    ComponentSpec(
        name="muxb", kind="comb", output_width=ACC_WIDTH,
        input_ports=(("data", 18), ("en", 1)), modes=(0, 1),
        mode_labels=_ONOFF, factory=_FACTORIES["muxb"],
    ),
    ComponentSpec(
        name="muxg_shifter", kind="comb", output_width=ACC_WIDTH,
        input_ports=(("a", 18), ("b", 18), ("sel", 1)), modes=(0, 1),
        mode_labels=((0, "A"), (1, "B")),
        factory=_FACTORIES["muxg_shifter"],
    ),
    ComponentSpec(
        name="muxg_limiter", kind="comb", output_width=ACC_WIDTH - 4,
        input_ports=(("a", 14), ("b", 14), ("sel", 1)), modes=(0, 1),
        mode_labels=((0, "A"), (1, "B")),
        factory=_FACTORIES["muxg_limiter"],
    ),
    ComponentSpec(
        name="mux7", kind="comb", output_width=OPERAND_WIDTH,
        input_ports=(("a", 8), ("b", 8), ("sel", 1)), modes=(0, 1),
        mode_labels=((0, "mac"), (1, "buf")), factory=_FACTORIES["mux7"],
    ),
    ComponentSpec(
        name="decoder", kind="comb", output_width=CONTROL_WIDTH,
        input_ports=(("in", OPCODE_WIDTH),), modes=(0,),
        mode_labels=((0, ""),), factory=_FACTORIES["decoder"],
        in_metrics_table=False,
    ),
    ComponentSpec(
        name="acca", kind="register", output_width=ACC_WIDTH,
        input_ports=(("d", 18), ("en", 1)), modes=(0,),
        mode_labels=((0, ""),), state_key=("acc_a",),
    ),
    ComponentSpec(
        name="accb", kind="register", output_width=ACC_WIDTH,
        input_ports=(("d", 18), ("en", 1)), modes=(0,),
        mode_labels=((0, ""),), state_key=("acc_b",),
    ),
    ComponentSpec(
        name="macreg", kind="register", output_width=OPERAND_WIDTH,
        input_ports=(("d", 8),), modes=(0,), mode_labels=((0, ""),),
        state_key=("macreg",),
    ),
    ComponentSpec(
        name="buffer", kind="register", output_width=OPERAND_WIDTH,
        input_ports=(("d", 8),), modes=(0,), mode_labels=((0, ""),),
        state_key=("buffer",),
    ),
    ComponentSpec(
        name="temp", kind="register", output_width=OPERAND_WIDTH,
        input_ports=(("d", 8),), modes=(0,), mode_labels=((0, ""),),
        state_key=("temp",),
    ),
)

_BY_NAME = {spec.name: spec for spec in COMPONENTS}


def component_by_name(name: str) -> ComponentSpec:
    """Look up a :class:`ComponentSpec`; raises ``KeyError`` if unknown."""
    return _BY_NAME[name]


def all_columns(metrics_only: bool = True) -> List[Tuple[str, int]]:
    """All (component, mode) columns, in registry order.

    With ``metrics_only`` (default) only components that appear in the
    metrics table are listed; pass ``False`` for the full fault-simulation
    component set.
    """
    return [
        (spec.name, mode)
        for spec in COMPONENTS
        if spec.in_metrics_table or not metrics_only
        for mode in spec.modes
    ]
