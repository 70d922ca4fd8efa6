"""65 nm technology model: per-event energy and per-component area.

The paper implements all four baselines in TSMC 65 nm and reports absolute
area (3.21-3.89 mm^2) and power (~0.8-1.1 W at 1 GHz).  We replace the
Synopsys flow with a component-level model: every architectural event
(multiply, add, local-store access, buffer access, bus traversal, DRAM
access) has a calibrated energy, and every component (MAC, SRAM macro,
wire) a calibrated area.

Constants are representative 65 nm values from the accelerator literature
(DianNao / Eyeriss-era numbers), lightly calibrated so the four baselines'
totals land near the paper's published figures.  Everything is in one
place so a user can re-calibrate for a different node by constructing a
custom :class:`TechnologyModel`.

Units: energy in picojoules (pJ), area in square millimetres (mm^2),
frequency in hertz.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TechnologyModel:
    """Energy/area constants for one process node.

    The defaults model TSMC 65 nm with 16-bit fixed-point datapaths at
    1 GHz, matching the paper's implementation (Section 6.1.1).
    """

    name: str = "tsmc65"
    frequency_hz: float = 1.0e9
    word_bits: int = 16

    # -- datapath energy (pJ per operation) --------------------------------
    mult_energy_pj: float = 1.20
    add_energy_pj: float = 0.30
    #: Per-active-PE-cycle control/clocking overhead (pipeline registers,
    #: local FSM, clock load).  This is the dominant "everything else" term
    #: inside a PE; it is what makes the compute engine consume ~80-85 % of
    #: the chip power as in Table 6.
    pe_control_energy_pj: float = 1.00
    pool_op_energy_pj: float = 0.20
    register_access_energy_pj: float = 0.08
    fifo_access_energy_pj: float = 0.35

    # -- memory energy -------------------------------------------------------
    #: Base SRAM access energy for a 1 KB macro, one 16-bit word.  Larger
    #: macros pay more per access (longer bitlines); see
    #: :meth:`sram_access_energy_pj`.
    sram_base_access_pj: float = 0.60
    #: Exponent of the macro-size scaling law ``e = base * (KB)^exp``.
    sram_access_exponent: float = 0.45
    #: Off-chip DRAM access energy per 16-bit word.  ~100-200x on-chip SRAM
    #: at 65 nm; used for energy ratios and Table 7's DRAM accesses/op.
    dram_access_energy_pj: float = 160.0

    # -- interconnect energy --------------------------------------------------
    #: Energy to move one 16-bit word across one millimetre of on-chip wire.
    wire_energy_pj_per_mm: float = 0.25

    # -- leakage ---------------------------------------------------------------
    #: Static power density; multiplied by the design's area.
    static_mw_per_mm2: float = 8.0

    # -- area (mm^2 per instance) ----------------------------------------------
    mult_area_mm2: float = 0.00160
    add_area_mm2: float = 0.00035
    pe_control_area_mm2: float = 0.00085
    pool_alu_area_mm2: float = 0.00050
    register_area_mm2: float = 0.000012  # one 16-bit register
    #: SRAM density for a 1 KB macro; small macros are less dense (periphery
    #: overhead), see :meth:`sram_area_mm2`.
    sram_base_mm2_per_kb: float = 0.0110
    sram_area_exponent: float = -0.08
    #: Area of one millimetre of routed 16-bit bus (16 wires + repeaters).
    wire_area_mm2_per_mm: float = 0.0016

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency must be positive, got {self.frequency_hz}"
            )
        if self.word_bits <= 0:
            raise ConfigurationError(f"word_bits must be positive, got {self.word_bits}")
        for attr in (
            "mult_energy_pj",
            "add_energy_pj",
            "sram_base_access_pj",
            "dram_access_energy_pj",
            "wire_energy_pj_per_mm",
            "mult_area_mm2",
            "sram_base_mm2_per_kb",
        ):
            if getattr(self, attr) < 0:
                raise ConfigurationError(f"{attr} must be non-negative")

    # -- derived quantities ------------------------------------------------

    @property
    def word_bytes(self) -> int:
        return (self.word_bits + 7) // 8

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.frequency_hz

    @property
    def mac_energy_pj(self) -> float:
        """Multiply + accumulate, the PE's arithmetic work per cycle."""
        return self.mult_energy_pj + self.add_energy_pj

    def sram_access_energy_pj(self, capacity_bytes: int) -> float:
        """Per-word access energy of an SRAM macro of the given capacity.

        Scales as ``base * (KB ** exponent)`` — a 32 KB macro costs
        ~4.8x a 1 KB macro per access, consistent with CACTI-style trends.
        The law extends below 1 KB down to a 256 B floor: FlexFlow's
        per-PE stores are register-file-like structures with short
        bitlines, markedly cheaper per access than a full SRAM macro.
        """
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_bytes}"
            )
        kb = max(0.25, capacity_bytes / 1024.0)
        return self.sram_base_access_pj * kb**self.sram_access_exponent

    def sram_area_mm2(self, capacity_bytes: int) -> float:
        """Area of an SRAM macro of the given capacity.

        Density improves slightly with size: ``KB * base * KB**exponent``
        with a small negative exponent.  Sub-KB stores are charged at the
        1 KB density (periphery dominates).
        """
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_bytes}"
            )
        kb = capacity_bytes / 1024.0
        density_kb = max(1.0, kb)
        return kb * self.sram_base_mm2_per_kb * density_kb**self.sram_area_exponent

    def scaled(self, **overrides) -> "TechnologyModel":
        """A copy with the given fields replaced (dataclass ``replace``)."""
        return replace(self, **overrides)


#: The default 65 nm model used throughout the evaluation.
TSMC65 = TechnologyModel()
