"""Activity-based power and energy model.

The accelerator models (:mod:`repro.accelerators`) produce an
:class:`ActivityCounts` record per layer — how many MACs, buffer words,
local-store accesses, bus word-millimetres, and DRAM words the layer's
execution moved.  This module converts those counts into energy and power
using the :class:`~repro.arch.technology.TechnologyModel` constants,
producing the Table 6 component breakdown (``P_nein`` / ``P_neout`` /
``P_kerin`` / ``P_com``) and the Figure 18 comparisons.

DRAM energy is tracked separately from chip power: the paper's power
numbers are for the accelerator die, while DRAM traffic feeds the Table 7
``DRAM accesses / operation`` metric.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.arch.area import area_report
from repro.arch.config import ArchConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ActivityCounts:
    """Event counts for one execution (a layer or a whole network).

    All counts are in *words* (16-bit) or *events*; ``bus_word_mm`` is the
    interconnect traffic integral (words moved x millimetres travelled).
    """

    cycles: int = 0
    mac_ops: int = 0
    active_pe_cycles: int = 0
    neuron_buffer_reads: int = 0
    neuron_buffer_writes: int = 0
    neuron_buffer_partial_reads: int = 0
    kernel_buffer_reads: int = 0
    local_store_reads: int = 0
    local_store_writes: int = 0
    fifo_accesses: int = 0
    register_accesses: int = 0
    bus_word_mm: float = 0.0
    dram_accesses: int = 0
    pool_ops: int = 0

    def __add__(self, other: "ActivityCounts") -> "ActivityCounts":
        if not isinstance(other, ActivityCounts):
            return NotImplemented
        return ActivityCounts(
            *[getattr(self, name) + getattr(other, name) for name in _COUNT_FIELDS]
        )

    @property
    def buffer_words_total(self) -> int:
        """All words crossing the on-chip-buffer boundary — the paper's
        "volume of data transmission" proxy for data reusability (Fig 17)."""
        return (
            self.neuron_buffer_reads
            + self.neuron_buffer_writes
            + self.neuron_buffer_partial_reads
            + self.kernel_buffer_reads
        )


#: :class:`ActivityCounts` field names in declaration (constructor) order.
_COUNT_FIELDS = tuple(f.name for f in fields(ActivityCounts))


@dataclass(frozen=True)
class PowerReport:
    """Energy/power results for one execution on one architecture."""

    kind: str
    cycles: int
    runtime_s: float
    component_energy_pj: Dict[str, float]
    dram_energy_pj: float
    static_power_mw: float

    @property
    def dynamic_energy_pj(self) -> float:
        return sum(self.component_energy_pj.values())

    @property
    def total_energy_pj(self) -> float:
        """Chip energy: dynamic + leakage over the runtime (DRAM excluded)."""
        return self.dynamic_energy_pj + self.static_power_mw * 1e-3 * self.runtime_s / 1e-12

    @property
    def total_energy_uj(self) -> float:
        return self.total_energy_pj * 1e-6

    @property
    def average_power_mw(self) -> float:
        if self.runtime_s <= 0:
            return 0.0
        return self.total_energy_pj * 1e-12 / self.runtime_s * 1e3

    def component_power_mw(self, component: str) -> float:
        if self.runtime_s <= 0:
            return 0.0
        return self.component_energy_pj.get(component, 0.0) * 1e-12 / self.runtime_s * 1e3

    def breakdown(self) -> Dict[str, float]:
        """Per-component share of dynamic energy (sums to 1)."""
        total = self.dynamic_energy_pj
        if total == 0:
            return {k: 0.0 for k in self.component_energy_pj}
        return {k: v / total for k, v in self.component_energy_pj.items()}

    def table6_row(self) -> Dict[str, float]:
        """The Table 6 component grouping, in milliwatts.

        ``P_com`` is the computing engine (MACs, control, local stores,
        FIFOs, registers); ``P_nein`` the input-neuron buffer, ``P_neout``
        the output-neuron buffer (writes + partial-sum read-backs),
        ``P_kerin`` the kernel buffer.  Interconnect, pooling, and leakage
        are excluded to match the paper's four-column table.
        """
        return {
            "P_nein": self.component_power_mw("neuron_in_buffer"),
            "P_neout": self.component_power_mw("neuron_out_buffer"),
            "P_kerin": self.component_power_mw("kernel_buffer"),
            "P_com": (
                self.component_power_mw("mac")
                + self.component_power_mw("pe_control")
                + self.component_power_mw("local_store")
                + self.component_power_mw("fifo")
                + self.component_power_mw("register")
            ),
        }


def compute_power(
    counts: ActivityCounts, kind: str, config: ArchConfig
) -> PowerReport:
    """Convert activity counts into a :class:`PowerReport`.

    Args:
        counts: event counts from an accelerator model or simulator.
        kind: architecture kind (for leakage, which depends on area).
        config: the architecture configuration executed.
    """
    if counts.cycles < 0:
        raise ConfigurationError("cycle count cannot be negative")
    tech = config.technology
    runtime_s = counts.cycles * tech.cycle_time_s

    neuron_buf_e = tech.sram_access_energy_pj(config.neuron_buffer_bytes)
    kernel_buf_e = tech.sram_access_energy_pj(config.kernel_buffer_bytes)
    # The two per-PE stores are equal-sized by default; average their access
    # energies if a user configures them differently.
    local_e = 0.5 * (
        tech.sram_access_energy_pj(config.neuron_store_bytes)
        + tech.sram_access_energy_pj(config.kernel_store_bytes)
    )

    energy: Dict[str, float] = {
        "mac": counts.mac_ops * tech.mac_energy_pj,
        "pe_control": counts.active_pe_cycles * tech.pe_control_energy_pj,
        "local_store": (counts.local_store_reads + counts.local_store_writes) * local_e,
        "fifo": counts.fifo_accesses * tech.fifo_access_energy_pj,
        "register": counts.register_accesses * tech.register_access_energy_pj,
        "neuron_in_buffer": counts.neuron_buffer_reads * neuron_buf_e,
        "neuron_out_buffer": (
            counts.neuron_buffer_writes + counts.neuron_buffer_partial_reads
        )
        * neuron_buf_e,
        "kernel_buffer": counts.kernel_buffer_reads * kernel_buf_e,
        "interconnect": counts.bus_word_mm * tech.wire_energy_pj_per_mm,
        "pooling": counts.pool_ops * tech.pool_op_energy_pj,
    }
    dram_energy = counts.dram_accesses * tech.dram_access_energy_pj
    static_mw = area_report(kind, config).total_mm2 * tech.static_mw_per_mm2
    return PowerReport(
        kind=kind,
        cycles=counts.cycles,
        runtime_s=runtime_s,
        component_energy_pj=energy,
        dram_energy_pj=dram_energy,
        static_power_mw=static_mw,
    )
