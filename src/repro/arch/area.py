"""Component-level area model for the four architectures.

Reproduces Section 6.2.1's layout comparison and the area panel of the
Figure 19 scalability study.  Every architecture's area is the sum of

* its PE array (per-PE datapath + local storage inventory),
* the shared on-chip buffers (two neuron + one kernel, Table 5),
* its interconnect wiring (:mod:`repro.arch.interconnect`),
* the pooling unit and instruction decoder,

scaled by a layout overhead factor (placement whitespace, clock tree,
power grid).  Base wiring lengths are calibrated so the 16x16 totals land
on the paper's published values (3.52 / 3.46 / 3.21 / 3.89 mm^2); the
*growth* with scale then follows each architecture's wiring exponent,
reproducing Figure 19(c)'s ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from repro.arch.config import ArchConfig
from repro.arch.interconnect import wiring_model
from repro.errors import ConfigurationError

#: Architecture kinds understood by the area/power models.  The first
#: four are the paper's baselines; ``rowstationary`` is the Eyeriss-style
#: comparator of the extended Table 7 study.
ARCH_KINDS = (
    "systolic",
    "mapping2d",
    "tiling",
    "flexflow",
    "rowstationary",
    "pipeline",
)

#: Placement/whitespace/clock-tree overhead on top of raw component area.
LAYOUT_OVERHEAD = 1.15

#: Per-PE FIFO provisioning for the architectures that buffer operands in
#: FIFOs rather than random-access stores: 2D-Mapping PEs carry two small
#: neuron FIFOs (Figure 7b); Systolic rows carry one deep inter-row FIFO,
#: amortized per PE here.
MAPPING2D_FIFO_BYTES_PER_PE = 2 * 32
SYSTOLIC_FIFO_BYTES_PER_PE = 64


@dataclass(frozen=True)
class AreaReport:
    """Per-component area breakdown (mm^2) for one accelerator instance."""

    kind: str
    components: Dict[str, float]

    @property
    def total_mm2(self) -> float:
        return sum(self.components.values()) * LAYOUT_OVERHEAD

    def describe(self) -> str:
        lines = [f"{self.kind}: {self.total_mm2:.2f} mm^2"]
        for name, mm2 in sorted(self.components.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<14} {mm2:.3f} mm^2")
        return "\n".join(lines)


def pe_area_mm2(kind: str, config: ArchConfig) -> float:
    """Area of one PE (datapath + per-PE storage + control) for a kind."""
    tech = config.technology
    base = tech.mult_area_mm2 + tech.add_area_mm2 + tech.pe_control_area_mm2
    if kind == "flexflow":
        stores = tech.sram_area_mm2(config.neuron_store_bytes) + tech.sram_area_mm2(
            config.kernel_store_bytes
        )
        return base + stores
    if kind == "systolic":
        # Two 16-bit registers (synapse + partial sum) plus the amortized
        # inter-row FIFO share.
        registers = 2 * tech.register_area_mm2
        fifo = tech.sram_area_mm2(SYSTOLIC_FIFO_BYTES_PER_PE)
        return base + registers + fifo
    if kind == "mapping2d":
        fifos = tech.sram_area_mm2(MAPPING2D_FIFO_BYTES_PER_PE)
        return base + fifos
    if kind == "tiling":
        # Tiling's PEs are bare multiplier/adder lanes feeding adder trees;
        # no per-lane storage beyond a partial-sum register.
        return base + tech.register_area_mm2
    if kind == "rowstationary":
        # Eyeriss PEs carry a 512 B scratchpad (Table 7) and heavier
        # per-PE control for the row-stationary scheduling.
        spad = tech.sram_area_mm2(512)
        return base + spad + tech.pe_control_area_mm2
    if kind == "pipeline":
        # Systolic PE plus one transparency-configuration latch per
        # inter-stage boundary (the configurable-pipelining mechanism).
        registers = 3 * tech.register_area_mm2
        fifo = tech.sram_area_mm2(SYSTOLIC_FIFO_BYTES_PER_PE)
        return base + registers + fifo
    raise ConfigurationError(f"unknown architecture kind {kind!r}")


@lru_cache(maxsize=1024)
def area_report(kind: str, config: ArchConfig) -> AreaReport:
    """Full area breakdown of one accelerator instance.

    Memoized per ``(kind, config)``: the report is pure in its inputs
    (both hashable) and sweeps query it repeatedly — once per design
    point and once more inside every power computation's static term —
    so the hoisted result is shared instead of rebuilt.  Callers treat
    the returned report as read-only.
    """
    if kind not in ARCH_KINDS:
        raise ConfigurationError(
            f"unknown architecture kind {kind!r}; known: {', '.join(ARCH_KINDS)}"
        )
    tech = config.technology
    components: Dict[str, float] = {}
    components["pe_array"] = config.num_pes * pe_area_mm2(kind, config)
    # Table 5: every baseline carries the same on-chip buffer provisioning
    # (two ping-pong neuron buffers + one kernel buffer).
    components["neuron_buffers"] = 2 * tech.sram_area_mm2(config.neuron_buffer_bytes)
    components["kernel_buffer"] = tech.sram_area_mm2(config.kernel_buffer_bytes)
    components["interconnect"] = (
        wiring_model(kind).wire_mm(config.array_dim) * tech.wire_area_mm2_per_mm
    )
    components["pooling_unit"] = config.num_pooling_alus * tech.pool_alu_area_mm2
    components["decoder"] = 0.02  # instruction decoder + config registers
    return AreaReport(kind=kind, components=components)


def all_area_reports(config: ArchConfig) -> Dict[str, AreaReport]:
    """Area reports for every architecture kind at one configuration."""
    return {kind: area_report(kind, config) for kind in ARCH_KINDS}
