"""Tiling baseline (MFSNSS): DianNao-style feature-map-parallel engine.

Section 3.3's dataflow: ``Tm`` PE clusters each hold ``Tn`` multipliers and
an adder tree; every cycle ``Tn`` input neurons and ``Tm * Tn`` synapses
are loaded, producing one partial output neuron per cluster.  A neuron
completes after ``K^2`` cycles.  The evaluation configuration unrolls
``<Tm=16, Tn=16>``.

Model per layer: ``cycles = ⌈M/Tm⌉ * ⌈N/Tn⌉ * S^2 * K^2``; utilization is
``M*N / (⌈M/Tm⌉*⌈N/Tn⌉*Tm*Tn)`` (the Table 3 closed form).  Because the
architecture has no local storage, synapses are re-loaded *every cycle*
(one word per active multiplier lane) — the huge Figure 17 traffic — and
input neurons are re-read for every output-map tile.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.accelerators.base import Accelerator, LayerResult, dram_words_with_reload
from repro.arch.area import pe_area_mm2
from repro.arch.config import ArchConfig
from repro.arch.power import ActivityCounts
from repro.dataflow.unrolling import ceil_div
from repro.errors import ConfigurationError
from repro.faults.impact import tiling_retention
from repro.faults.mask import AvailabilityMask
from repro.nn.layers import ConvLayer


def tiling_layer_cycles(layer: ConvLayer, tm: int, tn: int) -> int:
    """Healthy-array cycle count — the closed form the DSE solver scores.

    Module-level pure-int helper so the per-layer DP
    (:mod:`repro.dse.perlayer`) and the accelerator model cannot drift.
    """
    m_tiles = ceil_div(layer.out_maps, tm)
    n_tiles = ceil_div(layer.in_maps, tn)
    return m_tiles * n_tiles * layer.out_size**2 * layer.kernel**2


class TilingAccelerator(Accelerator):
    """The DianNao-style tiling baseline.

    Args:
        config: shared sizing; ``Tm = Tn = config.array_dim`` by default.
        tm, tn: explicit tile factors (Table 3's layer-optimized variants).
    """

    kind = "tiling"
    IDLE_ACTIVITY = 0.70

    def __init__(
        self,
        config: Optional[ArchConfig] = None,
        *,
        tm: Optional[int] = None,
        tn: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        for name, value in (("tm", tm), ("tn", tn)):
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        self.tm = tm if tm is not None else self.config.array_dim
        self.tn = tn if tn is not None else self.config.array_dim

    def simulate_layer(self, layer: ConvLayer, **_context) -> LayerResult:
        m_tiles = ceil_div(layer.out_maps, self.tm)
        n_tiles = ceil_div(layer.in_maps, self.tn)
        cycles = self._degrade_cycles(
            tiling_layer_cycles(layer, self.tm, self.tn), layer
        )

        macs = layer.macs
        total_pes = self.tm * self.tn
        utilization = macs / (cycles * total_pes)

        # Per cycle the active lanes load min(N, Tn) neurons and
        # min(M, Tm) * min(N, Tn) synapses; over the layer that integrates
        # to the closed forms below.  No storage -> no reuse.
        input_words = m_tiles * layer.in_maps * layer.out_size**2 * layer.kernel**2
        kernel_words = macs  # one synapse word per MAC: zero reuse
        output_writes = layer.out_maps * layer.out_size**2 * n_tiles
        partial_reads = layer.out_maps * layer.out_size**2 * (n_tiles - 1)

        active = self._active_pe_cycles(macs, cycles, total_pes)
        register_accesses = 2 * active
        pitch = math.sqrt(pe_area_mm2(self.kind, self.config))
        span = self.tm * pitch
        # Neurons broadcast across all clusters; synapses on private feeds
        # of ~half-array average length.
        bus_word_mm = input_words * span + kernel_words * span / 2

        dram = dram_words_with_reload(
            layer, self.config, input_reread_factor=m_tiles
        )

        counts = ActivityCounts(
            cycles=cycles,
            mac_ops=macs,
            active_pe_cycles=active,
            neuron_buffer_reads=input_words,
            neuron_buffer_writes=output_writes,
            neuron_buffer_partial_reads=partial_reads,
            kernel_buffer_reads=kernel_words,
            register_accesses=register_accesses,
            bus_word_mm=bus_word_mm,
            dram_accesses=dram,
        )
        return LayerResult(
            kind=self.kind,
            layer=layer,
            cycles=cycles,
            utilization=utilization,
            counts=counts,
        )

    def _masked_retention(self, mask: AvailabilityMask) -> float:
        """A dead lane corrupts its cluster's adder-tree sum — cluster kill."""
        return tiling_retention(mask, self.tm, self.tn)

    def spatial_utilization(self, layer: ConvLayer) -> float:
        """The Table 3 closed form: ``M*N / (⌈M/Tm⌉*⌈N/Tn⌉*Tm*Tn)``."""
        m_tiles = ceil_div(layer.out_maps, self.tm)
        n_tiles = ceil_div(layer.in_maps, self.tn)
        return (layer.out_maps * layer.in_maps) / (
            m_tiles * n_tiles * self.tm * self.tn
        )
