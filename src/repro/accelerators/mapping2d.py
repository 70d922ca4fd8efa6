"""2D-Mapping baseline (SFMNSS): ShiDianNao-style neuron-parallel array.

Section 3.2's dataflow: a ``D x D`` PE array maps one ``D x D`` block of
output neurons of a single output feature map; each cycle one synapse is
broadcast to every PE, neurons shift between neighbours through per-PE
FIFOs, and every PE accumulates its own output neuron.  A block finishes
after ``K^2`` cycles per input map.

Model per layer: ``cycles = M * ⌈S/D⌉^2 * N * K^2``; spatial utilization is
the edge-block occupancy ``S^2 / (⌈S/D⌉^2 * D^2)`` (the Table 3 closed
form).  Input regions are re-read once per *output* map (the paper's noted
weakness), synapses are broadcast once per cycle, and neuron movement rides
the per-PE FIFOs.
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
from repro.faults.impact import row_kill_retention
from repro.faults.mask import AvailabilityMask
from repro.nn.layers import ConvLayer


def mapping2d_layer_cycles(layer: ConvLayer, block_size: int) -> int:
    """Healthy-array cycle count — the closed form the DSE solver scores.

    Module-level pure-int helper so the per-layer DP
    (:mod:`repro.dse.perlayer`) and the accelerator model cannot drift.
    Includes the inter-block switch bubble: ``block_size`` extra cycles
    per output-block visit, draining the block's finished neurons and
    pre-loading the next block's initial window through the edge FIFOs.
    """
    blocks = ceil_div(layer.out_size, block_size) ** 2
    return layer.out_maps * blocks * (
        layer.in_maps * layer.kernel**2 + block_size
    )


class Mapping2DAccelerator(Accelerator):
    """The ShiDianNao-style 2D-Mapping baseline.

    Args:
        config: shared sizing; the array is ``config.array_dim`` squared.
        block_size: override the output-block edge (defaults to the array
            dimension; Table 3's layer-optimized variants set it to the
            optimized layer's ``S``).
    """

    kind = "mapping2d"
    IDLE_ACTIVITY = 0.85

    def __init__(
        self, config: Optional[ArchConfig] = None, *, block_size: Optional[int] = None
    ) -> None:
        super().__init__(config)
        if block_size is not None and block_size <= 0:
            raise ConfigurationError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size or self.config.array_dim

    def simulate_layer(self, layer: ConvLayer, **_context) -> LayerResult:
        block = self.block_size
        blocks = ceil_div(layer.out_size, block) ** 2
        cycles = self._degrade_cycles(
            mapping2d_layer_cycles(layer, block), layer
        )

        macs = layer.macs
        total_pes = block * block
        utilization = macs / (cycles * total_pes)

        # Input regions: each output block needs a (block + K - 1)^2 input
        # halo per input map, re-read for every output map.
        halo = min(layer.in_size, block + layer.kernel - 1)
        input_words = layer.out_maps * layer.in_maps * blocks * halo**2
        kernel_words = layer.out_maps * layer.in_maps * layer.kernel**2
        output_writes = layer.out_maps * layer.out_size**2
        partial_reads = 0  # PEs accumulate across input maps locally

        active = self._active_pe_cycles(macs, cycles, total_pes)
        # Neuron shifting: ~2 FIFO events per PE-edge movement, one column
        # or row of the active block moves per cycle.
        active_edge = min(layer.out_size, block)
        fifo_accesses = 2 * cycles * active_edge
        register_accesses = 2 * active  # partial-sum register read+write

        pitch = math.sqrt(pe_area_mm2(self.kind, self.config))
        span = block * pitch
        # Synapse broadcast spans the whole array every cycle; inputs enter
        # along one edge.
        bus_word_mm = kernel_words * span + input_words * span / 2

        dram = dram_words_with_reload(
            layer, self.config, input_reread_factor=min(layer.out_maps, 4)
        )

        counts = ActivityCounts(
            cycles=cycles,
            mac_ops=macs,
            active_pe_cycles=active,
            neuron_buffer_reads=input_words,
            neuron_buffer_writes=output_writes,
            neuron_buffer_partial_reads=partial_reads,
            kernel_buffer_reads=kernel_words,
            fifo_accesses=fifo_accesses,
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
        """A dead PE severs its row's neuron shift chain — row kill."""
        return row_kill_retention(mask)

    def spatial_utilization(self, layer: ConvLayer) -> float:
        """The Table 3 closed form: ``S^2 / (⌈S/D⌉^2 * D^2)``."""
        block = self.block_size
        blocks = ceil_div(layer.out_size, block) ** 2
        return layer.out_size**2 / (blocks * block**2)
