"""Systolic baseline (SFSNMS): DC-CNN-style arrays of K x K pipelines.

Section 3.1's dataflow: a ``Ta x Ta`` PE array forms one deep pipeline
computing one (input map, output map) convolution; every cycle one input
neuron is broadcast to all PEs, partial outputs shift rightward/through
inter-row FIFOs, and one finished output neuron drains per cycle once the
pipeline is full.  The evaluation configuration (Section 6.1.1) uses
**seven** identical ``6 x 6`` arrays (``11 x 11`` for AlexNet) working in
a tiling-like mode across (m, n) pairs, matching the 256-PE scale of the
other baselines.

Model summary per (m, n) pair:

* ``⌈K/Ta⌉^2`` passes when the kernel exceeds the array,
* each pass costs ``S^2`` drain cycles plus a pipeline fill of roughly
  ``W_in * Ta`` cycles (the paper: depth ≈ input width x kernel size),
* pairs are distributed round-robin over the arrays (load imbalance shows
  up as idle rounds).
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
from repro.faults.impact import systolic_retention
from repro.faults.mask import AvailabilityMask
from repro.nn.layers import ConvLayer


def systolic_layer_cycles(layer: ConvLayer, array_size: int, num_pes: int) -> int:
    """Healthy-array cycle count — the closed form the DSE solver scores.

    Module-level pure-int helper so the per-layer DP
    (:mod:`repro.dse.perlayer`) and the accelerator model cannot drift.
    """
    ta = array_size
    arrays = max(1, num_pes // (ta * ta))
    passes = ceil_div(layer.kernel, ta) ** 2
    cycles_per_pass = layer.out_size**2 + layer.in_size * min(layer.kernel, ta)
    pairs = layer.out_maps * layer.in_maps
    return ceil_div(pairs, arrays) * passes * cycles_per_pass


class SystolicAccelerator(Accelerator):
    """The DC-CNN-style systolic baseline.

    Args:
        config: shared sizing (PE budget = ``config.num_pes``).
        array_size: ``Ta`` — one systolic array is ``Ta x Ta``.  The paper
            uses 6 for the small workloads and 11 for AlexNet; pass the
            value explicitly or let :meth:`for_workload` choose.
    """

    kind = "systolic"
    IDLE_ACTIVITY = 0.85

    def __init__(
        self, config: Optional[ArchConfig] = None, *, array_size: int = 6
    ) -> None:
        super().__init__(config)
        if array_size <= 0:
            raise ConfigurationError(f"array_size must be positive, got {array_size}")
        self.array_size = array_size

    @classmethod
    def for_workload(
        cls, workload_name: str, config: Optional[ArchConfig] = None
    ) -> "SystolicAccelerator":
        """The paper's per-workload sizing: Ta=11 for AlexNet, else 6."""
        array_size = 11 if workload_name == "AlexNet" else 6
        return cls(config, array_size=array_size)

    @property
    def num_arrays(self) -> int:
        """Arrays fitting the shared PE budget (7 at the 16x16 scale)."""
        return max(1, self.config.num_pes // (self.array_size**2))

    def _healthy_cycles(self, layer: ConvLayer) -> int:
        """Healthy-array cycles, with a pipeline fill on every pass (the
        pipelined variant fills once per layer)."""
        return systolic_layer_cycles(
            layer, self.array_size, self.config.num_pes
        )

    def _register_accesses(self, layer: ConvLayer, active: int) -> int:
        """Per active PE cycle: synapse register read + partial-sum update."""
        return 3 * active

    def simulate_layer(self, layer: ConvLayer, **_context) -> LayerResult:
        ta = self.array_size
        arrays = self.num_arrays
        passes = ceil_div(layer.kernel, ta) ** 2
        pairs = layer.out_maps * layer.in_maps
        cycles = self._degrade_cycles(self._healthy_cycles(layer), layer)

        macs = layer.macs
        total_pes = arrays * ta * ta
        utilization = macs / (cycles * total_pes)

        # Traffic.  Arrays processing different output maps of the same
        # input map share the input broadcast; the sharing degree is how
        # many arrays can be fed the same input map at once.
        sharing = min(arrays, layer.out_maps)
        input_words = (
            pairs * passes * layer.in_size**2 + sharing - 1
        ) // sharing
        kernel_words = layer.num_kernel_words  # synapses loaded once/pair
        output_writes = pairs * layer.out_size**2
        partial_reads = layer.out_maps * (layer.in_maps - 1) * layer.out_size**2

        active = self._active_pe_cycles(macs, cycles, total_pes)
        # Each output neuron shifts through ~K pipeline stages and the
        # inter-row FIFOs; charge 2 FIFO events (push + pop) per row switch.
        fifo_accesses = 2 * pairs * layer.out_size**2 * min(layer.kernel, ta)
        register_accesses = self._register_accesses(layer, active)

        pitch = math.sqrt(pe_area_mm2(self.kind, self.config))
        span = ta * pitch
        bus_word_mm = input_words * span  # input broadcast across the array

        dram = dram_words_with_reload(layer, self.config)

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
        """A dead PE anywhere in a ``Ta x Ta`` array retires the array."""
        return systolic_retention(mask, self.array_size)

    def spatial_utilization(self, layer: ConvLayer) -> float:
        """Occupancy ignoring pipeline fill — the Table 3 closed form.

        ``K^2 / (Ta^2 * ⌈K/Ta⌉^2)``: how much of each array the kernel
        covers, accounting for multi-pass kernel tiling.
        """
        ta = self.array_size
        passes = ceil_div(layer.kernel, ta) ** 2
        return layer.kernel**2 / (ta**2 * passes)
