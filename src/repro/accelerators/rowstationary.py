"""Row-Stationary baseline (Eyeriss-style), the paper's Table 7 comparator.

Section 7 discusses Eyeriss [4]: a 12 x 14 PE array where each PE holds
one *filter row* in its register file and slides it along one *input
row*, producing one partial-sum row; ``K`` vertically-adjacent PEs chain
their psum rows to finish one output row (a "PE set" is ``K`` rows tall
and one output-row wide).  Sets tile the array; different sets process
different output rows, and passes iterate over (filter, channel) pairs.

Model summary (one MAC per PE per cycle):

* a PE computes its (filter row, output row) pair in ``S * K`` cycles
  (S output elements, K MACs each), so one *column job* — a K-PE chain
  finishing one output row of one (m, n) pair — takes ``S * K`` cycles
  on ``K`` PEs at full internal utilization;
* the array runs ``cols * floor(rows/K)`` column jobs concurrently,
  pooled across output rows and (m, n) pairs (kernels taller than the
  array fold into ``ceil(K/rows)`` sub-passes);
* total jobs = ``M * N * S``.

Data reuse follows Eyeriss's design point: filters are read once into the
register files, input rows are broadcast diagonally (each unique input
word read once per output-map pass group), and psums stay on-array across
the ``K``-row chain, spilling once per (m, n) pair.

This is an *approximate qualitative comparator* — Eyeriss's actual
mapper (row folding/replication) is more sophisticated — kept faithful
enough to place RS between the rigid baselines and FlexFlow on the
paper's metrics, as Table 7's DRAM numbers suggest.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.accelerators.base import Accelerator, LayerResult, dram_words_with_reload
from repro.arch.config import ArchConfig
from repro.arch.power import ActivityCounts
from repro.dataflow.unrolling import ceil_div
from repro.errors import ConfigurationError
from repro.faults.impact import row_kill_retention
from repro.faults.mask import AvailabilityMask
from repro.nn.layers import ConvLayer


class RowStationaryAccelerator(Accelerator):
    """Eyeriss-style row-stationary baseline.

    Args:
        config: shared sizing; the array defaults to
            ``(array_dim - 4) x (array_dim - 2)`` to track scale, which is
            Eyeriss's 12 x 14 (the 168-PE published design) at the
            default ``array_dim`` of 16.
    """

    kind = "rowstationary"
    IDLE_ACTIVITY = 0.45  # spad-equipped PEs gate better than bare fabrics

    def __init__(
        self,
        config: Optional[ArchConfig] = None,
        *,
        array_rows: Optional[int] = None,
        array_cols: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        dim = self.config.array_dim
        self.array_rows = array_rows if array_rows is not None else max(1, dim - 4)
        self.array_cols = array_cols if array_cols is not None else max(1, dim - 2)
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ConfigurationError("array dimensions must be positive")

    @property
    def total_pes(self) -> int:
        return self.array_rows * self.array_cols

    def simulate_layer(self, layer: ConvLayer, **_context) -> LayerResult:
        k = layer.kernel
        s = layer.out_size
        folds = ceil_div(k, self.array_rows)
        set_height = min(k, self.array_rows)
        sets_vertical = max(1, self.array_rows // set_height)
        # One "column job" = one output row of one (m, n) pair: K chained
        # PEs for S*K cycles.  The array runs cols * sets_vertical jobs
        # concurrently, pooled across output rows and (m, n) pairs.
        concurrent_jobs = self.array_cols * sets_vertical
        jobs = layer.out_maps * layer.in_maps * s
        cycles = self._degrade_cycles(
            ceil_div(jobs, concurrent_jobs) * folds * s * k, layer
        )

        macs = layer.macs
        utilization = macs / (cycles * self.total_pes)
        active = self._active_pe_cycles(macs, cycles, self.total_pes)

        # Traffic: filters once; inputs once per output map (diagonal
        # broadcast shares within a pass); psums spill once per (m, n).
        kernel_words = layer.num_kernel_words
        input_words = layer.num_input_words * layer.out_maps
        output_writes = layer.out_maps * layer.in_maps * s * s
        partial_reads = layer.out_maps * (layer.in_maps - 1) * s * s

        # Each MAC reads its filter word and input word from the PE spad.
        ls_reads = 2 * macs
        ls_writes = kernel_words + input_words

        from repro.arch.area import pe_area_mm2

        pitch = math.sqrt(pe_area_mm2(self.kind, self.config))
        span = self.array_cols * pitch
        bus_word_mm = input_words * span / 2 + kernel_words * span / 2

        dram = dram_words_with_reload(layer, self.config)

        counts = ActivityCounts(
            cycles=cycles,
            mac_ops=macs,
            active_pe_cycles=active,
            neuron_buffer_reads=input_words,
            neuron_buffer_writes=output_writes,
            neuron_buffer_partial_reads=partial_reads,
            kernel_buffer_reads=kernel_words,
            local_store_reads=ls_reads,
            local_store_writes=ls_writes,
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
        """A dead PE breaks its row's diagonal psum chain — row kill."""
        return row_kill_retention(mask)
