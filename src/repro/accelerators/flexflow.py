"""FlexFlow accelerator model: mapper-driven MFMNMS execution.

Cycles come straight from the chosen unrolling factors (one unrolled tile
per cycle, Section 4.2), utilization from Eqs. 2-3, and traffic from the
RA/RS/IADP/IPDR reuse structure:

* **neuron buffer reads** — each input word is broadcast onto its vertical
  CDB once per output-map tile group (``⌈M/Tm⌉`` times): within a group
  residence, RS preloading plus the per-PE neuron stores serve every reuse
  locally.
* **kernel buffer reads** — each synapse is read once (IPDR replicates it
  over the free horizontal-bus bandwidth instead of re-reading).
* **output writes** — once per output neuron: a PE row accumulates its
  neuron's partial sums in place across the intra-row iterations, so no
  partial-sum round-trips unless the mapper broke inter-layer coupling
  (re-layout traffic is charged separately).
* **local stores** — every MAC reads one neuron and one synapse word from
  the PE's stores; store writes follow the broadcast/replication counts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.accelerators.base import Accelerator, LayerResult, dram_words_with_reload
from repro.arch.area import pe_area_mm2
from repro.arch.power import ActivityCounts
from repro.dataflow.mapper import LayerMapping, map_layer, map_network
from repro.dataflow.placement import ipdr_replication_factor
from repro.dataflow.unrolling import ceil_div
from repro.nn.layers import ConvLayer
from repro.nn.network import Network


class FlexFlowAccelerator(Accelerator):
    """The paper's architecture, driven by the Section 5 mapper.

    Idle rows/columns outside the active logical groups are clock-gated
    (the grouping makes them statically known per layer), so idle PEs cost
    only residual clock load.
    """

    kind = "flexflow"
    IDLE_ACTIVITY = 0.08

    def simulate_layer(self, layer: ConvLayer, **context) -> LayerResult:
        """Execute one layer.

        Accepts an optional precomputed ``mapping`` (from
        :func:`~repro.dataflow.mapper.map_network`) so network runs use the
        jointly-optimized factors; standalone calls fall back to the greedy
        per-layer mapper with the provided ``tr_tc_bound``.
        """
        mapping: Optional[LayerMapping] = context.get("mapping")
        if mapping is None:
            mapping = map_layer(
                layer,
                self.config.array_dim,
                tr_tc_bound=context.get("tr_tc_bound"),
                mask=self.config.pe_mask,
            )
        return self._result_from_mapping(mapping)

    def _conv_layer_results(self, network: Network) -> List[LayerResult]:
        """Every CONV layer under the joint (DP) mapping.

        :func:`~repro.dataflow.mapper.map_network` memoizes the search per
        process and persists nothing; the closed forms below run once per
        distinct walk, because :meth:`simulate_network` memoizes the
        whole network result on top.
        """
        net_mapping = map_network(
            network, self.config.array_dim, mask=self.config.pe_mask
        )
        by_name: Dict[str, LayerMapping] = net_mapping.by_layer_name()
        return [
            self._result_from_mapping(by_name[ctx.layer.name])
            for ctx in network.conv_contexts()
        ]

    # -- internals ------------------------------------------------------------

    def _result_from_mapping(self, mapping: LayerMapping) -> LayerResult:
        layer = mapping.layer
        factors = mapping.factors
        dim = self.config.array_dim
        cycles = mapping.total_cycles
        macs = layer.macs

        m_groups = ceil_div(layer.out_maps, factors.tm)
        input_words = layer.num_input_words * m_groups
        kernel_words = layer.num_kernel_words
        output_writes = layer.num_output_words
        # Re-layout traffic when inter-layer coupling was broken: one
        # read + write pass of the input volume (mapper charged the cycles).
        relayout_words = (
            2 * layer.num_input_words if mapping.relayout_cycles else 0
        )

        # Local stores: one neuron + one synapse read per MAC; writes follow
        # the CDB deliveries.  A broadcast neuron is latched by the active
        # rows of its column that will consume it; a kernel word is latched
        # once per PE row of its group (the IPDR copies — within a row only
        # the residue-class column stores it).
        ls_reads = 2 * macs
        rows_active = factors.column_occupancy
        ls_writes = (
            input_words * min(dim, rows_active)
            + kernel_words * ipdr_replication_factor(factors)
        )

        pitch = math.sqrt(pe_area_mm2(self.kind, self.config))
        span = dim * pitch
        replication = ipdr_replication_factor(factors)
        bus_word_mm = (
            input_words * span / 2  # vertical CDB, average half-span
            + kernel_words * replication * span / 2  # horizontal CDB + IPDR
        )

        dram = dram_words_with_reload(layer, self.config)

        active = self._active_pe_cycles(macs, cycles, dim * dim)
        counts = ActivityCounts(
            cycles=cycles,
            mac_ops=macs,
            active_pe_cycles=active,
            neuron_buffer_reads=input_words,
            neuron_buffer_writes=output_writes + relayout_words // 2,
            neuron_buffer_partial_reads=relayout_words // 2,
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
            utilization=mapping.utilization.ut,
            counts=counts,
        )
