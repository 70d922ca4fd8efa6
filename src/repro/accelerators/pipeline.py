"""Configurable-pipelining systolic variant (ArrayFlex-style).

The classic systolic baseline (:mod:`repro.accelerators.systolic`) pays a
pipeline fill of ``W_in * min(K, Ta)`` cycles on *every* pass of every
(input map, output map) pair: the array drains completely between passes
and the operand wavefront must be re-established from scratch.

ArrayFlex-style *configurable pipelining* makes the inter-stage latches
transparent on demand, so while the tail of one pass drains, the head of
the next pass is already streaming in behind it.  The operand wavefront
is established **once per layer** instead of once per pass:

* systolic:  ``cycles = rounds * passes * (S^2 + fill)``
* pipeline:  ``cycles = rounds * passes * S^2 + fill``

with ``passes = ceil(K/Ta)^2``, ``fill = W_in * min(K, Ta)``,
``rounds = ceil(M*N / arrays)`` — same pass structure, same PE budget,
same traffic shape; only the fill recurrence changes.  The win is large
exactly where fill rivals the drain time: big input maps with few
(m, n) pairs per array (AlexNet C1 is the poster child), and it fades on
deep, small-map layers where ``rounds`` dominates and the single fill
amortizes to noise.  That asymmetry is what makes it a useful fifth
comparison point for the per-layer dataflow DSE
(:mod:`repro.dse.perlayer`).
"""

from __future__ import annotations

from repro.accelerators.systolic import SystolicAccelerator
from repro.dataflow.unrolling import ceil_div
from repro.nn.layers import ConvLayer


def pipeline_layer_cycles(
    layer: ConvLayer, array_size: int, num_pes: int
) -> int:
    """Healthy-array cycle count — the closed form the DSE solver scores.

    Kept as a module-level pure-int helper so the per-layer DP
    (:mod:`repro.dse.perlayer`) and the accelerator model cannot drift.
    """
    ta = array_size
    arrays = max(1, num_pes // (ta * ta))
    passes = ceil_div(layer.kernel, ta) ** 2
    fill = layer.in_size * min(layer.kernel, ta)
    pairs = layer.out_maps * layer.in_maps
    rounds = ceil_div(pairs, arrays)
    return rounds * passes * layer.out_size**2 + fill


class PipelinedSystolicAccelerator(SystolicAccelerator):
    """Systolic arrays with configurable (transparent) pipelining.

    Everything but the fill recurrence, the idle activity and the
    transparency latch writes is the systolic baseline's: the same
    ``Ta x Ta`` arrays (sized by :meth:`for_workload`, which the
    per-layer DSE replaces with a runtime-reconfigurable ``Ta``), the
    same traffic, the same fault sensitivity and spatial utilization.
    """

    kind = "pipeline"
    IDLE_ACTIVITY = 0.80  # transparent latches clock-gate drained stages

    def _healthy_cycles(self, layer: ConvLayer) -> int:
        return pipeline_layer_cycles(
            layer, self.array_size, self.config.num_pes
        )

    def _register_accesses(self, layer: ConvLayer, active: int) -> int:
        # Plus one transparency-configuration latch write per stage per
        # pass (the mechanism that elides the refill).
        ta = self.array_size
        passes = ceil_div(layer.kernel, ta) ** 2
        return super()._register_accesses(layer, active) + passes * ta * ta
