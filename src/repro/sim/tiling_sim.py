"""Functional simulation of the Tiling (MFSNSS) adder-tree dataflow.

Section 3.3's machine: ``Tm`` PE clusters, each with ``Tn`` multipliers
feeding an adder tree.  Per cycle, one synapse position ``(i, j)`` of one
output position ``(r, c)`` is processed: ``Tn`` input neurons are loaded
and broadcast to all clusters, each cluster loads its own ``Tn`` private
synapses, multiplies, reduces through its tree, and accumulates into its
output register.  After ``K^2`` cycles each cluster has one finished
(partial, if ``N > Tn``) output neuron.

The simulator counts the signature zero-reuse synapse traffic (one kernel
word per multiplier per cycle) and the partial-sum round-trips when the
input maps exceed ``Tn``.

The modeled engine visits the ``S^2`` output positions one after
another with the same ``K^2``-cycle schedule, so the simulator runs each
``(m0, n0, i, j)`` cycle for all positions at once and grows every
counter by ``S^2`` per event.  Each position's ``Tn`` products stay
contiguous on the last axis, so the adder-tree sum adds them in the same
order as one position at a time.

Whenever the C kernel suite is loaded, the whole layer is one
``repro_tiling_layer`` call
(:meth:`~repro.kernels.cext.CExtKernels.tiling_layer`), whose adder
trees add each position's products in NumPy's pairwise order.  The loop
below is the ``numpy`` backend and the reference
``tests/kernels/test_parity.py`` pins the kernel to, byte for byte.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.kernels import active_kernels, count_kernel_call
from repro.nn.layers import ConvLayer
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.trace import SimTrace, layer_operands


class TilingFunctionalSim:
    """Cycle-level functional model of the tiling engine."""

    def __init__(
        self, tm: int = 16, tn: int = 16, tracer: Optional[Tracer] = None
    ) -> None:
        if tm <= 0 or tn <= 0:
            raise SpecificationError("tile factors must be positive")
        self.tm = tm
        self.tn = tn
        self.tracer = tracer

    def run_layer(
        self, layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute a CONV layer tile group by tile group."""
        padded, kernels = layer_operands(layer, inputs, kernels)
        trace = SimTrace()
        compiled = active_kernels()
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.tiling"
        ) as span:
            if compiled is not None:
                out, counters = compiled.tiling_layer(
                    padded,
                    kernels,
                    out_size=layer.out_size,
                    stride=layer.stride,
                    tm=self.tm,
                    tn=self.tn,
                )
                for name, count in counters.items():
                    setattr(trace, name, count)
                count_kernel_call("tiling_layer", compiled.backend)
            else:
                out = self._run_tiles(layer, padded, kernels, trace)
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return out, trace

    def _run_tiles(
        self,
        layer: ConvLayer,
        padded: np.ndarray,
        kernels: np.ndarray,
        trace: SimTrace,
    ) -> np.ndarray:
        """Every ``(m0, n0, i, j)`` cycle of the layer, all positions at once."""
        out = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
        stride = layer.stride
        k = layer.kernel
        positions = layer.out_size * layer.out_size
        reach = (layer.out_size - 1) * stride + 1
        for m0 in range(0, layer.out_maps, self.tm):
            m_hi = min(m0 + self.tm, layer.out_maps)
            for n0 in range(0, layer.in_maps, self.tn):
                n_hi = min(n0 + self.tn, layer.in_maps)
                first_round = n0 == 0
                # Partial-sum read-back when accumulating a later
                # input-map tile onto stored partials.
                if not first_round:
                    trace.neuron_buffer_partial_reads += positions * (m_hi - m0)
                acc = np.zeros((m_hi - m0, layer.out_size, layer.out_size))
                for i in range(k):
                    for j in range(k):
                        trace.cycles += positions
                        # neurons[r, c] is the Tn-word broadcast of
                        # output position (r, c).
                        neurons = padded[
                            n0:n_hi,
                            i:i + reach:stride,
                            j:j + reach:stride,
                        ].transpose(1, 2, 0)
                        trace.neuron_buffer_reads += positions * (n_hi - n0)
                        trace.bus_transfers += positions * (n_hi - n0)
                        synapses = kernels[m0:m_hi, n0:n_hi, i, j]
                        trace.kernel_buffer_reads += positions * synapses.size
                        # C order keeps each tree's Tn inputs contiguous,
                        # which fixes the pairwise order of the sum.
                        products = np.multiply(
                            synapses[:, np.newaxis, np.newaxis, :],
                            neurons[np.newaxis],
                            order="C",
                        )
                        acc += products.sum(axis=-1)
                        trace.mac_ops += positions * synapses.size
                        trace.register_accesses += positions * 2 * (m_hi - m0)
                out[m0:m_hi] += acc
                trace.neuron_buffer_writes += positions * (m_hi - m0)
        return out
