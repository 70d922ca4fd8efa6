"""Functional simulation of the 2D-Mapping (SFMNSS) shift dataflow.

Section 3.2's machine: a ``B x B`` PE array where each PE owns one output
neuron of a ``B x B`` block of one output feature map.  Per cycle one
synapse ``K(i, j)`` is broadcast to every PE while the neuron window held
by the array shifts: along a kernel row the window moves one column left
(each PE takes its right neighbour's neuron, the rightmost column loads a
fresh one), and at a kernel row boundary the window moves one row up.  The
per-PE FIFOs of Figure 7(b) are what makes the shifted neurons reusable;
the simulator realizes them as an explicit neuron grid whose refill events
are counted as buffer reads and whose shifts as FIFO traffic.

A block therefore takes exactly ``K^2`` cycles per input map, matching the
analytical model.  The modeled array works through the output maps one
after another; the window schedule of a block depends only on the input
map, so the simulator runs it once per ``(block, input map)`` with an
``(M, rows, cols)`` partial sum and grows every counter by ``M`` per
event.  Outputs equal the golden convolution to within float rounding
(the summation order differs).

Whenever the C kernel suite is loaded, every block, window move,
alignment check and counter of the layer is one
``repro_mapping2d_layer`` call
(:meth:`~repro.kernels.cext.CExtKernels.mapping2d_layer`), which adds
every product in the same order.  The block loop below is the ``numpy``
backend and the reference ``tests/kernels/test_parity.py`` pins the
kernel to, byte for byte.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError, SpecificationError
from repro.kernels import active_kernels, count_kernel_call
from repro.nn.layers import ConvLayer
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.trace import SimTrace, layer_operands


class Mapping2DFunctionalSim:
    """Cycle-level functional model of the 2D-Mapping array."""

    def __init__(
        self, block_size: int = 16, tracer: Optional[Tracer] = None
    ) -> None:
        if block_size <= 0:
            raise SpecificationError(
                f"block_size must be positive, got {block_size}"
            )
        self.block_size = block_size
        self.tracer = tracer

    def run_layer(
        self, layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute a stride-1 CONV layer block by block."""
        if layer.stride != 1:
            raise SpecificationError("2D-Mapping dataflow models stride-1 layers")
        padded, kernels = layer_operands(layer, inputs, kernels)
        trace = SimTrace()
        compiled = active_kernels()
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.mapping2d"
        ) as span:
            if compiled is not None:
                out, counters = compiled.mapping2d_layer(
                    padded,
                    kernels,
                    out_size=layer.out_size,
                    block=self.block_size,
                )
                for name, count in counters.items():
                    setattr(trace, name, count)
                count_kernel_call("mapping2d_layer", compiled.backend)
            else:
                out = self._run_blocks(layer, padded, kernels, trace)
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return out, trace

    def _run_blocks(
        self,
        layer: ConvLayer,
        padded: np.ndarray,
        kernels: np.ndarray,
        trace: SimTrace,
    ) -> np.ndarray:
        """Every ``(block, input map)`` window schedule of the layer."""
        block = self.block_size
        out = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
        for r0 in range(0, layer.out_size, block):
            for c0 in range(0, layer.out_size, block):
                rows = min(block, layer.out_size - r0)
                cols = min(block, layer.out_size - c0)
                psum = np.zeros((layer.out_maps, rows, cols))
                for n in range(layer.in_maps):
                    self._run_block(
                        padded[n],
                        kernels[:, n],
                        psum,
                        (r0, c0),
                        trace,
                    )
                out[:, r0:r0 + rows, c0:c0 + cols] = psum
                trace.neuron_buffer_writes += psum.size
        return out

    def _run_block(
        self,
        image: np.ndarray,
        kernels: np.ndarray,
        psum: np.ndarray,
        origin: Tuple[int, int],
        trace: SimTrace,
    ) -> None:
        """One input map's window schedule on one block, for all ``M`` maps.

        ``kernels`` is ``(M, K, K)`` and ``psum`` is ``(M, rows, cols)``.
        """
        maps, rows, cols = psum.shape
        k = kernels.shape[-1]
        r0, c0 = origin
        # The neuron window currently held by the array: window[p, q] is
        # the neuron PE (p, q) will multiply this cycle.
        window: Optional[np.ndarray] = None
        for i in range(k):
            for j in range(k):
                trace.cycles += maps
                trace.kernel_buffer_reads += maps  # synapse broadcast
                trace.bus_transfers += maps
                if window is None:
                    # Initial load: the whole (rows x cols) window.
                    window = image[r0 + i:r0 + i + rows, c0 + j:c0 + j + cols].copy()
                    trace.neuron_buffer_reads += maps * rows * cols
                elif j > 0:
                    self._shift_left(
                        window, image[r0 + i:r0 + i + rows, c0 + j + cols - 1]
                    )
                    trace.fifo_accesses += maps * 2 * rows * (cols - 1)
                    trace.neuron_buffer_reads += maps * rows
                else:
                    # Kernel-row boundary: the window moves one row down in
                    # the image and rewinds K-1 columns.  The overlap with
                    # the previous window — (rows-1) x (cols-(K-1)) neurons
                    # — shifts through the per-PE FIFOs; the fresh bottom
                    # row and the rewound leading columns reload from the
                    # buffer.
                    overlap_rows = rows - 1
                    overlap_cols = max(0, cols - (k - 1))
                    reused = overlap_rows * overlap_cols
                    trace.fifo_accesses += maps * 2 * reused
                    trace.neuron_buffer_reads += maps * (rows * cols - reused)
                    window = image[
                        r0 + i:r0 + i + rows, c0:c0 + cols
                    ].copy()
                sample = window[0, 0]
                expected = image[r0 + i, c0 + j]
                if sample != expected:
                    raise SimulationError(
                        f"window misaligned at kernel ({i},{j}):"
                        f" PE(0,0) holds {sample}, expected {expected}"
                    )
                psum += window * kernels[:, i, j, np.newaxis, np.newaxis]
                trace.mac_ops += maps * rows * cols
                trace.register_accesses += maps * 2 * rows * cols

    @staticmethod
    def _shift_left(window: np.ndarray, fresh: np.ndarray) -> None:
        """PEs take their right neighbour's neuron; the rightmost column
        loads ``fresh`` from the buffer."""
        window[:, :-1] = window[:, 1:]
        window[:, -1] = fresh
