"""Functional simulation of the 1-D pooling unit.

Section 4's pooling unit is "a series of lightweight ALUs, subsampling
the immediate convolution results to reduce data transmission".  The
model: ``A`` ALUs (one per PE column by default) each reduce one pooling
window per ``window^2`` cycles, walking the output positions of every
map in row-major order.

The simulator computes real max/average pooling (validated against the
golden model) and reports cycles and ALU-op counts; the accelerator
models treat pooling as off-critical-path (it overlaps the next layer's
compute), so these cycles feed the overlap-validity check rather than
the performance results.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.nn.layers import PoolLayer
from repro.sim.trace import SimTrace


class PoolingUnitSim:
    """Cycle-level functional model of the 1-D pooling unit."""

    def __init__(self, num_alus: int = 16) -> None:
        if num_alus <= 0:
            raise SpecificationError(f"num_alus must be positive, got {num_alus}")
        self.num_alus = num_alus

    def run_layer(
        self, layer: PoolLayer, inputs: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute one POOL layer; returns ``(outputs, trace)``."""
        if tuple(inputs.shape) != layer.input_shape:
            raise SpecificationError(
                f"{layer.name}: inputs shape {inputs.shape} !="
                f" {layer.input_shape}"
            )
        trace = SimTrace()
        outputs = np.empty(layer.output_shape, dtype=inputs.dtype)
        stride = layer.stride
        window = layer.window
        positions = layer.maps * layer.out_size * layer.out_size

        # Cycle model: the ALU row processes up to `num_alus` windows in
        # parallel, each window costing window^2 element reads.
        batches = -(-positions // self.num_alus)
        trace.cycles += batches * window * window

        for channel in range(layer.maps):
            for r in range(layer.out_size):
                for c in range(layer.out_size):
                    r0, c0 = r * stride, c * stride
                    patch = inputs[channel, r0:r0 + window, c0:c0 + window]
                    trace.neuron_buffer_reads += patch.size
                    if layer.mode == "max":
                        outputs[channel, r, c] = patch.max()
                    else:
                        outputs[channel, r, c] = patch.mean()
                    trace.mac_ops += patch.size  # comparator/add ops
                    trace.neuron_buffer_writes += 1
        return outputs, trace
