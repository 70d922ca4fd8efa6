"""What the functional simulators share: event counters and operands.

The analytical accelerator models *predict* event counts; the functional
simulators *observe* them while computing real values.  Integration tests
compare the two, which is how the traffic model earns its Figure 17
numbers.

Every simulator's ``run_layer`` starts with :func:`layer_operands`, so
operands of any real dtype compute on their ``float64`` values and a
result never depends on which path ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer
from repro.nn.reference import pad_input


@dataclass
class SimTrace:
    """Mutable event counters collected during a functional simulation."""

    cycles: int = 0
    mac_ops: int = 0
    neuron_buffer_reads: int = 0
    neuron_buffer_writes: int = 0
    neuron_buffer_partial_reads: int = 0
    kernel_buffer_reads: int = 0
    local_store_reads: int = 0
    local_store_writes: int = 0
    fifo_accesses: int = 0
    register_accesses: int = 0
    bus_transfers: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cycles": self.cycles,
            "mac_ops": self.mac_ops,
            "neuron_buffer_reads": self.neuron_buffer_reads,
            "neuron_buffer_writes": self.neuron_buffer_writes,
            "neuron_buffer_partial_reads": self.neuron_buffer_partial_reads,
            "kernel_buffer_reads": self.kernel_buffer_reads,
            "local_store_reads": self.local_store_reads,
            "local_store_writes": self.local_store_writes,
            "fifo_accesses": self.fifo_accesses,
            "register_accesses": self.register_accesses,
            "bus_transfers": self.bus_transfers,
        }


def layer_operands(
    layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(padded inputs, kernels)`` of one CONV layer, both ``float64``.

    Checks both shapes against the layer and rejects complex and
    non-numeric operands; float64 operands are not copied.
    """
    if tuple(inputs.shape) != layer.input_shape:
        raise SpecificationError(
            f"inputs shape {inputs.shape} != {layer.input_shape}"
        )
    if tuple(kernels.shape) != layer.kernel_shape:
        raise SpecificationError(
            f"kernels shape {kernels.shape} != {layer.kernel_shape}"
        )
    for name, operand in (("inputs", inputs), ("kernels", kernels)):
        if operand.dtype.kind not in "biuf":
            raise SpecificationError(
                f"{name} dtype {operand.dtype} is not a real number type"
            )
    return (
        pad_input(np.asarray(inputs, dtype=np.float64), layer.padding),
        np.asarray(kernels, dtype=np.float64),
    )
