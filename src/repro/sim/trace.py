"""Event counters shared by the functional simulators.

The analytical accelerator models *predict* event counts; the functional
simulators *observe* them while computing real values.  Integration tests
compare the two, which is how the traffic model earns its Figure 17
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


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
