#!/usr/bin/env python3
"""Full LeNet-5 inference through the cycle-level FlexFlow machine.

Every layer — both CONV layers on the grouped PE array with local stores
and RA/RS broadcasts, both POOL layers on the 1-D pooling unit, and all
three FC layers via the FC-as-1x1-CONV reduction — executes functionally
and is checked against the NumPy golden model.  The per-layer cycle
counts equal the Table 4 mapping's predictions exactly.

Usage::

    python examples/lenet_full_inference.py
"""

import numpy as np

from repro import ArchConfig, get_workload
from repro.nn import make_network_inputs, run_network
from repro.sim import FlexFlowNetworkSim


def main() -> None:
    network = get_workload("LeNet-5")
    inputs = make_network_inputs(network)

    print("Golden model: running all layers with NumPy ...")
    golden_out, golden_acts = run_network(network, inputs)

    print("FlexFlow machine: cycle-level functional simulation ...\n")
    sim = FlexFlowNetworkSim(ArchConfig(array_dim=16))
    result = sim.run_network(network, inputs)

    print(f"{'layer':<6} {'cycles':>8} {'shape':<14} match")
    for name, activation in golden_acts.items():
        match = np.allclose(result.activations[name], activation, atol=1e-7)
        if not match:
            raise SystemExit(f"{name}: simulation diverged from golden model")
        cycles = result.layer_cycles.get(name, 0)
        print(f"{name:<6} {cycles:>8} {str(activation.shape):<14} OK")

    print()
    trace = result.conv_trace
    print(f"Convolutional unit totals:")
    print(f"  cycles:             {trace.cycles:,}")
    print(f"  MACs:               {trace.mac_ops:,}")
    print(f"  local-store reads:  {trace.local_store_reads:,}")
    print(f"  buffer words read:  {trace.neuron_buffer_reads + trace.kernel_buffer_reads:,}")
    print(f"Pooling unit: {result.pool_trace.cycles:,} cycles (overlapped)")
    print()
    top = np.argsort(result.final_output)[::-1][:3]
    print(f"Classifier output (10 classes): top-3 indices {list(top)}")
    print("Full inference matches the golden model (allclose, atol=1e-7).")


if __name__ == "__main__":
    main()
