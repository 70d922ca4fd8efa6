#!/usr/bin/env python3
"""Drive all four functional simulators and verify them against NumPy.

This is the executable proof behind the repository's dataflow claims:
each architecture's cycle-level machine (FlexFlow's grouped PE array with
local stores and RA/RS broadcasts, the systolic pipeline with inter-row
FIFOs, the 2D shift array, the tiling adder trees) computes the same
convolution as the golden model, to within float rounding (each machine
sums in its own order) — while reporting very different cycle counts and
traffic.

The script runs the paper's Figure 8 example (C1/C2 on a 4x4 array) plus
a batch of random layers, and prints per-dataflow cycle/traffic contrasts.

Usage::

    python examples/cycle_accurate_verification.py
"""

import numpy as np

from repro import ArchConfig, ConvLayer, UnrollingFactors
from repro.nn import conv2d, make_inputs, make_kernels
from repro.sim import (
    FlexFlowFunctionalSim,
    Mapping2DFunctionalSim,
    SystolicFunctionalSim,
    TilingFunctionalSim,
)


def verify(name, outputs, golden):
    ok = np.allclose(outputs, golden, atol=1e-9)
    status = "OK " if ok else "FAIL"
    if not ok:
        raise SystemExit(f"{name}: functional sim diverged from golden model")
    return status


def run_figure8_example() -> None:
    print("Figure 8 example: C1 (M=2,N=1,S=8,K=4) on a 4x4 FlexFlow array")
    layer = ConvLayer("C1", in_maps=1, out_maps=2, out_size=8, kernel=4)
    factors = UnrollingFactors(tm=2, tn=1, tr=1, tc=2, ti=1, tj=4)
    inputs, kernels = make_inputs(layer), make_kernels(layer)
    golden = conv2d(inputs, kernels)

    sim = FlexFlowFunctionalSim(ArchConfig(array_dim=4), factors=factors)
    outputs, trace = sim.run_layer(layer, inputs, kernels)
    status = verify("flexflow", outputs, golden)
    print(
        f"  [{status}] factors {factors.describe()}:"
        f" {trace.cycles} cycles, {trace.mac_ops} MACs,"
        f" {trace.neuron_buffer_reads} neuron reads"
        f" ({layer.num_input_words} unique neurons)"
    )
    print()


def run_cross_dataflow_comparison() -> None:
    layer = ConvLayer("demo", in_maps=2, out_maps=4, out_size=6, kernel=3)
    inputs, kernels = make_inputs(layer), make_kernels(layer)
    golden = conv2d(inputs, kernels)
    print(f"Cross-dataflow comparison on {layer.describe()}:")

    sims = {
        "flexflow": FlexFlowFunctionalSim(ArchConfig(array_dim=8)),
        "systolic": SystolicFunctionalSim(),
        "2d-mapping": Mapping2DFunctionalSim(block_size=6),
        "tiling": TilingFunctionalSim(tm=4, tn=2),
    }
    for name, sim in sims.items():
        outputs, trace = sim.run_layer(layer, inputs, kernels)
        status = verify(name, outputs, golden)
        reads = trace.neuron_buffer_reads + trace.kernel_buffer_reads
        print(
            f"  [{status}] {name:<11} {trace.cycles:6d} cycles,"
            f" {reads:6d} buffer reads, {trace.fifo_accesses:6d} FIFO events"
        )
    print()


def run_random_batch(count: int = 8, seed: int = 42) -> None:
    rng = np.random.default_rng(seed)
    print(f"Random batch ({count} layers, all four dataflows each):")
    for idx in range(count):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        s = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(4, s) + 1))
        layer = ConvLayer(f"rand{idx}", in_maps=n, out_maps=m, out_size=s, kernel=k)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        golden = conv2d(inputs, kernels)
        for name, sim in (
            ("ff", FlexFlowFunctionalSim(ArchConfig(array_dim=4))),
            ("sys", SystolicFunctionalSim()),
            ("2d", Mapping2DFunctionalSim(block_size=4)),
            ("til", TilingFunctionalSim(tm=3, tn=2)),
        ):
            outputs, _ = sim.run_layer(layer, inputs, kernels)
            verify(name, outputs, golden)
        print(f"  [OK ] N={n} M={m} S={s} K={k}: all four dataflows agree")
    print()
    print("All functional simulations match the golden model.")


def main() -> None:
    run_figure8_example()
    run_cross_dataflow_comparison()
    run_random_batch()


if __name__ == "__main__":
    main()
