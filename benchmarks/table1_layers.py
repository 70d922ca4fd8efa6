"""Run every CONV layer of Table 1 workloads through the four functional
simulators at one array size, and check each against the golden model.

Run from the repository root::

    PYTHONPATH=src python benchmarks/table1_layers.py AlexNet
    PYTHONPATH=src python benchmarks/table1_layers.py AlexNet VGG-11 --dim 16

Each layer runs in its own interpreter, so the peak resident set it
prints (``VmHWM``) is that layer's alone: ``ff_hwm`` is read right after
the FlexFlow simulator (the operands are made first), ``hwm`` after all
four simulators and the golden model.  Per simulator it prints the
layer's M MAC/s.  A layer fails, and the script exits 1, when:

* an output is not ``np.allclose`` to :func:`repro.nn.conv2d` (atol 1e-9);
* the FlexFlow simulator's trace differs from
  :func:`repro.sim.analytic_flexflow_trace`;
* Systolic or 2D-Mapping runs a stride-1 layer but raises, or runs a
  strided layer without raising ``SpecificationError`` (both model
  stride 1 only, so they skip such layers).

The array is ``--dim`` square (16, as the figures size it, by default):
FlexFlow runs with the layer's ``map_network`` factors, 2D-Mapping in
blocks of ``dim``, Tiling with ``Tm = Tn = dim``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SIMS = ("flexflow", "systolic", "mapping2d", "tiling")


def _vm_hwm_mib() -> float:
    """This process's peak resident set, from ``/proc/self/status``."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return float("nan")


def run_layer(workload: str, layer_name: str, dim: int) -> Dict:
    """One layer through the four simulators, in this process."""
    import numpy as np

    from repro.arch import ArchConfig
    from repro.dataflow import map_network
    from repro.errors import SpecificationError
    from repro.nn import conv2d, get_workload, make_inputs, make_kernels, pad_input
    from repro.sim import (
        FlexFlowFunctionalSim,
        Mapping2DFunctionalSim,
        SystolicFunctionalSim,
        TilingFunctionalSim,
        analytic_flexflow_trace,
    )

    network = get_workload(workload)
    layer = next(l for l in network.conv_layers if l.name == layer_name)
    factors = map_network(network, dim).by_layer_name()[layer_name].factors
    config = ArchConfig().scaled_to(dim)
    inputs, kernels = make_inputs(layer), make_kernels(layer)
    sims = {
        "flexflow": FlexFlowFunctionalSim(config, factors=factors),
        "systolic": SystolicFunctionalSim(),
        "mapping2d": Mapping2DFunctionalSim(block_size=dim),
        "tiling": TilingFunctionalSim(tm=dim, tn=dim),
    }
    outputs, rates, failures = {}, {}, []
    ff_hwm = None
    for name in SIMS:
        start = time.perf_counter()
        try:
            outputs[name], trace = sims[name].run_layer(layer, inputs, kernels)
        except SpecificationError:
            if name in ("systolic", "mapping2d") and layer.stride != 1:
                rates[name] = None
                continue
            raise
        rates[name] = layer.macs / (time.perf_counter() - start) / 1e6
        if name in ("systolic", "mapping2d") and layer.stride != 1:
            failures.append(f"{name} ran a stride-{layer.stride} layer")
        if name == "flexflow":
            ff_hwm = _vm_hwm_mib()
            analytic = analytic_flexflow_trace(
                layer,
                factors,
                neuron_store_words=config.neuron_store_words,
                kernel_store_words=config.kernel_store_words,
            )
            if analytic.as_dict() != trace.as_dict():
                failures.append("flexflow trace != analytic_flexflow_trace")
    golden = conv2d(pad_input(inputs, layer.padding), kernels, stride=layer.stride)
    for name, out in outputs.items():
        if not np.allclose(out, golden, atol=1e-9):
            failures.append(f"{name} output differs from conv2d")
    return {
        "workload": workload,
        "layer": layer_name,
        "macs": layer.macs,
        "mmacs": rates,
        "ff_hwm_mib": ff_hwm,
        "hwm_mib": _vm_hwm_mib(),
        "failures": failures,
    }


def _layer_in_child(workload: str, layer_name: str, dim: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--one", workload, layer_name,
         "--dim", str(dim)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return {
            "workload": workload, "layer": layer_name, "macs": 0,
            "mmacs": {}, "ff_hwm_mib": None, "hwm_mib": None,
            "failures": proc.stderr.strip().splitlines()[-1:]
            or [f"exit {proc.returncode}"],
        }
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rate(row: Dict, name: str) -> str:
    rate = row["mmacs"].get(name)
    return "skip" if rate is None else f"{rate:.1f}"


def _format(row: Dict) -> str:
    rates = " ".join(f"{name}={_rate(row, name)}" for name in SIMS)
    hwm = "n/a" if row["hwm_mib"] is None else f"{row['hwm_mib']:.0f}"
    ff_hwm = "n/a" if row["ff_hwm_mib"] is None else f"{row['ff_hwm_mib']:.0f}"
    verdict = "FAIL " + "; ".join(row["failures"]) if row["failures"] else "ok"
    return (
        f"{row['workload']} {row['layer']}: {row['macs'] / 1e6:.1f} M MACs;"
        f" M MAC/s {rates}; ff_hwm {ff_hwm} MiB, hwm {hwm} MiB: {verdict}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=["AlexNet"])
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "LAYER"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_layer(*args.one, args.dim)))
        return 0
    from repro.errors import SpecificationError
    from repro.nn import get_workload

    try:
        networks = [get_workload(name) for name in args.workloads]
    except SpecificationError as exc:
        parser.error(str(exc))
    failed = 0
    for workload, network in zip(args.workloads, networks):
        for layer in network.conv_layers:
            row = _layer_in_child(workload, layer.name, args.dim)
            print(_format(row), flush=True)
            failed += bool(row["failures"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
