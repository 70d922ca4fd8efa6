"""Tests for the FlexFlow functional simulator."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.arch import ArchConfig
from repro.dataflow import UnrollingFactors, map_layer
from repro.errors import SimulationError, SpecificationError
from repro.nn import ConvLayer, conv2d, make_inputs, make_kernels, pad_input
from repro.sim import FlexFlowFunctionalSim
from tests.sim_oracle import CoordStore


def run(layer, dim=4, factors=None):
    sim = FlexFlowFunctionalSim(ArchConfig(array_dim=dim), factors=factors)
    inputs, kernels = make_inputs(layer), make_kernels(layer)
    outputs, trace = sim.run_layer(layer, inputs, kernels)
    golden = conv2d(pad_input(inputs, layer.padding), kernels, stride=layer.stride)
    return outputs, golden, trace


class TestNumerics:
    def test_matches_golden_on_figure8_c1(self):
        # The paper's running example: C1 (M=2, N=1, S=8, K=4) on 4x4 PEs.
        layer = ConvLayer("C1", in_maps=1, out_maps=2, out_size=8, kernel=4)
        outputs, golden, _ = run(layer, dim=4)
        np.testing.assert_allclose(outputs, golden, atol=1e-9)

    def test_matches_golden_on_figure8_c2(self):
        # C2 (M=2, N=2, S=4, K=2) on 4x4 PEs.
        layer = ConvLayer("C2", in_maps=2, out_maps=2, out_size=4, kernel=2)
        outputs, golden, _ = run(layer, dim=4)
        np.testing.assert_allclose(outputs, golden, atol=1e-9)

    def test_matches_golden_with_explicit_figure8_factors(self):
        # The exact Figure 8 mix: <Tm=2, Tn=1, Tr=1, Tc=2, Ti=1, Tj=4>.
        layer = ConvLayer("C1", in_maps=1, out_maps=2, out_size=8, kernel=4)
        factors = UnrollingFactors(tm=2, tn=1, tr=1, tc=2, ti=1, tj=4)
        outputs, golden, trace = run(layer, dim=4, factors=factors)
        np.testing.assert_allclose(outputs, golden, atol=1e-9)
        assert trace.cycles == factors.outer_iterations(layer)

    def test_matches_golden_with_padding(self):
        layer = ConvLayer(
            "pad", in_maps=2, out_maps=2, out_size=6, kernel=3, explicit_in_size=6
        )
        outputs, golden, _ = run(layer, dim=8)
        np.testing.assert_allclose(outputs, golden, atol=1e-9)

    def test_matches_golden_with_stride(self):
        layer = ConvLayer("s2", in_maps=1, out_maps=2, out_size=4, kernel=3, stride=2)
        outputs, golden, _ = run(layer, dim=4)
        np.testing.assert_allclose(outputs, golden, atol=1e-9)

    def test_matches_golden_on_16x16(self):
        layer = ConvLayer("big", in_maps=3, out_maps=6, out_size=10, kernel=5)
        outputs, golden, _ = run(layer, dim=16)
        np.testing.assert_allclose(outputs, golden, atol=1e-9)


class TestCycleAccuracy:
    def test_cycles_equal_outer_iterations(self):
        layer = ConvLayer("c", in_maps=2, out_maps=4, out_size=6, kernel=3)
        factors = map_layer(layer, 8).factors
        _, _, trace = run(layer, dim=8)
        assert trace.cycles == factors.outer_iterations(layer)

    def test_mac_count_exact(self):
        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=5, kernel=3)
        _, _, trace = run(layer, dim=8)
        assert trace.mac_ops == layer.macs

    def test_output_writes_exact(self):
        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=5, kernel=3)
        _, _, trace = run(layer, dim=8)
        assert trace.neuron_buffer_writes == layer.num_output_words

    def test_local_store_reads_two_per_mac(self):
        layer = ConvLayer("c", in_maps=1, out_maps=2, out_size=4, kernel=2)
        _, _, trace = run(layer, dim=4)
        assert trace.local_store_reads == 2 * layer.macs

    def test_broadcast_sharing_reduces_buffer_reads(self):
        # Buffer reads must be well below one-per-MAC: RA/RS sharing.
        layer = ConvLayer("c", in_maps=2, out_maps=4, out_size=6, kernel=3)
        _, _, trace = run(layer, dim=8)
        assert trace.neuron_buffer_reads < layer.macs / 2


class TestValidation:
    def test_wrong_input_shape_rejected(self):
        layer = ConvLayer("c", in_maps=2, out_maps=2, out_size=4, kernel=2)
        sim = FlexFlowFunctionalSim(ArchConfig(array_dim=4))
        with pytest.raises(SpecificationError):
            sim.run_layer(layer, np.zeros((2, 9, 9)), make_kernels(layer))

    def test_wrong_kernel_shape_rejected(self):
        layer = ConvLayer("c", in_maps=2, out_maps=2, out_size=4, kernel=2)
        sim = FlexFlowFunctionalSim(ArchConfig(array_dim=4))
        with pytest.raises(SpecificationError):
            sim.run_layer(layer, make_inputs(layer), np.zeros((2, 2, 3, 3)))


class TestCoordStore:
    def test_write_read(self):
        store = CoordStore(4, "s")
        store.write(("a", 1), 2.5)
        assert store.contains(("a", 1))
        assert store.read(("a", 1)) == 2.5

    def test_missing_coord_raises(self):
        store = CoordStore(4, "s")
        with pytest.raises(SimulationError):
            store.read(("missing",))

    def test_eviction_on_wraparound(self):
        store = CoordStore(2, "s")
        store.write("a", 1.0)
        store.write("b", 2.0)
        store.write("c", 3.0)  # evicts "a"
        assert not store.contains("a")
        assert store.read("c") == 3.0
        assert store.read("b") == 2.0

    def test_counters(self):
        store = CoordStore(4, "s")
        store.write("a", 1.0)
        store.read("a")
        assert store.writes == 1 and store.reads == 1

    def test_tiny_store_forces_rebroadcast_but_stays_correct(self):
        # A 4-word neuron store cannot hold a whole row: words get evicted
        # and re-broadcast, yet the result must stay exact.
        layer = ConvLayer("c", in_maps=1, out_maps=2, out_size=6, kernel=3)
        config = ArchConfig(array_dim=4, neuron_store_bytes=8, kernel_store_bytes=64)
        sim = FlexFlowFunctionalSim(config)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, trace = sim.run_layer(layer, inputs, kernels)
        np.testing.assert_allclose(outputs, conv2d(inputs, kernels), atol=1e-9)

    def test_undersized_store_traffic_pinned(self):
        # Audit regression (capacity-starved eviction accounting): with a
        # 4-word neuron store the per-cycle working set does not fit, so
        # words are evicted and re-broadcast *across* cycles.  No
        # within-cycle double-count is possible — each PE makes exactly one
        # neuron and one kernel access per cycle, and bus words are
        # deduplicated per cycle — and these exact counters pin that.
        layer = ConvLayer("c", in_maps=1, out_maps=2, out_size=6, kernel=3)
        config = ArchConfig(array_dim=4, neuron_store_bytes=8, kernel_store_bytes=64)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        _, trace = FlexFlowFunctionalSim(config).run_layer(layer, inputs, kernels)
        assert trace.cycles == 54
        assert trace.mac_ops == 648
        assert trace.neuron_buffer_reads == 324
        assert trace.kernel_buffer_reads == 18
        assert trace.local_store_writes == 684
        assert trace.bus_transfers == 342
        # The adequately-sized store shows the reuse the tiny one loses.
        _, full = FlexFlowFunctionalSim(ArchConfig(array_dim=4)).run_layer(
            layer, inputs, kernels
        )
        assert full.neuron_buffer_reads == 144
        assert full.local_store_writes == 324
        assert full.bus_transfers == 162

    def test_smaller_store_more_traffic(self):
        layer = ConvLayer("c", in_maps=1, out_maps=2, out_size=6, kernel=3)
        big = ArchConfig(array_dim=4)
        small = ArchConfig(array_dim=4, neuron_store_bytes=8, kernel_store_bytes=8)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        _, t_big = FlexFlowFunctionalSim(big).run_layer(layer, inputs, kernels)
        _, t_small = FlexFlowFunctionalSim(small).run_layer(layer, inputs, kernels)
        assert (
            t_small.neuron_buffer_reads + t_small.kernel_buffer_reads
            > t_big.neuron_buffer_reads + t_big.kernel_buffer_reads
        )


#: AlexNet C1 at 16x16 in a fresh interpreter: the tile engine's output,
#: trace and memory.  VmHWM is read from /proc, so only on Linux.
ALEXNET_C1 = """
    import json, tracemalloc
    from pathlib import Path

    import numpy as np

    import repro.kernels
    from repro.arch import ArchConfig
    from repro.dataflow import map_network
    from repro.nn import conv2d, get_workload, make_inputs, make_kernels, pad_input
    from repro.sim import FlexFlowFunctionalSim, analytic_flexflow_trace

    def status(key):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith(key):
                return int(line.split()[1]) * 1024

    network = get_workload("AlexNet")
    layer = network.conv_layers[0]
    factors = map_network(network, 16).by_layer_name()[layer.name].factors
    config = ArchConfig().scaled_to(16)
    inputs, kernels = make_inputs(layer), make_kernels(layer)
    repro.kernels.active_kernels()
    rss = status("VmRSS:")
    tracemalloc.start()
    outputs, trace = FlexFlowFunctionalSim(config, factors=factors).run_layer(
        layer, inputs, kernels
    )
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    golden = conv2d(pad_input(inputs, layer.padding), kernels, stride=layer.stride)
    analytic = analytic_flexflow_trace(
        layer, factors,
        neuron_store_words=config.neuron_store_words,
        kernel_store_words=config.kernel_store_words,
    )
    print(json.dumps({
        "name": layer.name,
        "allclose": bool(np.allclose(outputs, golden, atol=1e-9)),
        "trace_is_analytic": analytic.as_dict() == trace.as_dict(),
        "peak": peak,
        "hwm_rise": status("VmHWM:") - rss,
        "layer_bytes": inputs.nbytes + kernels.nbytes + outputs.nbytes,
        "store_bytes": 2 * 16 * 16 * 8 * max(
            config.neuron_store_words, config.kernel_store_words
        ),
    }))
"""


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
)
def test_alexnet_c1_runs_on_the_tile_engine_in_store_sized_memory():
    """The layer needed a 336 MiB last-push table, and so ran on a per-PE
    loop that never finished; its store state is now two rings of W words
    per PE."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(ALEXNET_C1)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    assert run["name"] == "C1"
    assert run["allclose"] and run["trace_is_analytic"]
    # Operands and outputs, a float64 copy of each, and a few copies of
    # the store state: a bound set by the layer's tensors and by the
    # array and its stores, never by a table over the input and kernels.
    bound = 2 * run["layer_bytes"] + 8 * run["store_bytes"] + 2**20
    assert run["peak"] <= bound
    assert run["hwm_rise"] <= bound
    old_table = 16 * 16 * (3 * 227 * 227 + 48 * 3 * 11 * 11) * 8
    assert bound < old_table / 30
