"""Equivalence suite: the TileEngine vs the per-PE machine.

The tile engine must be an executable *replacement* for the literal
per-PE machine, not an approximation: identical outputs (bitwise),
identical cycle counts, and identical bus-traffic counters — across the
six Table 1 workloads, randomized layers, and capacity-starved local
stores.  The per-PE machine is :class:`tests.sim_oracle.FlexFlowPerPELoop`.
"""

import random

import numpy as np
import pytest

from repro.arch import ArchConfig
from repro.dataflow import map_layer, map_network
from repro.errors import SimulationError
from repro.nn import ConvLayer, conv2d, make_inputs, make_kernels, pad_input
from repro.nn.workloads import all_workloads
from repro.sim import FlexFlowFunctionalSim, TileEngine
from tests.sim_oracle import FlexFlowPerPELoop

#: Per-layer MAC ceiling that keeps the per-PE machine CI-friendly;
#: larger Table 1 layers are exercised through miniatures (same kernel,
#: stride, and padding structure, capped M/N/S).
MAC_BUDGET = 300_000

WORKLOAD_NAMES = ["PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"]


def assert_equivalent(layer, config, factors=None):
    """Run both machines; assert bitwise outputs and exact counters."""
    inputs, kernels = make_inputs(layer), make_kernels(layer)
    out_ref, tr_ref = FlexFlowPerPELoop(config, factors=factors).run_layer(
        layer, inputs, kernels
    )
    out_tile, tr_tile = FlexFlowFunctionalSim(
        config, factors=factors
    ).run_layer(layer, inputs, kernels)
    assert np.array_equal(
        out_tile.view(np.uint64), out_ref.view(np.uint64)
    ), f"{layer.name}: outputs differ bitwise"
    assert tr_tile.as_dict() == tr_ref.as_dict(), (
        f"{layer.name}: trace counters differ"
    )
    golden = conv2d(pad_input(inputs, layer.padding), kernels, stride=layer.stride)
    np.testing.assert_allclose(out_tile, golden, atol=1e-9)
    return tr_tile


def miniature(layer: ConvLayer) -> ConvLayer:
    """Shrink a layer past MAC_BUDGET, preserving its dataflow structure.

    Keeps the kernel size, stride, and whether the layer is padded; caps
    the map counts and output size so the per-PE machine stays fast.
    """
    out_size = min(layer.out_size, 6)
    explicit = None
    if layer.padding > 0:
        natural = (out_size - 1) * layer.stride + layer.kernel
        explicit = max(natural - layer.padding, layer.kernel - layer.padding, 1)
    return ConvLayer(
        f"{layer.name}-mini",
        in_maps=min(layer.in_maps, 4),
        out_maps=min(layer.out_maps, 8),
        out_size=out_size,
        kernel=layer.kernel,
        stride=layer.stride,
        explicit_in_size=explicit,
    )


class TestTable1Workloads:
    """Parity on every CONV layer of all six workloads (mapped at D=16)."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_parity(self, name):
        network = next(n for n in all_workloads() if n.name == name)
        mapping = map_network(network, 16)
        config = ArchConfig(array_dim=16)
        for lm in mapping.layers:
            if lm.layer.macs <= MAC_BUDGET:
                assert_equivalent(lm.layer, config, lm.factors)
            else:
                mini = miniature(lm.layer)
                assert_equivalent(mini, config, map_layer(mini, 16).factors)

    def test_cycles_equal_outer_iterations(self):
        layer = ConvLayer("c", in_maps=2, out_maps=4, out_size=6, kernel=3)
        factors = map_layer(layer, 8).factors
        trace = assert_equivalent(layer, ArchConfig(array_dim=8), factors)
        assert trace.cycles == factors.outer_iterations(layer)


class TestRandomizedLayers:
    """Parity on randomized layer shapes across array sizes and strides."""

    @pytest.mark.parametrize("seed", [3, 11, 29, 47])
    def test_random_layer_parity(self, seed):
        rng = random.Random(seed)
        for _ in range(3):
            kernel = rng.choice([1, 2, 3, 4, 5])
            stride = rng.choice([1, 1, 2])
            out_size = rng.randint(3, 9)
            layer = ConvLayer(
                f"rand{seed}",
                in_maps=rng.randint(1, 5),
                out_maps=rng.randint(1, 8),
                out_size=out_size,
                kernel=kernel,
                stride=stride,
            )
            dim = rng.choice([4, 8, 16])
            assert_equivalent(layer, ArchConfig(array_dim=dim))

    @pytest.mark.parametrize("seed", [5, 17])
    def test_random_padded_layer_parity(self, seed):
        rng = random.Random(seed)
        for _ in range(2):
            kernel = rng.choice([3, 5])
            out_size = rng.randint(4, 8)
            natural = (out_size - 1) + kernel
            layer = ConvLayer(
                f"pad{seed}",
                in_maps=rng.randint(1, 3),
                out_maps=rng.randint(2, 6),
                out_size=out_size,
                kernel=kernel,
                explicit_in_size=natural - rng.randint(1, kernel - 1),
            )
            assert_equivalent(layer, ArchConfig(array_dim=8))


class TestUndersizedStores:
    """Capacity-starved local stores: evictions must match word for word."""

    LAYER = ConvLayer("starved", in_maps=2, out_maps=4, out_size=6, kernel=3)

    @pytest.mark.parametrize(
        "neuron_bytes,kernel_bytes",
        [(8, 64), (64, 8), (8, 8), (4, 4), (2, 2)],
    )
    def test_starved_store_parity(self, neuron_bytes, kernel_bytes):
        config = ArchConfig(
            array_dim=4,
            neuron_store_bytes=neuron_bytes,
            kernel_store_bytes=kernel_bytes,
        )
        assert_equivalent(self.LAYER, config)

    def test_single_word_store_parity(self):
        # One-word stores: every access re-broadcasts; the harshest case
        # for the intra-tile eviction fixed point.
        config = ArchConfig(array_dim=4, neuron_store_bytes=2, kernel_store_bytes=2)
        trace = assert_equivalent(self.LAYER, config)
        # With no reuse at all, every PE write is a fresh fill.
        assert trace.local_store_writes == 2 * trace.mac_ops


class TestEngineSelection:
    def test_invalid_engine_rejected(self):
        """There is one path; there is no engine to choose."""
        with pytest.raises(TypeError, match="engine"):
            FlexFlowFunctionalSim(ArchConfig(array_dim=4), engine="tile")

    def test_auto_matches_tile_on_small_layer(self, monkeypatch):
        """Every layer runs the tile engine, once."""
        layer = ConvLayer("c", in_maps=1, out_maps=2, out_size=4, kernel=2)
        config = ArchConfig(array_dim=4)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        runs = []
        original_run = TileEngine.run

        def tracking_run(self, *args):
            runs.append(1)
            return original_run(self, *args)

        monkeypatch.setattr(TileEngine, "run", tracking_run)
        outputs, trace = FlexFlowFunctionalSim(config).run_layer(
            layer, inputs, kernels
        )
        assert runs == [1]
        golden = conv2d(inputs, kernels, stride=layer.stride)
        np.testing.assert_allclose(outputs, golden, atol=1e-9)
        assert trace.mac_ops == layer.macs


class TestFaultParity:
    """Under faults both machines must stay bitwise- and counter-identical."""

    def fault_equivalent(self, layer, config, fault_model):
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        out_ref, tr_ref = FlexFlowPerPELoop(
            config, fault_model=fault_model
        ).run_layer(layer, inputs, kernels)
        out_tile, tr_tile = FlexFlowFunctionalSim(
            config, fault_model=fault_model
        ).run_layer(layer, inputs, kernels)
        assert np.array_equal(
            out_tile.view(np.uint64), out_ref.view(np.uint64)
        ), f"{layer.name}: faulty outputs differ bitwise"
        assert tr_tile.as_dict() == tr_ref.as_dict(), (
            f"{layer.name}: faulty trace counters differ"
        )
        return out_tile, tr_tile

    def clean_run(self, layer, config):
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        return FlexFlowFunctionalSim(config).run_layer(layer, inputs, kernels)

    def test_dead_pe_parity_and_exact_math(self):
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=3, out_maps=4, out_size=6, kernel=3)
        config = ArchConfig(array_dim=4)
        model = FaultModel(seed=3, dead_pes=((1, 2), (3, 0)))
        out, _ = self.fault_equivalent(layer, config, model)
        # Dead PEs shrink the schedule but never change the math.
        out_clean, tr_clean = self.clean_run(layer, config)
        np.testing.assert_array_equal(out, out_clean)

    def test_dead_pes_cost_cycles(self):
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=3, out_maps=4, out_size=6, kernel=3)
        config = ArchConfig(array_dim=4)
        _, tr_clean = self.clean_run(layer, config)
        model = FaultModel(seed=3, dead_pes=((1, 2), (3, 0)))
        _, tr_faulty = self.fault_equivalent(layer, config, model)
        assert tr_faulty.cycles > tr_clean.cycles

    def test_dead_row_and_col_parity(self):
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=5, kernel=2)
        config = ArchConfig(array_dim=4)
        model = FaultModel(seed=0, dead_rows=(1,), dead_cols=(2,))
        self.fault_equivalent(layer, config, model)

    def test_bitflip_parity_and_corruption(self):
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=3, out_maps=4, out_size=6, kernel=3)
        config = ArchConfig(array_dim=4)
        model = FaultModel(seed=11, bitflip_rate=0.05, dead_pes=((0, 1),))
        out, _ = self.fault_equivalent(layer, config, model)
        out_clean, _ = self.clean_run(layer, config)
        assert not np.array_equal(out, out_clean), "flips should corrupt"

    def test_bitflip_parity_with_starved_stores(self):
        from dataclasses import replace

        from repro.faults import FaultModel

        # Tiny local stores force evictions and re-pushes, the hard case
        # for sequence-number agreement between the engines.
        layer = ConvLayer("c", in_maps=3, out_maps=4, out_size=6, kernel=3)
        config = replace(
            ArchConfig(array_dim=4), neuron_store_bytes=32, kernel_store_bytes=32
        )
        model = FaultModel(seed=7, bitflip_rate=0.1)
        self.fault_equivalent(layer, config, model)

    def test_bitflip_determinism(self):
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=2, out_maps=2, out_size=4, kernel=2)
        config = ArchConfig(array_dim=4)
        model = FaultModel(seed=5, bitflip_rate=0.2)
        a, _ = self.fault_equivalent(layer, config, model)
        b, _ = self.fault_equivalent(layer, config, model)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_null_fault_model_changes_nothing(self):
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=5, kernel=3)
        config = ArchConfig(array_dim=4)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        out_clean, tr_clean = self.clean_run(layer, config)
        out_null, tr_null = FlexFlowFunctionalSim(
            config, fault_model=FaultModel()
        ).run_layer(layer, inputs, kernels)
        assert np.array_equal(out_clean.view(np.uint64), out_null.view(np.uint64))
        assert tr_clean.as_dict() == tr_null.as_dict()

    def test_fully_dead_array_raises(self):
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=1, out_maps=2, out_size=4, kernel=2)
        config = ArchConfig(array_dim=4)
        model = FaultModel(seed=0, dead_rows=(0, 1, 2, 3))
        sim = FlexFlowFunctionalSim(config, fault_model=model)
        with pytest.raises(SimulationError, match="no usable PE subgrid"):
            sim.run_layer(layer, make_inputs(layer), make_kernels(layer))
