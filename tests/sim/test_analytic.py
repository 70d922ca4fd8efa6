"""Equivalence suite: the closed-form analytic counters vs the simulators.

:func:`~repro.sim.analytic.analytic_flexflow_trace` must be an exact
*predictor*, not an approximation: every :class:`SimTrace` counter it
derives has to equal what the FlexFlow tile engine observes — across
the six Table 1 workloads, randomized layers, capacity-starved local
stores, and permanent-fault masks.  The baseline closed forms (systolic
/ 2D-mapping / tiling) are pinned against their functional simulators
the same way.
"""

import random

import numpy as np
import pytest

from repro.arch import ArchConfig
from repro.dataflow import map_layer, map_network
from repro.errors import SpecificationError
from repro.nn import ConvLayer, conv2d, make_inputs, make_kernels, pad_input
from repro.nn.workloads import all_workloads
from repro.sim import (
    FlexFlowFunctionalSim,
    Mapping2DFunctionalSim,
    SystolicFunctionalSim,
    TilingFunctionalSim,
    analytic_flexflow_trace,
    analytic_mapping2d_trace,
    analytic_systolic_trace,
    analytic_tiling_trace,
)

#: Per-layer MAC ceiling for running the tile engine as the oracle;
#: larger Table 1 layers are exercised through miniatures (same kernel,
#: stride, and padding structure, capped M/N/S).
MAC_BUDGET = 3_000_000

WORKLOAD_NAMES = ["PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"]


def assert_analytic_equivalent(layer, config, factors=None, fault_model=None):
    """Closed form vs a tile-engine run: exact counters, golden outputs."""
    if factors is None:
        mask = None
        if fault_model is not None:
            mask = fault_model.mask_for(config.array_dim)
        factors = map_layer(layer, config.array_dim, mask=mask).factors
    inputs, kernels = make_inputs(layer), make_kernels(layer)
    out_tile, tr_tile = FlexFlowFunctionalSim(
        config, factors=factors, fault_model=fault_model
    ).run_layer(layer, inputs, kernels)
    tr_an = analytic_flexflow_trace(
        layer,
        factors,
        neuron_store_words=config.neuron_store_words,
        kernel_store_words=config.kernel_store_words,
    )
    assert tr_an.as_dict() == tr_tile.as_dict(), (
        f"{layer.name}: analytic counters differ from the tile engine"
    )
    golden = conv2d(pad_input(inputs, layer.padding), kernels, stride=layer.stride)
    np.testing.assert_allclose(out_tile, golden, atol=1e-9)
    return tr_an


def miniature(layer: ConvLayer) -> ConvLayer:
    """Shrink a layer past MAC_BUDGET, preserving its dataflow structure."""
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
    """Exact counters on every CONV layer of all six workloads (D=16)."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_parity(self, name):
        network = next(n for n in all_workloads() if n.name == name)
        mapping = map_network(network, 16)
        config = ArchConfig(array_dim=16)
        for lm in mapping.layers:
            layer, factors = lm.layer, lm.factors
            if layer.macs > MAC_BUDGET:
                layer = miniature(layer)
                factors = map_layer(layer, 16).factors
            assert_analytic_equivalent(layer, config, factors)

    def test_cycles_equal_outer_iterations(self):
        layer = ConvLayer("c", in_maps=2, out_maps=4, out_size=6, kernel=3)
        factors = map_layer(layer, 8).factors
        trace = assert_analytic_equivalent(layer, ArchConfig(array_dim=8), factors)
        assert trace.cycles == factors.outer_iterations(layer)
        assert trace.mac_ops == layer.macs


class TestRandomizedLayers:
    """Parity on randomized layer shapes across array sizes and strides."""

    @pytest.mark.parametrize("seed", [2, 13, 31, 53])
    def test_random_layer_parity(self, seed):
        rng = random.Random(seed)
        for _ in range(3):
            layer = ConvLayer(
                f"rand{seed}",
                in_maps=rng.randint(1, 5),
                out_maps=rng.randint(1, 8),
                out_size=rng.randint(3, 9),
                kernel=rng.choice([1, 2, 3, 4, 5]),
                stride=rng.choice([1, 1, 2]),
            )
            dim = rng.choice([4, 8, 16])
            assert_analytic_equivalent(layer, ArchConfig(array_dim=dim))

    @pytest.mark.parametrize("seed", [7, 23])
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
            assert_analytic_equivalent(layer, ArchConfig(array_dim=8))


class TestStarvedStores:
    """The capacity-dependent closed forms: thrash + replay paths."""

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
        assert_analytic_equivalent(self.LAYER, config)

    def test_replay_chunking_is_invisible(self, monkeypatch):
        """A tiny replay budget (multi-chunk state) must not change counters."""
        import repro.sim.analytic as analytic_mod

        config = ArchConfig(array_dim=4, neuron_store_bytes=8, kernel_store_bytes=8)
        unchunked = assert_analytic_equivalent(self.LAYER, config)
        monkeypatch.setattr(analytic_mod, "REPLAY_BUDGET_BYTES", 1)
        chunked = assert_analytic_equivalent(self.LAYER, config)
        assert chunked.as_dict() == unchunked.as_dict()


class TestFaults:
    def test_permanent_mask_parity(self):
        """A dead-PE mask reshapes the schedule; counters must still agree."""
        from repro.faults import FaultModel

        layer = ConvLayer("c", in_maps=3, out_maps=4, out_size=6, kernel=3)
        config = ArchConfig(array_dim=4)
        model = FaultModel(seed=3, dead_pes=((1, 2), (3, 0)))
        assert_analytic_equivalent(layer, config, fault_model=model)


class TestBaselineClosedForms:
    """The three static-schedule dataflows: pure arithmetic vs simulation."""

    LAYERS = [
        ConvLayer("a", in_maps=1, out_maps=1, out_size=6, kernel=3),
        ConvLayer("b", in_maps=2, out_maps=3, out_size=5, kernel=3),
        ConvLayer("c", in_maps=3, out_maps=2, out_size=8, kernel=2),
        ConvLayer("d", in_maps=1, out_maps=2, out_size=4, kernel=4),
    ]

    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_systolic(self, layer):
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert analytic_systolic_trace(layer).as_dict() == trace.as_dict()

    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    @pytest.mark.parametrize("block", [3, 4, 5, 16])
    def test_mapping2d(self, layer, block):
        _, trace = Mapping2DFunctionalSim(block_size=block).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert (
            analytic_mapping2d_trace(layer, block).as_dict() == trace.as_dict()
        )

    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    @pytest.mark.parametrize("tm,tn", [(2, 2), (4, 3), (16, 16)])
    def test_tiling(self, layer, tm, tn):
        _, trace = TilingFunctionalSim(tm=tm, tn=tn).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert analytic_tiling_trace(layer, tm, tn).as_dict() == trace.as_dict()

    def test_systolic_stride_rejected(self):
        layer = ConvLayer("s", in_maps=1, out_maps=1, out_size=3, kernel=3, stride=2)
        with pytest.raises(SpecificationError):
            analytic_systolic_trace(layer)

    def test_mapping2d_bad_block_rejected(self):
        with pytest.raises(SpecificationError):
            analytic_mapping2d_trace(self.LAYERS[0], 0)

    def test_tiling_bad_factors_rejected(self):
        with pytest.raises(SpecificationError):
            analytic_tiling_trace(self.LAYERS[0], 0, 4)
