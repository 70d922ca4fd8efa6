"""Tests for the 1-D pooling unit simulator."""

import numpy as np
import pytest

from repro.errors import SpecificationError
from repro.nn import PoolLayer, pool2d
from repro.sim import PoolingUnitSim


def rand_inputs(layer, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(layer.input_shape)


def assert_matches_golden(layer, inputs):
    outputs, _ = PoolingUnitSim().run_layer(layer, inputs)
    golden = pool2d(inputs, layer.window, layer.out_size, layer.mode)
    np.testing.assert_allclose(outputs, golden, atol=1e-12)


class TestPoolingUnit:
    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_matches_golden(self, mode):
        layer = PoolLayer("p", maps=3, in_size=8, out_size=4, window=2, mode=mode)
        inputs = rand_inputs(layer)
        outputs, _ = PoolingUnitSim().run_layer(layer, inputs)
        np.testing.assert_allclose(
            outputs, pool2d(inputs, 2, 4, mode), atol=1e-12
        )

    def test_truncating_pool(self):
        layer = PoolLayer("p", maps=2, in_size=45, out_size=22, window=2)
        assert_matches_golden(layer, rand_inputs(layer))

    def test_overlapped_pool(self):
        layer = PoolLayer("p", maps=1, in_size=55, out_size=27, window=3)
        assert_matches_golden(layer, rand_inputs(layer))

    def test_cycle_model(self):
        # 3 maps x 16 positions = 48 windows over 16 ALUs -> 3 batches of
        # window^2 = 4 cycles each.
        layer = PoolLayer("p", maps=3, in_size=8, out_size=4, window=2)
        _, trace = PoolingUnitSim(num_alus=16).run_layer(layer, rand_inputs(layer))
        assert trace.cycles == 3 * 4

    def test_fewer_alus_more_cycles(self):
        layer = PoolLayer("p", maps=3, in_size=8, out_size=4, window=2)
        inputs = rand_inputs(layer)
        _, wide = PoolingUnitSim(num_alus=16).run_layer(layer, inputs)
        _, narrow = PoolingUnitSim(num_alus=4).run_layer(layer, inputs)
        assert narrow.cycles > wide.cycles

    def test_reads_counted(self):
        layer = PoolLayer("p", maps=1, in_size=4, out_size=2, window=2)
        _, trace = PoolingUnitSim().run_layer(layer, rand_inputs(layer))
        assert trace.neuron_buffer_reads == 4 * 4  # 4 windows x 4 elements
        assert trace.neuron_buffer_writes == 4

    def test_shape_mismatch_rejected(self):
        layer = PoolLayer("p", maps=1, in_size=4, out_size=2, window=2)
        with pytest.raises(SpecificationError):
            PoolingUnitSim().run_layer(layer, np.zeros((1, 5, 5)))

    def test_invalid_alus_rejected(self):
        with pytest.raises(SpecificationError):
            PoolingUnitSim(num_alus=0)
