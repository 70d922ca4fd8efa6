"""Tests for golden whole-network execution."""

import numpy as np
import pytest

from repro.errors import SpecificationError
from repro.nn import (
    ConvLayer,
    FCLayer,
    InputSpec,
    JoinLayer,
    Network,
    PoolLayer,
    get_workload,
    make_network_inputs,
    run_join_layer,
    run_network,
)
from repro.nn.reference import hash_stable


def toy_net():
    return Network(
        "toy",
        InputSpec(maps=1, size=8),
        [
            ConvLayer("C1", in_maps=1, out_maps=4, out_size=6, kernel=3),
            PoolLayer("S2", maps=4, in_size=6, out_size=3, window=2),
            JoinLayer("J3", in_maps=4, out_maps=8, size=3),
            FCLayer("F4", in_neurons=8 * 3 * 3, out_neurons=5),
        ],
    )


class TestRunNetwork:
    def test_final_shape(self):
        out, acts = run_network(toy_net())
        assert out.shape == (5,)
        assert set(acts) == {"C1", "S2", "J3", "F4"}

    def test_deterministic(self):
        a, _ = run_network(toy_net())
        b, _ = run_network(toy_net())
        np.testing.assert_array_equal(a, b)

    def test_activation_shapes_chain(self):
        _, acts = run_network(toy_net())
        assert acts["C1"].shape == (4, 6, 6)
        assert acts["S2"].shape == (4, 3, 3)
        assert acts["J3"].shape == (8, 3, 3)

    def test_wrong_input_shape_rejected(self):
        with pytest.raises(SpecificationError):
            run_network(toy_net(), np.zeros((1, 9, 9)))

    def test_runs_all_small_workloads(self):
        for name in ("PV", "FR", "LeNet-5", "HG"):
            out, _ = run_network(get_workload(name))
            assert np.all(np.isfinite(out))

    def test_runs_alexnet_with_joins(self):
        out, acts = run_network(get_workload("AlexNet"))
        assert acts["J4"].shape == (256, 13, 13)
        assert out.shape == (1000,)


class TestJoinLayer:
    def test_duplicates_maps(self):
        layer = JoinLayer("j", in_maps=2, out_maps=4, size=3)
        x = np.arange(18, dtype=float).reshape(2, 3, 3)
        out = run_join_layer(layer, x)
        np.testing.assert_array_equal(out[:2], x)
        np.testing.assert_array_equal(out[2:], x)

    def test_non_multiple_rejected(self):
        layer = JoinLayer("j", in_maps=2, out_maps=5, size=3)
        with pytest.raises(SpecificationError):
            run_join_layer(layer, np.zeros((2, 3, 3)))

    def test_wrong_map_count_rejected(self):
        layer = JoinLayer("j", in_maps=2, out_maps=4, size=3)
        with pytest.raises(SpecificationError):
            run_join_layer(layer, np.zeros((3, 3, 3)))


class TestHelpers:
    def test_inputs_match_spec(self):
        net = toy_net()
        assert make_network_inputs(net).shape == net.input_spec.shape

    def test_hash_stable_is_deterministic(self):
        assert hash_stable("abc") == hash_stable("abc")
        assert hash_stable("abc") != hash_stable("abd")
