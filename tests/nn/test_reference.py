"""Tests for the NumPy golden model against hand-computed convolutions."""

import numpy as np
import pytest

from repro.errors import SpecificationError
from repro.nn import (
    ConvLayer,
    FCLayer,
    PoolLayer,
    conv2d,
    make_fc_weights,
    make_inputs,
    make_kernels,
    pad_input,
    pool2d,
    run_conv_layer,
    run_fc_layer,
    run_pool_layer,
)


def naive_conv(inputs, kernels, stride=1):
    """Loop-literal transcription of Figure 3's pseudo code."""
    n_in, h, w = inputs.shape
    m_out, _, k, _ = kernels.shape
    s_h = (h - k) // stride + 1
    s_w = (w - k) // stride + 1
    out = np.zeros((m_out, s_h, s_w))
    for m in range(m_out):
        for n in range(n_in):
            for r in range(s_h):
                for c in range(s_w):
                    for i in range(k):
                        for j in range(k):
                            out[m, r, c] += (
                                kernels[m, n, i, j]
                                * inputs[n, r * stride + i, c * stride + j]
                            )
    return out


class TestConv2d:
    def test_matches_figure3_loop_nest(self):
        rng = np.random.default_rng(7)
        inputs = rng.standard_normal((3, 8, 8))
        kernels = rng.standard_normal((4, 3, 3, 3))
        np.testing.assert_allclose(
            conv2d(inputs, kernels), naive_conv(inputs, kernels), atol=1e-10
        )

    def test_stride(self):
        rng = np.random.default_rng(8)
        inputs = rng.standard_normal((2, 11, 11))
        kernels = rng.standard_normal((3, 2, 3, 3))
        np.testing.assert_allclose(
            conv2d(inputs, kernels, stride=2),
            naive_conv(inputs, kernels, stride=2),
            atol=1e-10,
        )

    def test_identity_kernel(self):
        inputs = np.arange(16, dtype=float).reshape(1, 4, 4)
        kernels = np.zeros((1, 1, 1, 1))
        kernels[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(conv2d(inputs, kernels), inputs)

    def test_output_shape(self):
        out = conv2d(np.zeros((6, 14, 14)), np.zeros((16, 6, 5, 5)))
        assert out.shape == (16, 10, 10)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            conv2d(np.zeros((2, 8, 8)), np.zeros((4, 3, 3, 3)))

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(SpecificationError):
            conv2d(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)))

    def test_non_square_kernel_rejected(self):
        with pytest.raises(SpecificationError):
            conv2d(np.zeros((1, 8, 8)), np.zeros((1, 1, 3, 2)))


class TestPadding:
    def test_zero_padding_is_identity(self):
        x = np.ones((2, 3, 3))
        assert pad_input(x, 0) is x

    def test_even_padding_split(self):
        x = np.ones((1, 2, 2))
        padded = pad_input(x, 2)
        assert padded.shape == (1, 4, 4)
        assert padded[0, 0, 0] == 0 and padded[0, 1, 1] == 1

    def test_odd_padding_trails(self):
        x = np.ones((1, 2, 2))
        padded = pad_input(x, 3)
        assert padded.shape == (1, 5, 5)
        assert padded[0, 1, 1] == 1  # one leading row/col of zeros
        assert padded[0, 4, 4] == 0

    def test_negative_rejected(self):
        with pytest.raises(SpecificationError):
            pad_input(np.ones((1, 2, 2)), -1)


class TestRunConvLayer:
    def test_padded_layer_output_shape(self):
        layer = ConvLayer(
            "c", in_maps=2, out_maps=3, out_size=6, kernel=3, explicit_in_size=6
        )
        out = run_conv_layer(layer, make_inputs(layer))
        assert out.shape == layer.output_shape

    def test_deterministic(self):
        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=4, kernel=3)
        a = run_conv_layer(layer, make_inputs(layer))
        b = run_conv_layer(layer, make_inputs(layer))
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=4, kernel=3)
        with pytest.raises(SpecificationError):
            run_conv_layer(layer, np.zeros((2, 5, 5)))


class TestPool:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = pool2d(x, window=2, out_size=2, mode="max")
        np.testing.assert_array_equal(out[0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = pool2d(x, window=2, out_size=2, mode="avg")
        np.testing.assert_array_equal(out[0], [[2.5, 4.5], [10.5, 12.5]])

    def test_truncating_pool(self):
        x = np.arange(25, dtype=float).reshape(1, 5, 5)
        out = pool2d(x, window=2, out_size=2, mode="max")
        assert out.shape == (1, 2, 2)

    def test_run_pool_layer_shape_check(self):
        layer = PoolLayer("p", maps=2, in_size=4, out_size=2, window=2)
        with pytest.raises(SpecificationError):
            run_pool_layer(layer, np.zeros((2, 6, 6)))

    def test_run_pool_layer(self):
        layer = PoolLayer("p", maps=1, in_size=4, out_size=2, window=2)
        out = run_pool_layer(layer, np.arange(16, dtype=float).reshape(1, 4, 4))
        assert out.shape == (1, 2, 2)


class TestFC:
    def test_fc_matches_matmul(self):
        layer = FCLayer("f", in_neurons=12, out_neurons=5)
        x = np.arange(12, dtype=float)
        out = run_fc_layer(layer, x)
        assert out.shape == (5,)

    def test_fc_flattens_3d_input(self):
        layer = FCLayer("f", in_neurons=12, out_neurons=5)
        x = np.arange(12, dtype=float).reshape(3, 2, 2)
        np.testing.assert_array_equal(
            run_fc_layer(layer, x), run_fc_layer(layer, x.reshape(-1))
        )

    def test_fc_size_mismatch_rejected(self):
        layer = FCLayer("f", in_neurons=12, out_neurons=5)
        with pytest.raises(SpecificationError):
            run_fc_layer(layer, np.zeros(13))


class TestGenerators:
    def test_inputs_match_layer_shape(self):
        layer = ConvLayer("c", in_maps=3, out_maps=2, out_size=5, kernel=3)
        assert make_inputs(layer).shape == layer.input_shape

    def test_kernels_match_layer_shape(self):
        layer = ConvLayer("c", in_maps=3, out_maps=2, out_size=5, kernel=3)
        assert make_kernels(layer).shape == layer.kernel_shape

    def test_seed_tag_changes_data(self):
        layer = ConvLayer("c", in_maps=1, out_maps=1, out_size=3, kernel=2)
        a = make_inputs(layer, seed_tag="a")
        b = make_inputs(layer, seed_tag="b")
        assert not np.array_equal(a, b)

    def test_tags_differing_past_eight_bytes_draw_different_values(self):
        # `in:Fig8-C1...` and `in:Fig8-C2...` share their first 8 bytes.
        c1 = ConvLayer("Fig8-C1", in_maps=1, out_maps=2, out_size=8, kernel=4)
        c2 = ConvLayer("Fig8-C2", in_maps=2, out_maps=2, out_size=4, kernel=2)
        inputs = make_inputs(c1).reshape(-1), make_inputs(c2).reshape(-1)
        kernels = make_kernels(c1).reshape(-1), make_kernels(c2).reshape(-1)
        for a, b in (inputs, kernels):
            common = min(a.size, b.size)
            assert not np.any(a[:common] == b[:common])

    def test_values_are_deterministic_non_integer_float64(self):
        layer = ConvLayer("c", in_maps=3, out_maps=4, out_size=6, kernel=3)
        for make in (make_inputs, make_kernels):
            values = make(layer)
            assert values.dtype == np.float64
            assert np.array_equal(values, make(layer))
            assert np.all((values >= -1.0) & (values < 1.0))
            assert not np.any(values == np.round(values))
        weights = make_fc_weights(FCLayer("F", in_neurons=12, out_neurons=5))
        assert weights.shape == (5, 12)
        assert not np.any(weights == np.round(weights))
