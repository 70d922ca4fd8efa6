"""Tests for rectangular-array mapping."""

import pytest

from repro.dataflow import map_network
from repro.dataflow.rectangular import (
    aspect_ratio_candidates,
    best_aspect_ratio,
    map_layer_rect,
    shape_utilizations,
)
from repro.errors import MappingError
from repro.nn import ConvLayer, FCLayer, InputSpec, Network, get_workload


class TestMapLayerRect:
    def test_square_matches_square_mapper_utilization(self):
        from repro.dataflow import map_layer

        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        square = map_layer(layer, 16)
        rect = map_layer_rect(layer, 16, 16)
        assert rect.compute_cycles == square.compute_cycles

    def test_constraints_respected(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        mapping = map_layer_rect(layer, rows=32, cols=8)
        f = mapping.factors
        assert f.row_occupancy <= 8  # columns
        assert f.column_occupancy <= 32  # rows

    def test_tall_array_favors_output_parallelism(self):
        # M*S^2 >> N*K^2: a tall array hosts more output neurons.
        layer = ConvLayer("c", in_maps=1, out_maps=32, out_size=16, kernel=2)
        tall = map_layer_rect(layer, rows=64, cols=4)
        square = map_layer_rect(layer, rows=16, cols=16)
        assert tall.utilization > square.utilization

    def test_tr_tc_bound_respected(self):
        layer = ConvLayer("c", in_maps=1, out_maps=6, out_size=28, kernel=5)
        mapping = map_layer_rect(layer, 16, 16, tr_tc_bound=4)
        assert mapping.factors.tr <= 4 and mapping.factors.tc <= 4

    def test_utilization_bounded(self):
        layer = ConvLayer("c", in_maps=3, out_maps=5, out_size=7, kernel=3)
        for rows, cols in ((4, 64), (16, 16), (64, 4)):
            mapping = map_layer_rect(layer, rows, cols)
            assert 0 < mapping.utilization <= 1.0

    def test_invalid_shape_rejected(self):
        layer = ConvLayer("c", in_maps=1, out_maps=1, out_size=4, kernel=2)
        with pytest.raises(MappingError):
            map_layer_rect(layer, 0, 16)


class TestAspectRatio:
    def test_candidates_are_factorizations(self):
        for rows, cols in aspect_ratio_candidates(256):
            assert rows * cols == 256

    def test_invalid_budget_rejected(self):
        with pytest.raises(MappingError):
            aspect_ratio_candidates(0)

    def test_best_never_worse_than_square(self):
        for name in ("PV", "LeNet-5", "HG"):
            network = get_workload(name)
            (_rows, _cols), best_util = best_aspect_ratio(network, 256)
            square_cycles = 0
            macs = 0
            for ctx in network.conv_contexts():
                mapping = map_layer_rect(
                    ctx.layer, 16, 16, tr_tc_bound=ctx.tr_tc_bound
                )
                square_cycles += mapping.compute_cycles
                macs += ctx.layer.macs
            square_util = macs / (square_cycles * 256)
            assert best_util >= square_util - 1e-12

    def test_min_dim_excludes_degenerate(self):
        network = get_workload("PV")
        (rows, cols), _ = best_aspect_ratio(network, 256, min_dim=4)
        assert rows >= 4 and cols >= 4

    def test_impossible_min_dim_rejected(self):
        with pytest.raises(MappingError):
            best_aspect_ratio(get_workload("PV"), 4, min_dim=4)

    def test_network_without_conv_layers_rejected(self):
        """The typed error ``map_network`` raises, not a division by zero."""
        network = Network("fcs", InputSpec(1, 4), [FCLayer("F1", 16, 8)])
        message = "network 'fcs' has no CONV layers"
        with pytest.raises(MappingError, match=message):
            map_network(network, 16)
        with pytest.raises(MappingError, match=message):
            shape_utilizations(network, 256, [(16, 16)])
        with pytest.raises(MappingError, match=message):
            best_aspect_ratio(network, 256)
