"""Property suite: the batched SoA evaluator vs the scalar closed forms.

``repro.sim.batch`` promises *bit-identical* counters: entry ``i`` of any
``batch_*_traces`` result must equal the corresponding scalar closed form
called on configuration ``i`` — across randomized layer shapes, unrolling
triples, array dimensions, fault-mask live-grid summaries, and starved
store capacities.  The scalar forms are themselves pinned against the
cycle simulators (``tests/sim/test_analytic.py``), so equality here chains all
the way down.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, SpecificationError
from repro.nn import ConvLayer
from repro.nn.workloads import all_workloads
from repro.sim import (
    FactorBatch,
    LayerBatch,
    TraceBatch,
    batch_flexflow_traces,
    batch_mapping2d_traces,
    batch_systolic_traces,
    batch_tiling_traces,
)
from repro.sim.analytic import (
    analytic_flexflow_trace,
    analytic_mapping2d_trace,
    analytic_systolic_trace,
    analytic_tiling_trace,
)
from repro.dataflow.unrolling import UnrollingFactors

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def conv_layers(draw, stride_one: bool = False):
    """A random small CONV layer (optionally padded)."""
    out_size = draw(st.integers(1, 12))
    kernel = draw(st.integers(1, 5))
    stride = 1 if stride_one else draw(st.integers(1, 2))
    natural = (out_size - 1) * stride + kernel
    in_size = draw(st.one_of(st.none(), st.integers(max(1, natural - 2), natural)))
    return ConvLayer(
        name="h",
        in_maps=draw(st.integers(1, 8)),
        out_maps=draw(st.integers(1, 8)),
        out_size=out_size,
        kernel=kernel,
        stride=stride,
        explicit_in_size=in_size,
    )


@st.composite
def layer_and_factors(draw):
    """A random layer plus an Eq. 1-shaped factor tuple within its bounds."""
    layer = draw(conv_layers())
    return layer, UnrollingFactors(
        tm=draw(st.integers(1, layer.out_maps)),
        tn=draw(st.integers(1, layer.in_maps)),
        tr=draw(st.integers(1, layer.out_size)),
        tc=draw(st.integers(1, layer.out_size)),
        ti=draw(st.integers(1, layer.kernel)),
        tj=draw(st.integers(1, layer.kernel)),
    )


def assert_batch_matches(batch_trace: TraceBatch, scalar_traces):
    """Element-wise equality on every counter of every configuration."""
    assert len(batch_trace) == len(scalar_traces)
    for i, scalar in enumerate(scalar_traces):
        assert batch_trace.trace(i).as_dict() == scalar.as_dict(), (
            f"configuration {i}: batched counters diverge"
        )


class TestFlexFlowBatch:
    @SETTINGS
    @given(
        st.lists(layer_and_factors(), min_size=1, max_size=6),
        st.integers(1, 2048),
        st.integers(1, 64),
    )
    def test_matches_scalar_engine(self, pairs, neuron_words, kernel_words):
        layers = [layer for layer, _ in pairs]
        factors = [f for _, f in pairs]
        batch = batch_flexflow_traces(
            layers,
            factors,
            neuron_store_words=neuron_words,
            kernel_store_words=kernel_words,
        )
        scalars = [
            analytic_flexflow_trace(
                layer,
                f,
                neuron_store_words=neuron_words,
                kernel_store_words=kernel_words,
            )
            for layer, f in pairs
        ]
        assert_batch_matches(batch, scalars)

    @SETTINGS
    @given(
        st.lists(layer_and_factors(), min_size=1, max_size=5),
        st.data(),
    )
    def test_per_configuration_capacities(self, pairs, data):
        """Capacities varying per entry, including starved (1-word) stores."""
        neuron = [data.draw(st.integers(1, 64)) for _ in pairs]
        kernel = [data.draw(st.integers(1, 8)) for _ in pairs]
        batch = batch_flexflow_traces(
            [layer for layer, _ in pairs],
            [f for _, f in pairs],
            neuron_store_words=neuron,
            kernel_store_words=kernel,
        )
        scalars = [
            analytic_flexflow_trace(
                layer, f, neuron_store_words=nw, kernel_store_words=kw
            )
            for (layer, f), nw, kw in zip(pairs, neuron, kernel)
        ]
        assert_batch_matches(batch, scalars)

    @SETTINGS
    @given(layer_and_factors(), st.integers(0, 3), st.integers(0, 3))
    def test_fault_mask_grid_validation(self, pair, dead_rows, dead_cols):
        """Live-grid summaries (fault masks) gate packing, not the counters."""
        layer, f = pair
        dim = max(f.row_occupancy, f.column_occupancy) + dead_rows + dead_cols
        usable_rows, usable_cols = dim - dead_rows, dim - dead_cols
        kwargs = dict(neuron_store_words=256, kernel_store_words=16)
        batch = batch_flexflow_traces(
            [layer], [f],
            array_dims=[dim], usable_rows=[usable_rows],
            usable_cols=[usable_cols], **kwargs,
        )
        # The mask constrains feasibility only; counters are unchanged.
        unmasked = batch_flexflow_traces([layer], [f], **kwargs)
        assert batch.trace(0).as_dict() == unmasked.trace(0).as_dict()
        with pytest.raises(MappingError):
            batch_flexflow_traces(
                [layer], [f],
                array_dims=[dim], usable_cols=[f.row_occupancy - 1],
                **kwargs,
            )
        with pytest.raises(MappingError):
            batch_flexflow_traces(
                [layer], [f],
                array_dims=[dim], usable_rows=[f.column_occupancy - 1],
                **kwargs,
            )

    def test_workload_layers_bulk(self):
        """Every Table 1 CONV layer under one shared capacity, in one batch."""
        from repro.dataflow import map_layer

        layers, factors = [], []
        for network in all_workloads():
            for ctx in network.conv_contexts():
                layers.append(ctx.layer)
                factors.append(
                    map_layer(ctx.layer, 16, tr_tc_bound=ctx.tr_tc_bound).factors
                )
        batch = batch_flexflow_traces(
            layers, factors, neuron_store_words=4096, kernel_store_words=512
        )
        scalars = [
            analytic_flexflow_trace(
                layer, f, neuron_store_words=4096, kernel_store_words=512
            )
            for layer, f in zip(layers, factors)
        ]
        assert_batch_matches(batch, scalars)

    def test_empty_batch(self):
        batch = batch_flexflow_traces(
            [], [], neuron_store_words=64, kernel_store_words=8
        )
        assert len(batch) == 0
        assert batch.traces() == []

    def test_single_element_batch(self):
        layer = ConvLayer("c", in_maps=3, out_maps=4, out_size=6, kernel=3)
        f = UnrollingFactors(tm=2, tn=1, tr=2, tc=3, ti=3, tj=1)
        batch = batch_flexflow_traces(
            [layer], [f], neuron_store_words=32, kernel_store_words=4
        )
        scalar = analytic_flexflow_trace(
            layer, f, neuron_store_words=32, kernel_store_words=4
        )
        assert len(batch) == 1
        assert batch.trace(0).as_dict() == scalar.as_dict()

    def test_length_mismatch_rejected(self):
        layer = ConvLayer("c", in_maps=2, out_maps=2, out_size=4, kernel=2)
        f = UnrollingFactors(tm=1, tn=1, tr=1, tc=1, ti=1, tj=1)
        with pytest.raises(SpecificationError):
            batch_flexflow_traces(
                [layer], [f, f], neuron_store_words=8, kernel_store_words=8
            )
        with pytest.raises(SpecificationError):
            batch_flexflow_traces(
                [layer, layer], [f, f],
                neuron_store_words=[8, 8, 8], kernel_store_words=8,
            )

    def test_oversized_factor_rejected(self):
        layer = ConvLayer("c", in_maps=2, out_maps=2, out_size=4, kernel=2)
        f = UnrollingFactors(tm=3, tn=1, tr=1, tc=1, ti=1, tj=1)
        with pytest.raises(MappingError):
            batch_flexflow_traces(
                [layer], [f], neuron_store_words=8, kernel_store_words=8
            )


class TestBaselineBatches:
    @SETTINGS
    @given(st.lists(conv_layers(stride_one=True), min_size=1, max_size=8))
    def test_systolic_matches(self, layers):
        batch = batch_systolic_traces(layers)
        assert_batch_matches(
            batch, [analytic_systolic_trace(layer) for layer in layers]
        )

    @SETTINGS
    @given(
        st.lists(conv_layers(stride_one=True), min_size=1, max_size=6),
        st.data(),
    )
    def test_mapping2d_matches(self, layers, data):
        blocks = [data.draw(st.integers(1, 8)) for _ in layers]
        batch = batch_mapping2d_traces(layers, blocks)
        assert_batch_matches(
            batch,
            [
                analytic_mapping2d_trace(layer, block)
                for layer, block in zip(layers, blocks)
            ],
        )

    @SETTINGS
    @given(st.lists(conv_layers(), min_size=1, max_size=6), st.data())
    def test_tiling_matches(self, layers, data):
        tm = [data.draw(st.integers(1, 6)) for _ in layers]
        tn = [data.draw(st.integers(1, 6)) for _ in layers]
        batch = batch_tiling_traces(layers, tm, tn)
        assert_batch_matches(
            batch,
            [
                analytic_tiling_trace(layer, m, n)
                for layer, m, n in zip(layers, tm, tn)
            ],
        )

    def test_empty_batches(self):
        assert len(batch_systolic_traces([])) == 0
        assert len(batch_mapping2d_traces([], [])) == 0
        assert len(batch_tiling_traces([], [], [])) == 0

    def test_stride_validation_matches_scalar(self):
        strided = ConvLayer(
            "s", in_maps=2, out_maps=2, out_size=4, kernel=3, stride=2
        )
        with pytest.raises(SpecificationError):
            batch_systolic_traces([strided])
        with pytest.raises(SpecificationError):
            batch_mapping2d_traces([strided], [4])
        with pytest.raises(SpecificationError):
            batch_tiling_traces([strided], [0], [1])


class TestSoAContainers:
    @SETTINGS
    @given(st.lists(layer_and_factors(), min_size=1, max_size=6))
    def test_roundtrip(self, pairs):
        """SoA containers reproduce the AoS inputs they were built from."""
        layers = [layer for layer, _ in pairs]
        factors = [f for _, f in pairs]
        lb = LayerBatch.from_layers(layers)
        fb = FactorBatch.from_factors(factors)
        assert len(lb) == len(fb) == len(pairs)
        for i, (layer, f) in enumerate(pairs):
            rebuilt = lb.layer(i)
            assert (
                rebuilt.in_maps, rebuilt.out_maps, rebuilt.out_size,
                rebuilt.kernel, rebuilt.stride, rebuilt.in_size,
            ) == (
                layer.in_maps, layer.out_maps, layer.out_size,
                layer.kernel, layer.stride, layer.in_size,
            )
            assert fb.factors(i) == f
        np.testing.assert_array_equal(
            lb.macs, [layer.macs for layer in layers]
        )
        np.testing.assert_array_equal(
            fb.row_occupancy, [f.tn * f.ti * f.tj for f in factors]
        )
