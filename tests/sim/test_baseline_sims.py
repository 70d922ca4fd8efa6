"""Tests for the baseline functional simulators (systolic / 2D / tiling)."""

import numpy as np
import pytest

from repro.arch.interconnect import FifoLink
from repro.errors import SimulationError, SpecificationError
from repro.nn import ConvLayer, conv2d, make_inputs, make_kernels, pad_input
from repro.sim import Mapping2DFunctionalSim, SystolicFunctionalSim, TilingFunctionalSim


def golden(layer, inputs, kernels):
    return conv2d(pad_input(inputs, layer.padding), kernels, stride=layer.stride)


class TestSystolicSim:
    @pytest.mark.parametrize(
        "n,m,s,k",
        [(1, 1, 6, 3), (2, 3, 5, 3), (1, 2, 4, 4), (2, 2, 8, 2)],
    )
    def test_matches_golden(self, n, m, s, k):
        layer = ConvLayer("t", in_maps=n, out_maps=m, out_size=s, kernel=k)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = SystolicFunctionalSim().run_layer(layer, inputs, kernels)
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_mac_count_exact(self):
        layer = ConvLayer("t", in_maps=2, out_maps=2, out_size=5, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.mac_ops == layer.macs

    def test_cycles_include_fill_and_drain(self):
        # One (m, n) pair on a W=8 image with K=3: the raster runs
        # (W + K) * W cycles including the drain rows.
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=6, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.cycles == (8 + 3) * 8

    def test_each_input_broadcast_once_per_pair(self):
        # A single array re-reads each input map once per output map (the
        # analytical model's cross-array sharing needs multiple arrays).
        layer = ConvLayer("t", in_maps=2, out_maps=3, out_size=5, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        pairs = 6
        assert trace.neuron_buffer_reads == pairs * layer.in_size**2

    def test_fifo_traffic_present(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=6, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.fifo_accesses > 0

    def test_stride_rejected(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=3, kernel=3, stride=2)
        with pytest.raises(SpecificationError):
            SystolicFunctionalSim().run_layer(
                layer, make_inputs(layer), make_kernels(layer)
            )

    def test_shape_mismatch_rejected(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=6, kernel=3)
        with pytest.raises(SpecificationError):
            SystolicFunctionalSim().run_layer(
                layer, np.zeros((1, 5, 5)), make_kernels(layer)
            )


class _NewestFirstFifo(FifoLink):
    """Hands out the newest entry instead of the one at the head."""

    def pop(self):
        entries = [FifoLink.pop(self) for _ in range(len(self))]
        for entry in entries[:-1]:
            self.push(entry)
        return entries[-1]


class _StickyFifo(FifoLink):
    """Pops leave the entry at the head; deep enough never to fill."""

    def __init__(self, depth, name="fifo"):
        super().__init__(depth + 10_000, name)

    def pop(self):
        return self.peek()


class TestSystolicMachineChecks:
    """Break the pipeline on purpose: the simulator must notice."""

    LAYER = ConvLayer("t", in_maps=2, out_maps=2, out_size=4, kernel=3)

    def run(self):
        return SystolicFunctionalSim().run_layer(
            self.LAYER, make_inputs(self.LAYER), make_kernels(self.LAYER)
        )

    def test_misrouted_flight_breaks_timing(self, monkeypatch):
        monkeypatch.setattr("repro.sim.systolic_sim.FifoLink", _NewestFirstFifo)
        with pytest.raises(SimulationError, match="pipeline timing broken"):
            self.run()

    def test_stuck_fifo_entry_is_not_drained(self, monkeypatch):
        monkeypatch.setattr("repro.sim.systolic_sim.FifoLink", _StickyFifo)
        with pytest.raises(SimulationError, match="row FIFO 0 not drained"):
            self.run()


class TestMapping2DSim:
    @pytest.mark.parametrize(
        "n,m,s,k,block",
        [(1, 1, 6, 3, 4), (2, 3, 5, 3, 16), (1, 2, 7, 4, 4), (3, 2, 8, 2, 5)],
    )
    def test_matches_golden(self, n, m, s, k, block):
        layer = ConvLayer("t", in_maps=n, out_maps=m, out_size=s, kernel=k)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = Mapping2DFunctionalSim(block_size=block).run_layer(
            layer, inputs, kernels
        )
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_block_takes_k_squared_cycles_per_input_map(self):
        layer = ConvLayer("t", in_maps=3, out_maps=2, out_size=4, kernel=3)
        _, trace = Mapping2DFunctionalSim(block_size=4).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        # M * blocks * N * K^2 = 2 * 1 * 3 * 9.
        assert trace.cycles == 2 * 3 * 9

    def test_synapse_broadcast_one_per_cycle(self):
        layer = ConvLayer("t", in_maps=2, out_maps=2, out_size=4, kernel=3)
        _, trace = Mapping2DFunctionalSim(block_size=4).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.kernel_buffer_reads == trace.cycles

    def test_shifting_reuses_neurons(self):
        # Buffer reads must be far fewer than MACs thanks to FIFO shifts.
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=8, kernel=3)
        _, trace = Mapping2DFunctionalSim(block_size=8).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.neuron_buffer_reads < trace.mac_ops / 3
        assert trace.fifo_accesses > 0

    def test_invalid_block_rejected(self):
        with pytest.raises(SpecificationError):
            Mapping2DFunctionalSim(block_size=0)

    def test_window_shifted_one_column_wrong_is_caught(self, monkeypatch):
        def shift_two_columns(window, fresh):
            window[:, :-2] = window[:, 2:]
            window[:, -2:] = fresh[:, np.newaxis]

        monkeypatch.setattr(
            Mapping2DFunctionalSim, "_shift_left", staticmethod(shift_two_columns)
        )
        layer = ConvLayer("t", in_maps=2, out_maps=2, out_size=4, kernel=3)
        misaligned = r"window misaligned at kernel \(0,1\)"
        with pytest.raises(SimulationError, match=misaligned):
            Mapping2DFunctionalSim(block_size=4).run_layer(
                layer, make_inputs(layer), make_kernels(layer)
            )

    def test_stride_rejected(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=3, kernel=3, stride=2)
        with pytest.raises(SpecificationError):
            Mapping2DFunctionalSim(block_size=4).run_layer(
                layer, make_inputs(layer), make_kernels(layer)
            )


class TestTilingSim:
    @pytest.mark.parametrize(
        "n,m,s,k,tm,tn",
        [(2, 3, 4, 3, 2, 2), (4, 4, 3, 2, 16, 16), (5, 3, 4, 3, 2, 2)],
    )
    def test_matches_golden(self, n, m, s, k, tm, tn):
        layer = ConvLayer("t", in_maps=n, out_maps=m, out_size=s, kernel=k)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = TilingFunctionalSim(tm=tm, tn=tn).run_layer(
            layer, inputs, kernels
        )
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_matches_golden_with_stride(self):
        layer = ConvLayer("t", in_maps=2, out_maps=2, out_size=3, kernel=3, stride=2)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = TilingFunctionalSim(tm=2, tn=2).run_layer(layer, inputs, kernels)
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_cycles_formula(self):
        layer = ConvLayer("t", in_maps=4, out_maps=4, out_size=3, kernel=2)
        _, trace = TilingFunctionalSim(tm=2, tn=2).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        # ceil(4/2) * ceil(4/2) * S^2 * K^2 = 2 * 2 * 9 * 4.
        assert trace.cycles == 144

    def test_synapse_traffic_equals_macs(self):
        layer = ConvLayer("t", in_maps=2, out_maps=3, out_size=4, kernel=3)
        _, trace = TilingFunctionalSim(tm=3, tn=2).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.kernel_buffer_reads == layer.macs

    def test_partial_reads_when_n_exceeds_tn(self):
        layer = ConvLayer("t", in_maps=5, out_maps=2, out_size=3, kernel=2)
        _, trace = TilingFunctionalSim(tm=2, tn=2).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.neuron_buffer_partial_reads > 0

    def test_invalid_tiles_rejected(self):
        with pytest.raises(SpecificationError):
            TilingFunctionalSim(tm=0, tn=2)
