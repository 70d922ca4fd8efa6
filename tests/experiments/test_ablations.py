"""Tests for the three design-choice ablations."""

import pytest

from repro.dataflow import (
    ProcessingStyle,
    map_layer,
    map_layer_with_style,
    network_utilization_by_styles,
)
from repro.errors import MappingError
from repro.experiments import run_experiment
from repro.nn import ConvLayer, get_workload


@pytest.fixture(scope="module")
def styles_result():
    return run_experiment("ablation_styles")


@pytest.fixture(scope="module")
def coupling_result():
    return run_experiment("ablation_coupling")


@pytest.fixture(scope="module")
def localstore_result():
    return run_experiment("ablation_localstore")


class TestStyleRestriction:
    def test_sp_only_pins_output_side(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        mapping = map_layer_with_style(layer, 16, ProcessingStyle.SFSNMS)
        f = mapping.factors
        assert f.tm == f.tr == f.tc == f.tn == 1
        assert f.ti > 1 or f.tj > 1

    def test_np_only_pins_maps_and_synapses(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        mapping = map_layer_with_style(layer, 16, ProcessingStyle.SFMNSS)
        f = mapping.factors
        assert f.tm == f.tn == f.ti == f.tj == 1
        assert f.tr > 1 or f.tc > 1

    def test_full_style_matches_unrestricted_mapper(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        restricted = map_layer_with_style(layer, 16, ProcessingStyle.MFMNMS)
        free = map_layer(layer, 16)
        assert restricted.compute_cycles == free.compute_cycles

    def test_restricted_never_beats_full(self):
        by_style = network_utilization_by_styles(
            get_workload("LeNet-5"), 16, ProcessingStyle
        )
        full = by_style[ProcessingStyle.MFMNMS]
        for style in ProcessingStyle:
            assert by_style[style] <= full + 1e-9

    def test_respects_tr_tc_bound(self):
        layer = ConvLayer("c", in_maps=1, out_maps=6, out_size=28, kernel=5)
        mapping = map_layer_with_style(
            layer, 16, ProcessingStyle.SFMNSS, tr_tc_bound=4
        )
        assert mapping.factors.tr <= 4 and mapping.factors.tc <= 4


class TestStylesAblationExperiment:
    def test_mixing_dominates_everywhere(self, styles_result):
        for row in styles_result.rows:
            full = row["MFMNMS (FlexFlow)"]
            for key, value in row.items():
                if key in ("workload", "MFMNMS (FlexFlow)"):
                    continue
                assert value <= full + 1e-9, (row["workload"], key)

    def test_no_single_pair_suffices(self, styles_result):
        # NP+SP wins on small nets, FP+SP on AlexNet/VGG: no knock-out
        # column dominates across all workloads (the complementarity).
        pair_cols = [
            c for c in styles_result.columns() if "+" in c and "FlexFlow" not in c
        ]
        best_count = {c: 0 for c in pair_cols}
        for row in styles_result.rows:
            best = max(pair_cols, key=lambda c: row[c])
            best_count[best] += 1
        assert max(best_count.values()) < len(styles_result.rows)

    def test_single_styles_capped_by_row_or_column(self, styles_result):
        # A single-parallelism style can fill at most one dimension of the
        # array: utilization is bounded by 1/D plus packing slack.
        for row in styles_result.rows:
            assert row["SFSNMS (SP)"] <= 1 / 16 + 1e-9


class TestCouplingAblation:
    def test_dp_never_worse_than_greedy(self, coupling_result):
        for row in coupling_result.rows:
            assert row["dp_cycles"] <= row["greedy_cycles"]

    def test_free_relayout_lower_bounds_greedy(self, coupling_result):
        for row in coupling_result.rows:
            assert row["greedy_free_relayout"] <= row["greedy_cycles"]

    def test_dp_saves_cycles_somewhere(self, coupling_result):
        assert any(row["dp_vs_greedy"] > 1.0 for row in coupling_result.rows)


class TestLocalStoreAblation:
    def test_traffic_monotone_nonincreasing_in_capacity(self, localstore_result):
        reads = [row["buffer_reads"] for row in localstore_result.rows]
        assert all(a >= b for a, b in zip(reads, reads[1:]))

    def test_design_point_near_saturation(self, localstore_result):
        by_size = {row["store_bytes"]: row for row in localstore_result.rows}
        # Going from 256 B to 512 B buys < 10 % traffic reduction.
        assert by_size[512]["buffer_reads"] >= 0.9 * by_size[256]["buffer_reads"]

    def test_cycles_unaffected_by_store_size(self, localstore_result):
        cycles = {row["cycles"] for row in localstore_result.rows}
        assert len(cycles) == 1

    def test_inexact_outputs_raise_simulation_error(self, monkeypatch):
        """The exactness gate is an explicit check, not an ``assert``, so
        ``python -O`` cannot strip it; it names the store size and error."""
        from repro.errors import SimulationError
        from repro.experiments import ablation_localstore
        from repro.sim.flexflow_sim import FlexFlowFunctionalSim

        run_layer = FlexFlowFunctionalSim.run_layer

        def skewed(self, layer, inputs, kernels):
            outputs, trace = run_layer(self, layer, inputs, kernels)
            return outputs + 0.5, trace

        monkeypatch.setattr(FlexFlowFunctionalSim, "run_layer", skewed)
        with pytest.raises(
            SimulationError, match=r"32 B local stores.*max abs error 0\.5"
        ):
            ablation_localstore.run(store_sizes=(32,))
