"""Tests for the Section 5 mapper (greedy and network DP)."""

import pytest

from repro.dataflow import (
    UnrollingFactors,
    coupled_input_triple,
    map_layer,
    map_network,
    relayout_penalty_cycles,
    total_utilization,
)
from repro.dataflow.mapper import _input_space, _output_space, candidate_array
from repro.dataflow.styles import ProcessingStyle
from repro.errors import MappingError
from repro.nn import ConvLayer, InputSpec, Network, get_workload, small_workloads


class TestCandidates:
    def test_input_candidates_feasible(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        dims, caps = _input_space(layer)
        for tn, ti, tj in candidate_array(dims, 16, caps).tolist():
            assert tn * ti * tj <= 16
            assert tn <= 6 and ti <= 5 and tj <= 5

    def test_output_candidates_respect_bound(self):
        layer = ConvLayer("c", in_maps=1, out_maps=6, out_size=28, kernel=5)
        dims, caps = _output_space(layer, tr_tc_bound=10)
        for _tm, tr, tc in candidate_array(dims, 16, caps).tolist():
            assert tr <= 10 and tc <= 10


class TestMapLayer:
    def test_mapping_is_feasible(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        mapping = map_layer(layer, 16)
        mapping.factors.check(layer, 16)

    def test_mapping_maximizes_utilization_on_small_space(self):
        # Exhaustively check optimality on a small layer.
        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=4, kernel=3)
        mapping = map_layer(layer, 8)
        best = 0.0
        for tn in range(1, 3):
            for ti in range(1, 4):
                for tj in range(1, 4):
                    for tm in range(1, 4):
                        for tr in range(1, 5):
                            for tc in range(1, 5):
                                f = UnrollingFactors(
                                    tm=tm, tn=tn, tr=tr, tc=tc, ti=ti, tj=tj
                                )
                                if f.is_feasible(layer, 8):
                                    best = max(best, total_utilization(layer, f, 8))
        assert mapping.utilization.ut == pytest.approx(best)

    def test_fixed_input_triple_honoured(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        mapping = map_layer(layer, 16, fixed_input_triple=(3, 1, 5))
        assert mapping.factors.input_triple == (3, 1, 5)

    def test_oversized_fixed_triple_rejected(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        with pytest.raises(MappingError):
            map_layer(layer, 16, fixed_input_triple=(6, 5, 5))

    def test_cycles_match_outer_iterations(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        mapping = map_layer(layer, 16)
        assert mapping.compute_cycles == mapping.factors.outer_iterations(layer)

    def test_style_is_reported(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        assert map_layer(layer, 16).style in ProcessingStyle


class TestCoupling:
    def test_coupled_triple_clamps_to_layer_dims(self):
        layer = ConvLayer("c", in_maps=6, out_maps=12, out_size=8, kernel=4)
        assert coupled_input_triple((3, 1, 5), layer, 16) == (3, 1, 4)

    def test_coupled_triple_none_when_overflowing(self):
        layer = ConvLayer("c", in_maps=16, out_maps=12, out_size=8, kernel=4)
        assert coupled_input_triple((8, 4, 4), layer, 16) is None

    def test_relayout_penalty_positive(self):
        layer = ConvLayer("c", in_maps=6, out_maps=12, out_size=8, kernel=4)
        assert relayout_penalty_cycles(layer, 16) > 0


class TestMapNetwork:
    def test_reproduces_table4_pv_c1(self):
        mapping = map_network(get_workload("PV"), 16)
        f = mapping.layers[0].factors
        assert (f.tm, f.tn, f.tr, f.tc, f.ti, f.tj) == (8, 1, 1, 2, 2, 6)

    def test_reproduces_table4_lenet_c1(self):
        mapping = map_network(get_workload("LeNet-5"), 16)
        f = mapping.layers[0].factors
        assert (f.tm, f.tn, f.tr, f.tc, f.ti, f.tj) == (3, 1, 1, 5, 3, 5)

    def test_lenet_coupling_beats_greedy_c1(self):
        # The DP accepts Uc=0.875 on C1 to keep C3's row utilization at
        # 0.94 — the joint optimum the paper's Table 4 encodes.
        mapping = map_network(get_workload("LeNet-5"), 16)
        c1, c3 = mapping.layers
        assert c1.factors.output_triple == c3.factors.input_triple
        assert c3.relayout_cycles == 0
        assert c3.utilization.ur > 0.9

    def test_all_small_workloads_above_70pct(self):
        for net in small_workloads():
            mapping = map_network(net, 16)
            assert mapping.overall_utilization > 0.70, net.name

    def test_every_layer_feasible(self):
        for name in ("PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"):
            net = get_workload(name)
            mapping = map_network(net, 16)
            contexts = {c.layer.name: c for c in net.conv_contexts()}
            for lm in mapping.layers:
                ctx = contexts[lm.layer.name]
                lm.factors.check(lm.layer, 16, tr_tc_bound=ctx.tr_tc_bound)

    def test_total_cycles_sums_layers(self):
        mapping = map_network(get_workload("FR"), 16)
        assert mapping.total_cycles == sum(m.total_cycles for m in mapping.layers)

    def test_overall_utilization_definition(self):
        mapping = map_network(get_workload("HG"), 16)
        assert mapping.overall_utilization == pytest.approx(
            mapping.total_macs / (mapping.total_cycles * 256)
        )

    def test_by_layer_name(self):
        mapping = map_network(get_workload("LeNet-5"), 16)
        assert set(mapping.by_layer_name()) == {"C1", "C3"}

    def test_scales_to_large_arrays(self):
        # VGG-11 at 64x64 must map in reasonable time with high utilization.
        mapping = map_network(get_workload("VGG-11"), 64)
        assert mapping.overall_utilization > 0.6

    def test_network_without_convs_rejected(self):
        from repro.nn import FCLayer

        net = Network(
            "fc-only",
            InputSpec(maps=1, size=4),
            [FCLayer("F1", in_neurons=16, out_neurons=4)],
        )
        with pytest.raises(MappingError):
            map_network(net, 16)


class TestMappingCache:
    """The LRU cache around map_layer / map_network."""

    def setup_method(self):
        from repro.dataflow import clear_mapping_cache

        clear_mapping_cache()

    def test_map_layer_cached_on_repeat(self):
        from repro.dataflow import mapping_cache_info

        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        first = map_layer(layer, 16)
        second = map_layer(layer, 16)
        assert first is second  # memoized, not recomputed
        info = mapping_cache_info()["map_layer"]
        assert info.hits >= 1

    def test_distinct_dims_are_distinct_entries(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        assert map_layer(layer, 8).factors != map_layer(layer, 16).factors or (
            map_layer(layer, 8) is not map_layer(layer, 16)
        )

    def test_map_network_cache_hits_on_structural_equality(self):
        from repro.dataflow import mapping_cache_info
        from repro.nn import parse_network, to_description

        original = get_workload("LeNet-5")
        rebuilt = parse_network(to_description(original))
        assert rebuilt == original
        map_network(original, 16)
        before = mapping_cache_info()["map_network"].hits
        result = map_network(rebuilt, 16)
        assert mapping_cache_info()["map_network"].hits == before + 1
        assert result.network_name == "LeNet-5"

    def test_clear_mapping_cache_resets(self):
        from repro.dataflow import clear_mapping_cache, mapping_cache_info

        layer = ConvLayer("c", in_maps=2, out_maps=4, out_size=6, kernel=3)
        map_layer(layer, 8)
        clear_mapping_cache()
        info = mapping_cache_info()["map_layer"]
        assert info.currsize == 0 and info.hits == 0

    def test_evicted_mapping_rederives_equal_factors(self):
        from repro.dataflow import clear_mapping_cache

        layer = ConvLayer("a", in_maps=2, out_maps=4, out_size=6, kernel=3)
        first = map_layer(layer, 8)
        clear_mapping_cache()  # evicts the memoized entry
        again = map_layer(layer, 8)
        assert again is not first
        assert again.factors == first.factors
