"""Tests for workload statistics."""

from repro.nn import (
    ConvLayer,
    dominant_parallelism_by_layer,
    get_workload,
    parallelism_profile,
)


class TestFootprint:
    def test_footprint_fields(self):
        layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=4, kernel=3)
        assert layer.num_input_words == 2 * 36
        assert layer.num_output_words == 3 * 16
        assert layer.num_kernel_words == 3 * 2 * 9
        assert layer.macs == 3 * 16 * 2 * 9

    def test_network_footprints_cover_all_convs(self):
        net = get_workload("PV")
        assert [layer.name for layer in net.conv_layers] == [
            "C1", "C3", "C5", "C6", "C7"
        ]


class TestParallelismProfile:
    def test_dimensions(self):
        layer = ConvLayer("c", in_maps=6, out_maps=16, out_size=10, kernel=5)
        prof = parallelism_profile(layer)
        assert prof.feature_map == 96
        assert prof.neuron == 100
        assert prof.synapse == 25

    def test_dominant_neuron(self):
        # LeNet-5 C1: 28x28 output dwarfs 6 map pairs and 25 synapses.
        layer = ConvLayer("c", in_maps=1, out_maps=6, out_size=28, kernel=5)
        assert parallelism_profile(layer).dominant == "NP"

    def test_dominant_feature_map(self):
        layer = ConvLayer("c", in_maps=192, out_maps=192, out_size=13, kernel=3)
        assert parallelism_profile(layer).dominant == "FP"

    def test_dominant_synapse(self):
        layer = ConvLayer("c", in_maps=1, out_maps=1, out_size=2, kernel=6)
        assert parallelism_profile(layer).dominant == "SP"

    def test_dominant_flips_across_layers(self):
        # The paper's core observation: dominance changes between layers.
        dominants = dominant_parallelism_by_layer(get_workload("AlexNet"))
        assert len(set(dominants.values())) > 1


class TestComputeShare:
    def test_pure_conv_network_share_is_one(self):
        assert get_workload("PV").conv_fraction() == 1.0

    def test_share_with_fc_below_one(self):
        assert 0.0 < get_workload("LeNet-5").conv_fraction() < 1.0
