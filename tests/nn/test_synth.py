"""Tests for the synthetic-network generator."""

import pytest

from repro.dataflow import map_network
from repro.errors import SpecificationError
from repro.nn import SynthSpec, random_network


class TestRandomNetwork:
    def test_deterministic_per_seed(self):
        a = random_network(7)
        b = random_network(7)
        assert a.describe() == b.describe()

    def test_different_seeds_differ(self):
        descriptions = {random_network(seed).describe() for seed in range(12)}
        assert len(descriptions) > 1

    def test_always_valid(self):
        # Network.__init__ validates chaining; 60 seeds all construct.
        for seed in range(60):
            net = random_network(seed)
            assert len(net.conv_layers) >= 1

    def test_all_mappable(self):
        for seed in range(25):
            net = random_network(seed)
            mapping = map_network(net, 16)
            assert 0 < mapping.overall_utilization <= 1.0

    def test_fc_head_optional(self):
        spec = SynthSpec(fc_head=False)
        net = random_network(3, spec)
        assert not net.fc_layers

    def test_respects_max_kernel(self):
        spec = SynthSpec(max_kernel=3)
        for seed in range(20):
            for layer in random_network(seed, spec).conv_layers:
                assert layer.kernel <= 3

    def test_respects_max_maps(self):
        spec = SynthSpec(max_maps=8)
        for seed in range(20):
            for layer in random_network(seed, spec).conv_layers:
                assert layer.out_maps <= 8

    def test_custom_name(self):
        assert random_network(1, name="mynet").name == "mynet"


class TestSynthSpecValidation:
    def test_bad_layer_range(self):
        with pytest.raises(SpecificationError):
            SynthSpec(min_conv_layers=5, max_conv_layers=2)

    def test_bad_probability(self):
        with pytest.raises(SpecificationError):
            SynthSpec(pool_probability=1.5)

    def test_bad_input_size(self):
        with pytest.raises(SpecificationError):
            SynthSpec(min_input_size=2)
