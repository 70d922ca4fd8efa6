"""Tests for FaultModel: determinism, nesting, and counter-based flips."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultModel, apply_flip, transient_flip


class TestFaultModel:
    def test_null_model(self):
        model = FaultModel()
        assert not model.has_permanent_faults
        assert not model.has_transient_faults
        assert model.mask_for(8).is_healthy

    def test_rate_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            FaultModel(dead_pe_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultModel(bitflip_rate=-0.1)

    def test_explicit_faults_normalized(self):
        model = FaultModel(dead_rows=(3, 1, 3), dead_pes=((2, 2), (1, 0), (2, 2)))
        assert model.dead_rows == (1, 3)
        assert model.dead_pes == ((1, 0), (2, 2))
        assert model.has_permanent_faults

    def test_mask_for_deterministic(self):
        a = FaultModel(seed=7, dead_pe_rate=0.1).mask_for(16)
        b = FaultModel(seed=7, dead_pe_rate=0.1).mask_for(16)
        assert a == b

    def test_mask_for_seed_sensitivity(self):
        a = FaultModel(seed=1, dead_pe_rate=0.2).mask_for(16)
        b = FaultModel(seed=2, dead_pe_rate=0.2).mask_for(16)
        assert a != b

    def test_masks_nested_across_rates(self):
        # One fixed stream: dead iff u < rate, monotone in rate.
        low = FaultModel(seed=5, dead_pe_rate=0.05).mask_for(16)
        high = FaultModel(seed=5, dead_pe_rate=0.20).mask_for(16)
        assert low.dead <= high.dead

    def test_explicit_and_sampled_combined(self):
        mask = FaultModel(seed=5, dead_pe_rate=0.1, dead_rows=(0,)).mask_for(8)
        assert all(mask.is_dead(0, c) for c in range(8))

    def test_sampled_rate_roughly_matches(self):
        mask = FaultModel(seed=11, dead_pe_rate=0.1).mask_for(32)
        rate = mask.num_dead / (32 * 32)
        assert 0.05 < rate < 0.16

    def test_describe_mentions_active_faults(self):
        text = FaultModel(seed=9, bitflip_rate=0.01, dead_rows=(2,)).describe()
        assert "seed=9" in text and "bitflip_rate" in text and "dead_rows" in text


class TestTransientFlip:
    def test_zero_rate_never_flips(self):
        assert transient_flip(0, "neuron", 1, 2, 3, 4, 0.0) is None

    def test_pure_function_of_arguments(self):
        args = (42, "kernel", 3, 1, 17, 9, 0.5)
        assert transient_flip(*args) == transient_flip(*args)

    def test_sensitive_to_every_argument(self):
        base = (42, "neuron", 1, 2, 3, 4, 1.0)
        baseline = transient_flip(*base)
        variants = [
            (43, "neuron", 1, 2, 3, 4, 1.0),
            (42, "kernel", 1, 2, 3, 4, 1.0),
            (42, "neuron", 2, 2, 3, 4, 1.0),
            (42, "neuron", 1, 3, 3, 4, 1.0),
            (42, "neuron", 1, 2, 4, 4, 1.0),
            (42, "neuron", 1, 2, 3, 5, 1.0),
        ]
        # rate=1.0 always flips; the chosen bit differs for at least one
        # variant (hash sensitivity, not a fixed bit).
        bits = {transient_flip(*v) for v in variants}
        assert all(b is not None for b in bits)
        assert len(bits | {baseline}) > 1

    def test_rate_statistics(self):
        rate = 0.1
        hits = sum(
            transient_flip(3, "neuron", 0, 0, coord, seq, rate) is not None
            for coord in range(50)
            for seq in range(1, 41)
        )
        assert 120 < hits < 280  # ~200 expected over 2000 trials

    def test_flip_is_mantissa_only(self):
        for seq in range(1, 200):
            bit = transient_flip(1, "neuron", 0, 0, 0, seq, 1.0)
            assert 0 <= bit < 52


class TestApplyFlip:
    def test_roundtrip_involution(self):
        value = 1.37
        flipped = apply_flip(value, 13)
        assert flipped != value
        assert apply_flip(flipped, 13) == value

    def test_result_always_finite(self):
        for bit in range(52):
            assert math.isfinite(apply_flip(-2.5, bit))
            assert math.isfinite(apply_flip(1e300, bit))

    def test_bit_range_enforced(self):
        with pytest.raises(ConfigurationError):
            apply_flip(1.0, 52)
        with pytest.raises(ConfigurationError):
            apply_flip(1.0, -1)
