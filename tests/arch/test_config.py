"""Tests for ArchConfig."""

import pytest

from repro.arch import DEFAULT_CONFIG, KB, ArchConfig
from repro.errors import ConfigurationError


class TestArchConfig:
    def test_default_matches_table5(self):
        cfg = DEFAULT_CONFIG
        assert cfg.array_dim == 16
        assert cfg.num_pes == 256
        assert cfg.neuron_buffer_bytes == 32 * KB
        assert cfg.kernel_buffer_bytes == 32 * KB
        assert cfg.neuron_store_bytes == 256
        assert cfg.kernel_store_bytes == 256
        assert cfg.local_store_bytes_per_pe == 512  # Table 7's 512 B/PE

    def test_nominal_gops(self):
        # 256 PEs x 2 ops x 1 GHz = 512 GOPS, the Figure 16 ceiling.
        assert DEFAULT_CONFIG.nominal_gops == pytest.approx(512.0)

    def test_word_capacities(self):
        cfg = DEFAULT_CONFIG
        assert cfg.neuron_store_words == 128
        assert cfg.kernel_store_words == 128
        assert cfg.neuron_buffer_words == 16 * 1024

    def test_banks_default_to_array_dim(self):
        assert DEFAULT_CONFIG.banks == 16
        assert ArchConfig(array_dim=8).banks == 8
        assert ArchConfig(buffer_banks=4).banks == 4

    def test_pooling_alus_default_to_array_dim(self):
        assert DEFAULT_CONFIG.num_pooling_alus == 16

    def test_scaled_to_scales_buffers_linearly(self):
        big = DEFAULT_CONFIG.scaled_to(32)
        assert big.array_dim == 32
        assert big.neuron_buffer_bytes == 64 * KB
        assert big.banks == 32
        small = DEFAULT_CONFIG.scaled_to(8)
        assert small.neuron_buffer_bytes == 16 * KB

    def test_scaled_to_preserves_local_stores(self):
        big = DEFAULT_CONFIG.scaled_to(64)
        assert big.neuron_store_bytes == 256

    def test_invalid_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(array_dim=0)

    def test_invalid_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(neuron_buffer_bytes=0)

    def test_negative_banks_rejected(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(buffer_banks=-1)


class TestValidation:
    """ArchConfig.__post_init__ rejects malformed configurations."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"array_dim": -4},
            {"array_dim": 2.5},
            {"array_dim": True},
            {"neuron_buffer_bytes": -1},
            {"kernel_buffer_bytes": 0},
            {"neuron_store_bytes": 0},
            {"kernel_store_bytes": -8},
        ],
    )
    def test_bad_sizes_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ArchConfig(**kwargs)

    def test_bad_technology_rejected(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(technology="65nm")

    def test_nonpositive_frequency_rejected(self):
        from dataclasses import replace

        from repro.arch import TSMC65

        with pytest.raises(ConfigurationError):
            ArchConfig(technology=replace(TSMC65, frequency_hz=0.0))

    def test_pe_mask_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(pe_mask={"dead": []})

    def test_pe_mask_dim_mismatch_rejected(self):
        from repro.faults import AvailabilityMask

        mask = AvailabilityMask.from_failures(8, dead_pes=[(0, 0)])
        with pytest.raises(ConfigurationError):
            ArchConfig(array_dim=16, pe_mask=mask)
