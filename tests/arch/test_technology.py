"""Tests for the 65 nm technology model."""

import pytest

from repro.arch import TSMC65, TechnologyModel
from repro.errors import ConfigurationError


class TestTechnologyModel:
    def test_default_is_1ghz_16bit(self):
        assert TSMC65.frequency_hz == 1e9
        assert TSMC65.word_bits == 16
        assert TSMC65.word_bytes == 2

    def test_mac_energy_is_mult_plus_add(self):
        assert TSMC65.mac_energy_pj == pytest.approx(
            TSMC65.mult_energy_pj + TSMC65.add_energy_pj
        )

    def test_cycle_time(self):
        assert TSMC65.cycle_time_s == pytest.approx(1e-9)

    def test_sram_access_energy_grows_with_capacity(self):
        small = TSMC65.sram_access_energy_pj(1024)
        large = TSMC65.sram_access_energy_pj(32 * 1024)
        assert large > small

    def test_sub_kb_store_cheaper_with_256b_floor(self):
        # Per-PE 256 B stores are register-file-like: cheaper per access
        # than a 1 KB macro, with the scaling law floored at 256 B.
        assert TSMC65.sram_access_energy_pj(256) < TSMC65.sram_access_energy_pj(1024)
        assert TSMC65.sram_access_energy_pj(128) == pytest.approx(
            TSMC65.sram_access_energy_pj(256)
        )

    def test_dram_much_more_expensive_than_sram(self):
        sram = TSMC65.sram_access_energy_pj(32 * 1024)
        assert TSMC65.dram_access_energy_pj > 20 * sram

    def test_sram_area_scales_superlinearly_in_total_but_denser_per_kb(self):
        one = TSMC65.sram_area_mm2(1024)
        thirty_two = TSMC65.sram_area_mm2(32 * 1024)
        assert thirty_two > one  # bigger macro, bigger area
        assert thirty_two < 32 * one  # but denser per KB

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            TSMC65.sram_access_energy_pj(0)
        with pytest.raises(ConfigurationError):
            TSMC65.sram_area_mm2(-1)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            TechnologyModel(frequency_hz=0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            TechnologyModel(mult_energy_pj=-1.0)

    def test_scaled_returns_modified_copy(self):
        doubled = TSMC65.scaled(frequency_hz=2e9)
        assert doubled.frequency_hz == 2e9
        assert TSMC65.frequency_hz == 1e9
        assert doubled.mult_energy_pj == TSMC65.mult_energy_pj
