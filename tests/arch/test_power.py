"""Tests for the activity-based power model."""

import pytest

from repro.arch import ActivityCounts, DEFAULT_CONFIG, compute_power
from repro.errors import ConfigurationError


def toy_counts(**overrides):
    base = dict(
        cycles=1000,
        mac_ops=200_000,
        active_pe_cycles=200_000,
        neuron_buffer_reads=16_000,
        neuron_buffer_writes=4_000,
        neuron_buffer_partial_reads=1_000,
        kernel_buffer_reads=8_000,
        local_store_reads=400_000,
        local_store_writes=20_000,
        bus_word_mm=50_000.0,
        dram_accesses=2_000,
        pool_ops=1_000,
    )
    base.update(overrides)
    return ActivityCounts(**base)


class TestActivityCounts:
    def test_addition_sums_fieldwise(self):
        a = ActivityCounts(cycles=10, mac_ops=5, bus_word_mm=1.5)
        b = ActivityCounts(cycles=20, mac_ops=7, bus_word_mm=0.5)
        c = a + b
        assert c.cycles == 30
        assert c.mac_ops == 12
        assert c.bus_word_mm == pytest.approx(2.0)

    def test_buffer_words_total(self):
        counts = ActivityCounts(
            neuron_buffer_reads=3,
            neuron_buffer_writes=2,
            neuron_buffer_partial_reads=1,
            kernel_buffer_reads=4,
        )
        assert counts.buffer_words_total == 10

    def test_default_is_zero(self):
        zero = ActivityCounts()
        assert zero.cycles == 0 and zero.buffer_words_total == 0


class TestComputePower:
    def test_runtime_from_cycles(self):
        report = compute_power(toy_counts(), "flexflow", DEFAULT_CONFIG)
        assert report.runtime_s == pytest.approx(1000 * 1e-9)

    def test_energy_components_positive(self):
        report = compute_power(toy_counts(), "flexflow", DEFAULT_CONFIG)
        for name in ("mac", "pe_control", "local_store", "neuron_in_buffer"):
            assert report.component_energy_pj[name] > 0

    def test_more_macs_more_power(self):
        low = compute_power(toy_counts(mac_ops=100_000), "flexflow", DEFAULT_CONFIG)
        high = compute_power(toy_counts(mac_ops=250_000), "flexflow", DEFAULT_CONFIG)
        assert high.average_power_mw > low.average_power_mw

    def test_breakdown_sums_to_one(self):
        report = compute_power(toy_counts(), "flexflow", DEFAULT_CONFIG)
        assert sum(report.breakdown().values()) == pytest.approx(1.0)

    def test_table6_row_groups_components(self):
        report = compute_power(toy_counts(), "flexflow", DEFAULT_CONFIG)
        row = report.table6_row()
        assert set(row) == {"P_nein", "P_neout", "P_kerin", "P_com"}
        assert row["P_com"] > row["P_nein"]  # compute engine dominates

    def test_dram_energy_separate_from_chip(self):
        with_dram = compute_power(toy_counts(), "flexflow", DEFAULT_CONFIG)
        without = compute_power(
            toy_counts(dram_accesses=0), "flexflow", DEFAULT_CONFIG
        )
        assert with_dram.dram_energy_pj > 0
        assert with_dram.total_energy_pj == pytest.approx(without.total_energy_pj)

    def test_static_power_scales_with_area(self):
        small = compute_power(toy_counts(), "flexflow", DEFAULT_CONFIG.scaled_to(8))
        big = compute_power(toy_counts(), "flexflow", DEFAULT_CONFIG.scaled_to(32))
        assert big.static_power_mw > small.static_power_mw

    def test_zero_cycles_zero_power(self):
        report = compute_power(ActivityCounts(), "flexflow", DEFAULT_CONFIG)
        assert report.average_power_mw == 0.0
        assert report.component_power_mw("mac") == 0.0

    def test_negative_cycles_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_power(ActivityCounts(cycles=-1), "flexflow", DEFAULT_CONFIG)
