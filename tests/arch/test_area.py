"""Tests for the area model against Section 6.2.1's published figures."""

import pytest

from repro.arch import ARCH_KINDS, DEFAULT_CONFIG, all_area_reports, area_report, pe_area_mm2
from repro.errors import ConfigurationError

# Section 6.2.1's layout totals at 16x16 / Table 5 provisioning.
PAPER_AREAS = {
    "systolic": 3.52,
    "mapping2d": 3.46,
    "tiling": 3.21,
    "flexflow": 3.89,
}


class TestCalibration:
    @pytest.mark.parametrize("kind,paper_mm2", sorted(PAPER_AREAS.items()))
    def test_total_matches_paper_within_5pct(self, kind, paper_mm2):
        report = area_report(kind, DEFAULT_CONFIG)
        assert report.total_mm2 == pytest.approx(paper_mm2, rel=0.05)

    def test_flexflow_is_largest(self):
        # "The area of FlexFlow is slightly larger than other baselines
        # since the local stores ... dictate part of area budget."
        reports = all_area_reports(DEFAULT_CONFIG)
        flexflow = reports["flexflow"].total_mm2
        for kind in ("systolic", "mapping2d", "tiling"):
            assert flexflow > reports[kind].total_mm2

    def test_flexflow_pe_array_dominated_by_local_stores(self):
        report = area_report("flexflow", DEFAULT_CONFIG)
        assert report.components["pe_array"] > report.components["neuron_buffers"]


class TestStructure:
    def test_components_present(self):
        report = area_report("flexflow", DEFAULT_CONFIG)
        for name in (
            "pe_array",
            "neuron_buffers",
            "kernel_buffer",
            "interconnect",
            "pooling_unit",
            "decoder",
        ):
            assert name in report.components
            assert report.components[name] >= 0

    def test_flexflow_pe_bigger_than_tiling_pe(self):
        # FlexFlow PEs carry two 256 B local stores; Tiling lanes carry a
        # single register.
        assert pe_area_mm2("flexflow", DEFAULT_CONFIG) > pe_area_mm2(
            "tiling", DEFAULT_CONFIG
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            area_report("tpu", DEFAULT_CONFIG)
        with pytest.raises(ConfigurationError):
            pe_area_mm2("tpu", DEFAULT_CONFIG)


class TestScaling:
    def test_area_grows_with_array(self):
        for kind in ARCH_KINDS:
            small = area_report(kind, DEFAULT_CONFIG.scaled_to(8)).total_mm2
            big = area_report(kind, DEFAULT_CONFIG.scaled_to(64)).total_mm2
            assert big > small

    def test_figure19c_ordering_at_64(self):
        # At 64x64 the paper shows FlexFlow's area below 2D-Mapping and
        # Tiling thanks to its simplified interconnect.
        cfg = DEFAULT_CONFIG.scaled_to(64)
        flexflow = area_report("flexflow", cfg).total_mm2
        assert flexflow < area_report("mapping2d", cfg).total_mm2
        assert flexflow < area_report("tiling", cfg).total_mm2
