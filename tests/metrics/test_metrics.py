"""Tests for the metrics helpers."""

import pytest

from repro.arch import DEFAULT_CONFIG
from repro.errors import ConfigurationError
from repro.experiments.common import run_all_architectures
from repro.metrics import (
    achievable_fraction,
    efficiency_ratio_matrix,
    nominal_gops,
    scalability_sweep,
    speedup_matrix,
    transmission_volume_kb,
    utilization_sensitivity,
    volume_ratio_matrix,
)
from repro.nn import get_workload


@pytest.fixture(scope="module")
def lenet_results():
    return run_all_architectures(get_workload("LeNet-5"), DEFAULT_CONFIG)


class TestPerformance:
    def test_nominal_gops_256_pes(self):
        assert nominal_gops(256, 1e9) == pytest.approx(512.0)

    def test_nominal_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            nominal_gops(0, 1e9)

    def test_achievable_fraction_bounded(self, lenet_results):
        for result in lenet_results.values():
            frac = achievable_fraction(result)
            assert 0.0 < frac <= 1.0

    def test_speedup_matrix_excludes_reference(self, lenet_results):
        speedups = speedup_matrix(lenet_results)
        assert set(speedups) == {"systolic", "mapping2d", "tiling"}
        assert all(s > 1 for s in speedups.values())

    def test_speedup_unknown_reference(self, lenet_results):
        with pytest.raises(ConfigurationError):
            speedup_matrix(lenet_results, reference="gpu")


class TestEnergy:
    def test_efficiency_ratios_favor_flexflow(self, lenet_results):
        ratios = efficiency_ratio_matrix(lenet_results)
        assert all(r > 1 for r in ratios.values())

    def test_energy_per_mac_positive(self, lenet_results):
        for result in lenet_results.values():
            energy_pj = result.power_report().total_energy_pj
            assert energy_pj / result.total_macs > 0


class TestTraffic:
    def test_volume_conversions(self, lenet_results):
        result = lenet_results["flexflow"]
        words = result.buffer_traffic_words
        assert transmission_volume_kb(result) == pytest.approx(words * 2 / 1024)

    def test_reuse_factor_highest_for_flexflow(self, lenet_results):
        # MACs per buffer word moved: higher means better reuse.
        reuse = {
            kind: result.total_macs / result.buffer_traffic_words
            for kind, result in lenet_results.items()
        }
        assert reuse["flexflow"] == max(reuse.values())

    def test_volume_ratio_matrix(self, lenet_results):
        ratios = volume_ratio_matrix(lenet_results)
        assert all(r > 1 for r in ratios.values())

    def test_dram_per_op_small(self, lenet_results):
        assert 0 < lenet_results["flexflow"].dram_accesses_per_op < 0.1


class TestScalability:
    @pytest.fixture(scope="class")
    def points(self):
        return scalability_sweep(get_workload("AlexNet"), scales=(8, 16, 32))

    def test_sweep_covers_grid(self, points):
        assert len(points) == 3 * 4

    def test_flexflow_least_sensitive(self, points):
        sensitivities = {
            kind: utilization_sensitivity(points, kind)
            for kind in ("systolic", "mapping2d", "tiling", "flexflow")
        }
        assert abs(sensitivities["flexflow"]) < 0.15
        assert sensitivities["mapping2d"] > sensitivities["flexflow"]

    def test_empty_scales_rejected(self):
        with pytest.raises(ConfigurationError):
            scalability_sweep(get_workload("PV"), scales=())

    def test_sensitivity_needs_two_scales(self):
        points = scalability_sweep(get_workload("PV"), scales=(8,))
        with pytest.raises(ConfigurationError):
            utilization_sensitivity(points, "flexflow")


class TestEnergyDelayProduct:
    def test_flexflow_wins_edp_by_more_than_either_metric(self, lenet_results):
        def edp(result):
            # Energy x runtime, in joule-seconds.
            energy_j = result.power_report().total_energy_pj * 1e-12
            return energy_j * result.runtime_s

        reference = edp(lenet_results["flexflow"])
        eff = efficiency_ratio_matrix(lenet_results)
        for kind in eff:
            ratio = edp(lenet_results[kind]) / reference
            assert ratio > 1.0
            # EDP compounds the speed and efficiency wins.
            assert ratio >= eff[kind]
