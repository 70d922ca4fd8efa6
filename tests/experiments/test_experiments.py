"""Tests for the experiment harness: schema and paper-shape assertions.

Each experiment must emit its expected columns, and the qualitative
orderings the paper reports must hold in the regenerated data.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS, run_experiment
from repro.experiments.common import ExperimentResult


@pytest.fixture(scope="module")
def results():
    # Run each experiment once; they are deterministic.
    return {eid: run_experiment(eid) for eid in ALL_EXPERIMENTS}


class TestHarness:
    def test_all_experiments_present(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig01",
            "table03",
            "table04",
            "area",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "table06",
            "fig19",
            "table07",
            "intercon",
            "ablation_styles",
            "ablation_coupling",
            "ablation_localstore",
            "bandwidth",
            "dse",
            "dse_per_layer",
            "fc",
            "aspect",
            "layers",
            "verify",
            "sensitivity",
            "headline",
            "motivation",
            "fault_degradation",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_every_experiment_formats(self, results):
        for result in results.values():
            table = result.format_table()
            assert result.experiment_id in table
            assert "---" in table

    def test_empty_result_formats(self):
        empty = ExperimentResult("x", "t", [])
        assert "no rows" in empty.format_table()


class TestFig01:
    def test_some_baseline_below_half_nominal(self, results):
        rows = {r["architecture"]: r for r in results["fig01"].rows}
        assert rows["Tiling"]["achievable_fraction"] < 0.15
        assert rows["FlexFlow"]["achievable_fraction"] > 0.8


class TestTable03:
    def test_derivable_entries_match_paper(self, results):
        # All entries except the four documented discrepancies must land
        # within 2 points of the paper.
        skip = {
            ("FR", "C3 on C1-opt", "systolic_pct"),
            ("HG", "C3 on C1-opt", "systolic_pct"),
            ("HG", "C3 on C1-opt", "mapping2d_pct"),  # suspected column swap
            ("HG", "C3 on C1-opt", "tiling_pct"),
        }
        pairs = {
            "systolic_pct": "paper_systolic",
            "mapping2d_pct": "paper_2d",
            "tiling_pct": "paper_tiling",
        }
        for row in results["table03"].rows:
            for ours, paper in pairs.items():
                if (row["workload"], row["direction"], ours) in skip:
                    continue
                assert row[ours] == pytest.approx(row[paper], abs=2.0), (
                    row["workload"],
                    row["direction"],
                    ours,
                )

    def test_four_workloads_both_directions(self, results):
        assert len(results["table03"].rows) == 8


class TestTable04:
    def test_c1_and_c3_of_four_workloads(self, results):
        assert len(results["table04"].rows) == 8

    def test_pv_and_lenet_c1_exact(self, results):
        rows = {(r["workload"], r["layer"]): r for r in results["table04"].rows}
        assert rows[("PV", "C1")]["factors"] == rows[("PV", "C1")]["paper"]
        assert (
            rows[("LeNet-5", "C1")]["factors"]
            == rows[("LeNet-5", "C1")]["paper"]
        )

    def test_all_utilizations_bounded(self, results):
        for row in results["table04"].rows:
            assert 0 < row["ut"] <= 1.0


class TestArea:
    def test_within_5pct_of_paper(self, results):
        for row in results["area"].rows:
            assert row["area_mm2"] == pytest.approx(row["paper_mm2"], rel=0.05)


class TestFig15:
    def test_flexflow_wins_everywhere(self, results):
        for row in results["fig15"].rows:
            ff = row["FlexFlow"]
            assert ff > 0.74
            for kind in ("Systolic", "2D-Mapping", "Tiling"):
                assert ff > row[kind]


class TestFig16:
    def test_speedups_in_paper_bands(self, results):
        for row in results["fig16"].rows:
            assert row["FlexFlow_gops"] > 380
            if row["workload"] in ("PV", "FR", "HG"):
                assert row["speedup_vs_systolic"] > 2
                assert row["speedup_vs_tiling"] > 10


class TestFig17:
    def test_orderings(self, results):
        for row in results["fig17"].rows:
            assert row["FlexFlow_kb"] < row["Systolic_kb"]
            assert row["FlexFlow_kb"] < row["2D-Mapping_kb"]
            assert row["Tiling_kb"] > row["Systolic_kb"]
            assert row["Tiling_kb"] > row["2D-Mapping_kb"]


class TestFig18:
    def test_flexflow_best_efficiency_and_lowest_energy(self, results):
        for row in results["fig18"].rows:
            assert row["eff_vs_systolic"] > 1
            assert row["eff_vs_2d"] > 1
            assert row["eff_vs_tiling"] > 1.4
            ff_energy = row["FlexFlow_uj"]
            for label in ("Systolic", "2D-Mapping", "Tiling"):
                assert ff_energy < row[f"{label}_uj"]


class TestTable06:
    def test_compute_engine_dominates(self, results):
        for row in results["table06"].rows:
            assert row["P_com_pct"] > 79


class TestFig19:
    def test_flexflow_stable_baselines_collapse(self, results):
        rows = results["fig19"].rows
        ff = {r["scale"]: r for r in rows if r["architecture"] == "FlexFlow"}
        assert ff["64x64"]["utilization"] > 0.85
        t2d = {r["scale"]: r for r in rows if r["architecture"] == "2D-Mapping"}
        assert t2d["64x64"]["utilization"] < t2d["8x8"]["utilization"] / 2

    def test_flexflow_above_85pct_at_every_scale(self, results):
        ff = [
            r for r in results["fig19"].rows if r["architecture"] == "FlexFlow"
        ]
        assert len(ff) == 4
        assert min(r["utilization"] for r in ff) > 0.85

    def test_flexflow_area_below_rigid_flexible_archs_at_64(self, results):
        rows = [r for r in results["fig19"].rows if r["scale"] == "64x64"]
        by_arch = {r["architecture"]: r["area_mm2"] for r in rows}
        assert by_arch["FlexFlow"] < by_arch["2D-Mapping"]
        assert by_arch["FlexFlow"] < by_arch["Tiling"]


class TestTable07:
    def test_flexflow_row_near_paper(self, results):
        rows = {r["accelerator"]: r for r in results["table07"].rows}
        ours = rows["FlexFlow (ours)"]
        assert ours["area_mm2"] == pytest.approx(3.89, rel=0.05)
        assert float(ours["dram_acc_per_op"]) == pytest.approx(0.0049, rel=0.3)

    def test_beats_eyeriss_reusability(self, results):
        rows = {r["accelerator"]: r for r in results["table07"].rows}
        assert float(rows["FlexFlow (ours)"]["dram_acc_per_op"]) < 0.006


class TestInterconnect:
    def test_share_declines_and_matches_paper(self, results):
        rows = results["intercon"].rows
        shares = [r["interconnect_share_pct"] for r in rows]
        assert shares[0] > shares[1] > shares[2]
        for row in rows:
            if not math.isnan(row["paper_share_pct"]):
                assert row["interconnect_share_pct"] == pytest.approx(
                    row["paper_share_pct"], abs=2.0
                )


class TestDse:
    def test_best_scale_tracks_workload_size(self, results):
        # Small nets peak at small scales; AlexNet keeps scaling.
        by_name = {r["workload"]: r for r in results["dse"].rows}
        assert by_name["AlexNet"]["best_scale"] in ("32x32", "64x64")
        assert by_name["PV"]["best_scale"] in ("8x8", "16x16")


class TestAspect:
    def test_best_shape_never_loses_to_square(self, results):
        for row in results["aspect"].rows:
            assert row["gain"] >= 1.0 - 1e-9, row["workload"]


class TestLayers:
    def test_flexflow_at_least_every_baseline_per_layer(self, results):
        for row in results["layers"].rows:
            best_baseline = max(
                row["Systolic_util"], row["2D-Mapping_util"], row["Tiling_util"]
            )
            assert row["FlexFlow_util"] >= best_baseline - 1e-9, row["layer"]


class TestSensitivity:
    def test_orderings_hold_on_full_grid(self, results):
        for row in results["sensitivity"].rows:
            assert row["best_utilization"]
            assert row["best_efficiency"]
            assert row["lowest_energy"]


class TestHeadline:
    def test_no_baseline_outperforms_flexflow(self, results):
        row = next(
            r
            for r in results["headline"].rows
            if r["claim"] == "performance speedup over baselines"
        )
        low = float(row["measured"].split("x")[0])
        assert low >= 1.0


class TestMotivation:
    def test_one_summary_per_workload(self, results):
        summaries = [
            r for r in results["motivation"].rows if r["layer"] == "(summary)"
        ]
        assert len(summaries) == 6
