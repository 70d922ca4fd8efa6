"""Tests for the per-layer reconfigurable-dataflow solver."""

import pytest

from repro.arch.config import ArchConfig
from repro.dataflow.mapper import map_network
from repro.dse import (
    EXTERN_FAMILIES,
    FAMILY_ORDER,
    ReconfigCostModel,
    extern_layer_cycles,
    family_param_states,
    format_plan,
    plan_payload,
    solve_per_layer,
)
from repro.errors import ConfigurationError
from repro.nn import WORKLOAD_NAMES, get_workload
from tests import dse_oracle as oracle


class TestExternStates:
    def test_grid_covers_every_family(self):
        layers = get_workload("AlexNet").conv_layers
        states = family_param_states(layers, 16)
        assert {s.family for s in states} == set(EXTERN_FAMILIES)

    def test_family_order_is_flexflow_first(self):
        assert FAMILY_ORDER[0] == "flexflow"
        assert set(FAMILY_ORDER[1:]) == set(EXTERN_FAMILIES)

    def test_closed_forms_match_accelerator_models(self):
        """extern_layer_cycles must equal the simulated healthy cycles."""
        from repro.accelerators import (
            Mapping2DAccelerator,
            PipelinedSystolicAccelerator,
            SystolicAccelerator,
            TilingAccelerator,
        )

        config = ArchConfig(array_dim=16)
        for name in ("PV", "AlexNet"):
            layers = get_workload(name).conv_layers
            for state in family_param_states(layers, 16):
                if state.family == "systolic":
                    acc = SystolicAccelerator(
                        config, array_size=state.params[0]
                    )
                elif state.family == "pipeline":
                    acc = PipelinedSystolicAccelerator(
                        config, array_size=state.params[0]
                    )
                elif state.family == "mapping2d":
                    acc = Mapping2DAccelerator(
                        config, block_size=state.params[0]
                    )
                else:  # tiling
                    acc = TilingAccelerator(
                        config, tm=state.params[0], tn=state.params[1]
                    )
                for layer in layers:
                    assert (
                        extern_layer_cycles(state, layer, 256)
                        == acc.simulate_layer(layer).cycles
                    ), (state, layer.name)


class TestReconfigCostModel:
    def test_scale_zero_is_free(self):
        c1 = get_workload("AlexNet").conv_layers[0]
        model = ReconfigCostModel(16, 0.0)
        assert model.family_switch_cycles(c1) == 0
        assert model.param_switch_cycles(c1) == 0

    def test_family_costs_more_than_param(self):
        c1 = get_workload("AlexNet").conv_layers[0]
        model = ReconfigCostModel(16)
        assert model.family_switch_cycles(c1) > model.param_switch_cycles(c1)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            ReconfigCostModel(0)
        with pytest.raises(ConfigurationError):
            ReconfigCostModel(16, -1.0)
        with pytest.raises(ConfigurationError):
            ReconfigCostModel(16).switch_cycles(
                "bogus", get_workload("PV").conv_layers[0]
            )

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="finite"):
            ReconfigCostModel(16, scale)


class TestSolver:
    def test_plan_never_loses_to_any_fixed_dataflow(self):
        for name in WORKLOAD_NAMES:
            plan = solve_per_layer(get_workload(name), 16)
            for family, fixed in plan.fixed_totals.items():
                assert plan.total_cycles <= fixed, (name, family)

    def test_compute_plus_reconfig_adds_up(self):
        plan = solve_per_layer(get_workload("AlexNet"), 16)
        assert plan.total_cycles == sum(
            c.compute_cycles + c.reconfig_cycles for c in plan.choices
        )

    def test_alexnet_mixes_families_and_wins_strictly(self):
        """The headline claim: >= 2 families, beats every fixed total."""
        plan = solve_per_layer(get_workload("AlexNet"), 16)
        assert len(plan.families) >= 2
        assert plan.total_cycles < min(plan.fixed_totals.values())
        assert plan.speedup_vs_best_fixed > 1.0

    def test_small_workloads_collapse_to_flexflow(self):
        for name in ("PV", "FR", "LeNet-5", "HG"):
            plan = solve_per_layer(get_workload(name), 16)
            assert plan.families == ("flexflow",)
            assert plan.switches == 0
            assert (
                plan.total_cycles
                == map_network(get_workload(name), 16).total_cycles
            )

    def test_free_switching_never_worse_than_priced(self):
        for name in ("AlexNet", "PV"):
            network = get_workload(name)
            free = solve_per_layer(network, 16, reconfig_scale=0.0)
            priced = solve_per_layer(network, 16, reconfig_scale=1.0)
            assert free.total_cycles <= priced.total_cycles

    def test_huge_switch_cost_collapses_to_best_fixed_family(self):
        plan = solve_per_layer(
            get_workload("AlexNet"), 16, reconfig_scale=1e6
        )
        assert len(plan.families) == 1

    def test_pure_flexflow_plan_matches_mapper_at_any_scale(self):
        """FlexFlow-internal relayout is not scaled: the pure-FlexFlow
        path stays bit-identical to map_network.  (Scale 0 is excluded:
        with free switching LeNet-5 genuinely profits from a mixed
        plan, which is the test above.)"""
        network = get_workload("LeNet-5")
        mapped = map_network(network, 16).total_cycles
        for scale in (1.0, 100.0):
            plan = solve_per_layer(network, 16, reconfig_scale=scale)
            assert plan.families == ("flexflow",)
            assert plan.total_cycles == mapped

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_per_layer(get_workload("PV"), 0)
        with pytest.raises(ConfigurationError):
            solve_per_layer(get_workload("PV"), 16, reconfig_scale=-1.0)


class TestEngineParity:
    """The batched DP and the scalar reference DP (the oracle) must
    return identical plans."""

    @pytest.mark.parametrize("name", list(WORKLOAD_NAMES))
    @pytest.mark.parametrize("dim", [8, 16])
    def test_plans_bit_identical(self, name, dim):
        network = get_workload(name)
        batched = solve_per_layer(network, dim)
        scalar = oracle.solve_per_layer(network, dim)
        assert format_plan(batched) == format_plan(scalar)
        assert plan_payload(batched) == plan_payload(scalar)

    def test_parity_across_scales(self):
        network = get_workload("AlexNet")
        for scale in (0.0, 0.5, 4.0):
            batched = solve_per_layer(network, 16, reconfig_scale=scale)
            scalar = oracle.solve_per_layer(network, 16, scale)
            assert plan_payload(batched) == plan_payload(scalar), scale


class TestOutputs:
    def test_format_plan_structure(self):
        plan = solve_per_layer(get_workload("AlexNet"), 16)
        text = format_plan(plan)
        assert "per-layer dataflow plan: AlexNet @ 16x16" in text
        assert "<- best fixed" in text
        assert "speedup vs best fixed" in text
        for choice in plan.choices:
            assert choice.layer.name in text

    def test_plan_payload_round_trips_to_json(self):
        import json

        plan = solve_per_layer(get_workload("VGG-11"), 16)
        payload = json.loads(json.dumps(plan_payload(plan)))
        assert payload["network"] == "VGG-11"
        assert payload["total_cycles"] == plan.total_cycles
        assert len(payload["layers"]) == len(plan.choices)
        assert set(payload["fixed_totals"]) == set(FAMILY_ORDER)

    def test_solver_emits_decision_spans(self):
        from repro.obs.tracer import Tracer, tracing

        tracer = Tracer(enabled=True)
        with tracing(tracer):
            solve_per_layer(get_workload("PV"), 16)
        names = [span.name for span in tracer.iter_spans()]
        assert "dse_per_layer:PV" in names
        assert any(name.startswith("choice:") for name in names)
