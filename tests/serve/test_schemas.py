"""Request validation and content-addressed key derivation."""

import pytest

from repro.errors import ConfigurationError, SpecificationError
from repro.serve.schemas import (
    MAX_DSE_DIMS,
    MAX_NETWORK_SOURCE,
    MAX_SWEEP_POINTS,
    parse_request,
    parse_sweep,
)

TINY_NET = "network Tiny\ninput 1 8\nconv C1 maps 2 kernel 3\n"


class TestParseRequest:
    def test_simulate_defaults(self):
        req = parse_request("simulate", {"workload": "LeNet-5"})
        assert req.kind == "simulate"
        assert req.spec == {"workload": "LeNet-5", "dim": 16, "arch": "flexflow"}
        assert req.label == "simulate:flexflow:LeNet-5@16"
        assert len(req.key) == 64

    def test_map_and_dse_specs(self):
        assert parse_request("map", {"workload": "PV", "dim": 8}).spec == {
            "workload": "PV", "dim": 8,
        }
        req = parse_request("dse", {"workload": "PV", "dims": [4, 8]})
        assert req.spec == {"workload": "PV", "dims": [4, 8]}
        assert req.label == "dse:PV@4,8"

    def test_identical_bodies_share_a_key(self):
        a = parse_request("simulate", {"workload": "PV", "dim": 8})
        b = parse_request("simulate", {"workload": "PV", "dim": 8})
        assert a.key == b.key

    def test_key_separates_kind_dim_arch_workload(self):
        base = parse_request("simulate", {"workload": "PV", "dim": 8})
        assert base.key != parse_request("map", {"workload": "PV", "dim": 8}).key
        assert base.key != parse_request(
            "simulate", {"workload": "PV", "dim": 16}
        ).key
        assert base.key != parse_request(
            "simulate", {"workload": "PV", "dim": 8, "arch": "systolic"}
        ).key
        assert base.key != parse_request(
            "simulate", {"workload": "FR", "dim": 8}
        ).key

    def test_key_hashes_resolved_network_not_spelling(self):
        # Comments and trailing whitespace parse away, so two textually
        # different inline sources coalesce onto one key (and one cache
        # entry) — the serve layer is content-addressed end to end.
        spelled = TINY_NET.replace(
            "kernel 3\n", "kernel 3   # the only layer\n"
        )
        a = parse_request("map", {"network": TINY_NET, "dim": 8})
        b = parse_request("map", {"network": spelled, "dim": 8})
        assert a.spec != b.spec
        assert a.key == b.key

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError, match="unknown request kind"):
            parse_request("mapp", {"workload": "PV"})

    def test_body_must_be_object(self):
        with pytest.raises(SpecificationError, match="JSON object"):
            parse_request("map", ["PV"])

    def test_exactly_one_network_spelling(self):
        with pytest.raises(SpecificationError, match="exactly one"):
            parse_request("map", {})
        with pytest.raises(SpecificationError, match="exactly one"):
            parse_request(
                "map", {"workload": "PV", "network": TINY_NET}
            )

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecificationError, match="unknown workload"):
            parse_request("map", {"workload": "ResNet"})

    def test_bad_network_source_rejected(self):
        with pytest.raises(SpecificationError):
            parse_request("map", {"network": 42})
        with pytest.raises(SpecificationError, match="exceeds"):
            parse_request(
                "map", {"network": "x" * (MAX_NETWORK_SOURCE + 1)}
            )

    def test_dim_validation(self):
        with pytest.raises(SpecificationError, match="integer"):
            parse_request("map", {"workload": "PV", "dim": "8"})
        with pytest.raises(SpecificationError, match="integer"):
            parse_request("map", {"workload": "PV", "dim": True})
        with pytest.raises(ConfigurationError, match=r"\[1, 256\]"):
            parse_request("map", {"workload": "PV", "dim": 0})
        with pytest.raises(ConfigurationError, match=r"\[1, 256\]"):
            parse_request("map", {"workload": "PV", "dim": 512})

    def test_dims_validation(self):
        with pytest.raises(SpecificationError, match="non-empty list"):
            parse_request("dse", {"workload": "PV", "dims": []})
        with pytest.raises(ConfigurationError, match="limited"):
            parse_request(
                "dse",
                {"workload": "PV", "dims": list(range(1, MAX_DSE_DIMS + 2))},
            )
        with pytest.raises(SpecificationError, match="lists 8 more than once"):
            parse_request("dse", {"workload": "PV", "dims": [8, 16, 8]})

    def test_unknown_arch_rejected(self):
        with pytest.raises(SpecificationError, match="unknown arch"):
            parse_request("simulate", {"workload": "PV", "arch": "tpu"})

    def test_dse_per_layer_defaults(self):
        req = parse_request("dse_per_layer", {"workload": "AlexNet"})
        assert req.kind == "dse_per_layer"
        assert req.spec == {
            "workload": "AlexNet", "dim": 16, "reconfig_scale": 1.0,
        }
        assert req.label == "dse_per_layer:AlexNet@16"

    def test_dse_per_layer_scale_validation(self):
        with pytest.raises(SpecificationError, match="number"):
            parse_request(
                "dse_per_layer",
                {"workload": "PV", "reconfig_scale": "free"},
            )
        with pytest.raises(SpecificationError, match="number"):
            parse_request(
                "dse_per_layer", {"workload": "PV", "reconfig_scale": True},
            )
        with pytest.raises(ConfigurationError, match="reconfig_scale"):
            parse_request(
                "dse_per_layer", {"workload": "PV", "reconfig_scale": -0.5},
            )

    def test_dse_per_layer_key_separates_scale(self):
        base = parse_request("dse_per_layer", {"workload": "PV"})
        scaled = parse_request(
            "dse_per_layer", {"workload": "PV", "reconfig_scale": 0.0}
        )
        int_scale = parse_request(
            "dse_per_layer", {"workload": "PV", "reconfig_scale": 1}
        )
        assert base.key != scaled.key
        assert base.key == int_scale.key  # 1 and 1.0 coalesce


#: One misspelled field per request kind, with the fields that kind reads.
UNKNOWN_FIELDS = [
    ("map", {"workload": "PV", "dims": [8]}, "dims",
     "workload, network, dim"),
    ("simulate", {"workload": "PV", "architecture": "tiling"},
     "architecture", "workload, network, dim, arch"),
    ("dse", {"workload": "PV", "dim": 8}, "dim", "workload, network, dims"),
    ("dse_per_layer", {"workload": "PV", "dim": 8, "reconfig_cost": 0},
     "reconfig_cost", "workload, network, dim, reconfig_scale"),
]


class TestUnknownFields:
    """A misspelled field is a 400, never a 200 at the field's default."""

    @pytest.mark.parametrize(
        "kind, body, field, valid", UNKNOWN_FIELDS,
        ids=[case[0] for case in UNKNOWN_FIELDS],
    )
    def test_unknown_field_rejected(self, kind, body, field, valid):
        with pytest.raises(SpecificationError) as request:
            parse_request(kind, body)
        assert str(request.value) == (
            f"unknown field {field!r} in a {kind} body; valid fields: {valid}"
        )
        points = [{"workload": "PV"}, {"kind": kind, **body}]
        with pytest.raises(SpecificationError) as point:
            parse_sweep({"points": points})
        assert str(point.value) == (
            f"points[1]: unknown field {field!r} in a {kind} point body;"
            f" valid fields: {valid}, kind"
        )

    def test_sweep_body_takes_only_points(self):
        with pytest.raises(SpecificationError) as excinfo:
            parse_sweep({"points": [{"workload": "PV"}], "kind": "map"})
        assert str(excinfo.value) == (
            "unknown field 'kind' in a sweep body; valid fields: points"
        )


class TestParseSweep:
    def test_points_default_to_simulate(self):
        reqs = parse_sweep(
            {"points": [{"workload": "PV", "dim": 4},
                        {"kind": "map", "workload": "PV", "dim": 4}]}
        )
        assert [r.kind for r in reqs] == ["simulate", "map"]

    def test_point_errors_carry_their_index(self):
        with pytest.raises(SpecificationError, match=r"points\[1\]:"):
            parse_sweep(
                {"points": [{"workload": "PV"}, {"workload": "nope"}]}
            )

    def test_empty_and_oversized_sweeps_rejected(self):
        with pytest.raises(SpecificationError, match="non-empty"):
            parse_sweep({"points": []})
        with pytest.raises(ConfigurationError, match="limited"):
            parse_sweep(
                {"points": [{"workload": "PV"}] * (MAX_SWEEP_POINTS + 1)}
            )
