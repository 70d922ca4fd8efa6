"""Engine-parity tests: the tile engine and the per-PE machine emit
identical span trees.

This is the structural layer of the tile-engine equivalence guarantee:
beyond final outputs and counters, the *shape* of the computation —
layer/phase/group span boundaries and the counter deltas inside each —
must match the per-PE machine of ``tests/sim_oracle.py`` exactly.
"""

import pytest

from repro.nn import get_workload
from repro.obs.export import parity_report
from repro.obs.profile import breakdown_rows, format_breakdown, trace_workload
from tests.sim_oracle import trace_workload_per_pe

#: Two Table 1 workloads, small enough for the per-PE machine.
WORKLOADS = ["PV", "LeNet-5"]
DIM = 8


def _tile(name):
    return trace_workload(get_workload(name), array_dim=DIM)


def _traces(name):
    return _tile(name), trace_workload_per_pe(get_workload(name), DIM)


@pytest.mark.parametrize("name", WORKLOADS)
class TestEngineSpanParity:
    def test_parity_trees_identical(self, name):
        tile, ref = _traces(name)
        assert parity_report(tile.tracer) == parity_report(ref.tracer)

    def test_span_tree_shape(self, name):
        tile = _tile(name)
        network = get_workload(name)
        roots = tile.tracer.roots
        assert [r.name for r in roots] == [
            f"conv:{layer.name}" for layer in network.conv_layers
        ]
        for root in roots:
            phases = [c.name for c in root.children]
            assert phases == ["phase:load", "phase:compute", "phase:drain"]
            compute = root.children[1]
            assert compute.children, "compute phase must contain group spans"
            assert all(
                child.name.startswith("group:m0=")
                for child in compute.children
            )

    def test_group_deltas_sum_to_compute_totals(self, name):
        tile = _tile(name)
        for root in tile.tracer.roots:
            compute = root.children[1]
            assert (
                sum(g.counters["mac_ops"] for g in compute.children)
                == compute.counters["mac_ops"]
            )
            assert (
                sum(g.cycles for g in compute.children) == compute.cycles
            )

    def test_layer_cycles_are_phase_sum(self, name):
        tile = _tile(name)
        for root in tile.tracer.roots:
            assert root.cycles == sum(c.cycles for c in root.children)

    def test_breakdown_tables_identical(self, name):
        tile, ref = _traces(name)
        assert breakdown_rows(tile.tracer, DIM) == breakdown_rows(
            ref.tracer, DIM
        )
        assert format_breakdown(tile) == format_breakdown(ref)


class TestOccupancy:
    def test_occupancy_within_unit_interval(self):
        trace = _tile("PV")
        for row in trace.rows:
            assert 0.0 < row["occupancy"] <= 1.0
