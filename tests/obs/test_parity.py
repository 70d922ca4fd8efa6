"""Engine-parity tests: both FlexFlow paths emit identical span trees.

This is the structural layer of the tile-engine equivalence guarantee:
beyond final outputs and counters, the *shape* of the computation —
layer/phase/group span boundaries and the counter deltas inside each —
must match the per-PE reference loop exactly.  The loop runs with the
tile engine's table bound at 0 (the ``per_pe_loop`` fixture).
"""

import pytest

from repro.arch import ArchConfig
from repro.nn import ConvLayer, get_workload, make_inputs, make_kernels
from repro.obs import Tracer
from repro.obs.export import parity_report
from repro.obs.profile import breakdown_rows, format_breakdown, trace_workload
from repro.sim import FlexFlowFunctionalSim

#: Two Table 1 workloads, small enough for the per-PE reference loop.
WORKLOADS = ["PV", "LeNet-5"]
DIM = 8


def _tile(name):
    return trace_workload(get_workload(name), array_dim=DIM)


def _traces(name, per_pe_loop):
    with per_pe_loop():
        ref = _tile(name)
    return _tile(name), ref


@pytest.mark.parametrize("name", WORKLOADS)
class TestEngineSpanParity:
    def test_parity_trees_identical(self, name, per_pe_loop):
        tile, ref = _traces(name, per_pe_loop)
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

    def test_breakdown_tables_identical(self, name, per_pe_loop):
        tile, ref = _traces(name, per_pe_loop)
        assert breakdown_rows(tile.tracer, DIM) == breakdown_rows(
            ref.tracer, DIM
        )
        assert format_breakdown(tile) == format_breakdown(ref)


class TestEngineLabels:
    def test_spans_record_which_engine_ran(self, per_pe_loop):
        tile, ref = _traces("LeNet-5", per_pe_loop)
        assert tile.tracer.roots[0].labels["engine"] == "tile"
        assert ref.tracer.roots[0].labels["engine"] == "reference"

    def test_table_bound_picks_the_path(self, per_pe_loop):
        """One layer, twice: the bound alone changes the ``engine`` label,
        never the output bytes, counters or parity tree."""
        layer = ConvLayer("C", in_maps=3, out_maps=6, out_size=5, kernel=3)
        inputs, kernels = make_inputs(layer), make_kernels(layer)

        def run():
            tracer = Tracer()
            outputs, trace = FlexFlowFunctionalSim(
                ArchConfig(array_dim=DIM), tracer=tracer
            ).run_layer(layer, inputs, kernels)
            label = tracer.roots[0].labels["engine"]
            return label, outputs.tobytes(), trace.as_dict(), parity_report(tracer)

        tile = run()
        with per_pe_loop():
            ref = run()
        assert (tile[0], ref[0]) == ("tile", "reference")
        assert tile[1:] == ref[1:]


class TestOccupancy:
    def test_occupancy_within_unit_interval(self):
        trace = _tile("PV")
        for row in trace.rows:
            assert 0.0 < row["occupancy"] <= 1.0
