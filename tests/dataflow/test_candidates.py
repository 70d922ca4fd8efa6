"""Regression suite for the vectorized candidate-enumeration path.

Pins the two invariants the batched DSE engine rests on:

* candidate lists are duplicate-free and Pareto-minimal (every triple is
  a "useful" unrolling — dropping it to the next smaller useful value
  would change the ceil-division step count);
* the batched mapper returns *identical* mappings to the full-candidate
  reference DP in ``tests/dse_oracle.py`` — factors, cycles, and relayout
  decisions — across workloads, array dims, and fault masks.
"""

import pytest

from repro.arch import ArchConfig
from repro.dataflow import map_network
from repro.dataflow.mapper import candidate_array, clear_mapping_cache
from repro.dataflow.rectangular import map_layer_rect
from repro.dataflow.unrolling import useful_values
from repro.errors import MappingError
from repro.faults.model import FaultModel
from repro.nn import ConvLayer
from repro.nn.workloads import all_workloads
from tests import dse_oracle as oracle
from tests.dse_oracle import iter_triples


SPACES = [
    ((3, 5, 5), 16, (3, 5, 5)),
    ((6, 28, 28), 16, (6, 28, 28)),
    ((16, 10, 10), 64, (16, 6, 6)),
    ((96, 55, 55), 256, (96, 55, 55)),
    ((1, 1, 1), 4, (1, 1, 1)),
    ((7, 9, 3), 33, (7, 4, 3)),
]


class TestCandidateEnumeration:
    @pytest.mark.parametrize("dims,limit,caps", SPACES)
    def test_unique_and_sorted(self, dims, limit, caps):
        arr = candidate_array(dims, limit, caps)
        triples = [tuple(int(v) for v in row) for row in arr]
        assert len(triples) == len(set(triples)), "duplicate candidates"
        assert triples == sorted(triples), "candidates not in canonical order"

    @pytest.mark.parametrize("dims,limit,caps", SPACES)
    def test_matches_legacy_enumeration(self, dims, limit, caps):
        arr = candidate_array(dims, limit, caps)
        triples = [tuple(int(v) for v in row) for row in arr]
        legacy = sorted(set(iter_triples(dims, limit, caps)))
        assert triples == legacy

    @pytest.mark.parametrize("dims,limit,caps", SPACES)
    def test_pareto_minimal(self, dims, limit, caps):
        """Every coordinate is a useful value: shrinking it to the next
        smaller useful value would change ``ceil(dim / t)``."""
        arr = candidate_array(dims, limit, caps)
        for axis in range(3):
            useful = set(useful_values(dims[axis], dims[axis]))
            assert set(int(v) for v in arr[:, axis]) <= useful

    @pytest.mark.parametrize("dims,limit,caps", SPACES)
    def test_constraints_respected(self, dims, limit, caps):
        arr = candidate_array(dims, limit, caps)
        products = arr[:, 0] * arr[:, 1] * arr[:, 2]
        assert int(products.max(initial=0)) <= limit
        for axis in range(3):
            assert int(arr[:, axis].max(initial=0)) <= caps[axis]

    def test_read_only(self):
        arr = candidate_array((3, 5, 5), 16, (3, 5, 5))
        with pytest.raises(ValueError):
            arr[0, 0] = 99

    def test_invalid_inputs_rejected(self):
        with pytest.raises(MappingError):
            candidate_array((3, 5, 5), 0, (3, 5, 5))
        with pytest.raises(MappingError):
            candidate_array((3, 5, 5), 16, (0, 5, 5))


class TestBatchedScalarIdentity:
    """The batched mapper against the scalar reference DP (the oracle)."""

    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_network_mappings_identical(self, dim):
        clear_mapping_cache()
        for network in all_workloads():
            fast = oracle.mapping_trace(map_network(network, dim))
            assert fast == oracle.map_network(network, dim), network.name

    def test_fault_masked_mappings_identical(self):
        mask = FaultModel(seed=7, dead_pe_rate=0.05, dead_rows=(3,)).mask_for(16)
        clear_mapping_cache()
        for network in all_workloads():
            fast = oracle.mapping_trace(map_network(network, 16, mask=mask))
            assert fast == oracle.map_network(network, 16, mask), network.name

    def test_rectangular_identical(self):
        layers = [
            ConvLayer("a", in_maps=3, out_maps=12, out_size=14, kernel=5),
            ConvLayer("b", in_maps=16, out_maps=16, out_size=10, kernel=3),
            ConvLayer("c", in_maps=1, out_maps=4, out_size=24, kernel=7),
        ]
        shapes = [(4, 64), (16, 16), (64, 4), (8, 32)]
        for layer in layers:
            for rows, cols in shapes:
                fast = map_layer_rect(layer, rows, cols)
                best_in, fin = oracle.best_input(layer, cols)
                best_out = oracle.best_output(layer, rows)
                assert oracle.factor_triples(fast.factors) == (best_in, best_out)
                assert fast.compute_cycles == fin * oracle.steps(
                    oracle.out_dims(layer), best_out
                )

    def test_simulation_results_identical(self):
        """End-to-end: every simulated FlexFlow layer costs exactly the
        reference DP's compute plus relayout cycles."""
        from repro.accelerators import make_accelerator

        network = next(iter(all_workloads()))
        config = ArchConfig()
        clear_mapping_cache()
        result = make_accelerator("flexflow", config).simulate_network(network)
        _, trace = oracle.map_network(network, config.array_dim)
        expected = [
            oracle.steps(oracle.in_dims(r.layer), tin)
            * oracle.steps(oracle.out_dims(r.layer), tout)
            + relayout
            for r, (tin, tout, relayout) in zip(result.layers, trace)
        ]
        assert [r.cycles for r in result.layers] == expected
