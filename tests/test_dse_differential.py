"""Differential test: every DSE fast path against the plain-Python oracle.

Networks come from :func:`repro.nn.synth.random_network`, drawn under the
default :class:`~repro.nn.synth.SynthSpec` or an edge-biased one: 1-8
conv layers, map counts clamped at an odd or prime cap up to 97, kernels
up to 11, and inputs from 4.  Two hand-built networks add what the
generator never draws: a kernel as large as its input (an FC layer as a
conv) and a chain of prime map counts.  Each network is checked at every
``D`` in :data:`DIMS`:

* ``map_network``, healthy and under a seeded 10% dead-PE mask, with
  ``REPRO_KERNELS`` forced to ``numpy`` and (when a C compiler works)
  ``cext``;
* ``map_layer`` and ``map_layer_rect``, the greedy single-layer pick;
* ``solve_per_layer`` at every reconfiguration scale in :data:`SCALES`.

Factors, relayouts, totals and ``plan_payload`` must equal what
``tests/dse_oracle.py`` computes.  Without a profile flag each property
runs a small derandomized slice; ``--hypothesis-profile=ci`` (registered
in ``tests/conftest.py``) switches to that profile's larger random budget.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dataflow import map_layer, map_network
from repro.dataflow.mapper import clear_mapping_cache
from repro.dataflow.rectangular import map_layer_rect
from repro.dse import plan_payload, solve_per_layer
from repro.errors import MappingError
from repro.faults.model import FaultModel
from repro.kernels import ENV_KERNELS, cext, reset_kernels
from repro.nn.layers import ConvLayer, InputSpec
from repro.nn.network import Network
from repro.nn.synth import SynthSpec, random_network
from tests import dse_oracle as oracle

DIMS = (3, 4, 8, 16, 32)
SCALES = (0.0, 1.0, 4.0, 1e6)

if settings.get_current_profile_name() == "default":
    budget = settings(max_examples=15, derandomize=True, deadline=None)
else:
    budget = settings(deadline=None)

edge_specs = st.builds(
    SynthSpec,
    min_conv_layers=st.just(1),
    max_conv_layers=st.just(8),
    min_input_size=st.just(4),
    max_input_size=st.integers(min_value=4, max_value=40),
    max_maps=st.sampled_from((1, 3, 5, 7, 13, 31, 97)),
    max_kernel=st.integers(min_value=1, max_value=11),
)
networks = st.builds(
    random_network,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.just(SynthSpec()), edge_specs),
)

FC_AS_CONV = Network(
    "fc-as-conv",
    InputSpec(maps=3, size=11),
    [ConvLayer("C1", in_maps=3, out_maps=97, out_size=1, kernel=11)],
)
PRIME_CHAIN = Network(
    "prime-chain",
    InputSpec(maps=1, size=31),
    [
        ConvLayer("C1", in_maps=1, out_maps=7, out_size=29, kernel=3),
        ConvLayer("C2", in_maps=7, out_maps=13, out_size=19, kernel=11),
        ConvLayer("C3", in_maps=13, out_maps=97, out_size=17, kernel=3),
        ConvLayer("C4", in_maps=97, out_maps=5, out_size=7, kernel=11),
    ],
)


@pytest.fixture(scope="module")
def backends():
    """``numpy``, plus ``cext`` when the machine can build it."""
    try:
        cext.load()
    except cext.KernelBuildError:
        return ("numpy",)
    return ("numpy", "cext")


@contextmanager
def forced_kernels(backend):
    """``REPRO_KERNELS`` pinned for the block, with memos cleared around it."""
    saved = os.environ.get(ENV_KERNELS)
    os.environ[ENV_KERNELS] = backend
    reset_kernels()
    clear_mapping_cache()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV_KERNELS, None)
        else:
            os.environ[ENV_KERNELS] = saved
        reset_kernels()
        clear_mapping_cache()


@budget
@given(network=networks, fault_seed=st.integers(min_value=0, max_value=2**16))
@example(network=FC_AS_CONV, fault_seed=0)
@example(network=PRIME_CHAIN, fault_seed=1)
def test_map_network_matches_oracle(backends, network, fault_seed):
    faults = FaultModel(seed=fault_seed, dead_pe_rate=0.1)
    cases = [
        (dim, mask) for dim in DIMS for mask in (None, faults.mask_for(dim))
    ]
    expected = [oracle.map_network(network, dim, mask) for dim, mask in cases]
    for backend in backends:
        with forced_kernels(backend):
            for (dim, mask), want in zip(cases, expected):
                if want is None:
                    with pytest.raises(MappingError):
                        map_network(network, dim, mask=mask)
                    continue
                got = oracle.mapping_trace(map_network(network, dim, mask=mask))
                assert got == want, (backend, dim, mask)


@budget
@given(network=networks)
@example(network=FC_AS_CONV)
@example(network=PRIME_CHAIN)
def test_greedy_layer_mappings_match_oracle(backends, network):
    for backend in backends:
        with forced_kernels(backend):
            for ctx in network.conv_contexts():
                layer, bound = ctx.layer, ctx.tr_tc_bound
                for dim in DIMS:
                    want = (
                        oracle.best_input(layer, dim)[0],
                        oracle.best_output(layer, dim, bound),
                    )
                    got = map_layer(layer, dim, tr_tc_bound=bound).factors
                    assert oracle.factor_triples(got) == want, (backend, layer, dim)
                    rows, cols = dim, 2 * dim
                    want = (
                        oracle.best_input(layer, cols)[0],
                        oracle.best_output(layer, rows, bound),
                    )
                    got = map_layer_rect(layer, rows, cols, tr_tc_bound=bound)
                    assert oracle.factor_triples(got.factors) == want, (
                        backend, layer, dim,
                    )


@budget
@given(network=networks)
@example(network=FC_AS_CONV)
@example(network=PRIME_CHAIN)
def test_solve_per_layer_matches_oracle(backends, network):
    expected = {
        (dim, scale): oracle.solve_per_layer(network, dim, scale)
        for dim in DIMS
        for scale in SCALES
    }
    for backend in backends:
        with forced_kernels(backend):
            for (dim, scale), want in expected.items():
                got = solve_per_layer(network, dim, reconfig_scale=scale)
                assert got.choices == want.choices, (backend, dim, scale)
                assert plan_payload(got) == plan_payload(want), (
                    backend, dim, scale,
                )


#: Networks of one to three CONV layers, small enough to score every
#: per-layer assignment at dims 3 and 4.
small_networks = st.builds(
    random_network,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.builds(
        SynthSpec,
        min_conv_layers=st.just(1),
        max_conv_layers=st.integers(min_value=1, max_value=3),
        min_input_size=st.just(4),
        max_input_size=st.integers(min_value=4, max_value=16),
        max_maps=st.sampled_from((1, 2, 3, 5, 7, 13)),
        max_kernel=st.integers(min_value=1, max_value=5),
    ),
)
#: At dim 3 its optimal plan re-lays out C2's inputs: the coupled triple
#: C1's outputs offer takes 9 steps, the free one 3.
RELAYOUT_PAIR = Network(
    "relayout-pair",
    InputSpec(maps=1, size=4),
    [
        ConvLayer("C1", in_maps=1, out_maps=1, out_size=4, kernel=1),
        ConvLayer("C2", in_maps=1, out_maps=4, out_size=2, kernel=3),
    ],
)


@budget
@given(network=small_networks)
@example(network=FC_AS_CONV)
@example(network=RELAYOUT_PAIR)
def test_solve_per_layer_is_the_brute_force_optimum(backends, network):
    """The per-layer plan is an optimum of every assignment, scored in full
    (:func:`tests.dse_oracle.per_layer_assignments`)."""
    for dim in (3, 4):
        for scale in SCALES:
            best, optimal = oracle.per_layer_assignments(network, dim, scale)
            assert oracle.solve_per_layer(network, dim, scale).total_cycles == best
            for backend in backends:
                with forced_kernels(backend):
                    plan = solve_per_layer(network, dim, reconfig_scale=scale)
                assert plan.total_cycles == best, (backend, dim, scale)
                assigned = tuple(
                    (c.family, c.params, c.in_triple, c.out_triple)
                    for c in plan.choices
                )
                assert assigned in optimal, (backend, dim, scale)
