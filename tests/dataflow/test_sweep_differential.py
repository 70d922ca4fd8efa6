"""Differential test: the one-pass sweeps against the per-query mappers.

``shape_utilizations`` (behind ``best_aspect_ratio``) and
``network_utilization_by_styles`` enumerate each CONV layer side once and
answer every array shape or processing style as a mask over that one
table.  Their oracles are the single-query mappers they replaced:

* per-shape totals summed from ``map_layer_rect``, and the best shape
  picked from them in ``aspect_ratio_candidates`` order with a strict
  ``>``, over budgets with square and non-square factorizations and
  ``min_dim`` from 1 to 4;
* per-style totals summed from ``map_layer_with_style`` for all eight
  processing styles, at several array sizes.

Networks come from :func:`repro.nn.synth.random_network`, under the
default :class:`~repro.nn.synth.SynthSpec` or an edge-biased one (1x1
kernels, odd and prime map caps, tiny inputs), plus hand-built networks
the generator never draws: an FC layer as a conv (kernel as large as its
input), a chain of prime map counts, and layers whose intra-row and
inter-row work differ by orders of magnitude.  Without a profile flag
each property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``)
switches to that profile's larger random budget.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dataflow.rectangular import (
    aspect_ratio_candidates,
    best_aspect_ratio,
    map_layer_rect,
    shape_utilizations,
)
from repro.dataflow.restricted import (
    map_layer_with_style,
    network_utilization_by_style,
    network_utilization_by_styles,
)
from repro.dataflow.styles import ProcessingStyle
from repro.errors import MappingError
from repro.nn.layers import ConvLayer, InputSpec, PoolLayer
from repro.nn.network import Network
from repro.nn.synth import SynthSpec, random_network

BUDGETS = (16, 64, 96, 256)
MIN_DIMS = (1, 2, 3, 4)
ARRAY_DIMS = (1, 3, 8, 16, 32)

if settings.get_current_profile_name() == "default":
    budget = settings(max_examples=12, derandomize=True, deadline=None)
else:
    budget = settings(deadline=None)

edge_specs = st.builds(
    SynthSpec,
    min_conv_layers=st.just(1),
    max_conv_layers=st.just(6),
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
    InputSpec(maps=97, size=6),
    [ConvLayer("C1", in_maps=97, out_maps=13, out_size=1, kernel=6)],
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
# Tall then wide: C1's inter-row work (M*S^2) dwarfs its intra-row work
# (N*K^2), a pooled 1x1 conv sits between, and C3 is the reverse.
LOPSIDED = Network(
    "lopsided",
    InputSpec(maps=1, size=60),
    [
        ConvLayer("C1", in_maps=1, out_maps=64, out_size=60, kernel=1),
        PoolLayer("S1", maps=64, in_size=60, out_size=20, window=3),
        ConvLayer("C2", in_maps=64, out_maps=31, out_size=20, kernel=1),
        ConvLayer("C3", in_maps=31, out_maps=2, out_size=1, kernel=20),
    ],
)


def per_shape_utilization(network, pe_budget, rows, cols):
    """MACs / (cycles * budget), cycles summed from ``map_layer_rect``."""
    macs = cycles = 0
    for ctx in network.conv_contexts():
        mapping = map_layer_rect(ctx.layer, rows, cols, tr_tc_bound=ctx.tr_tc_bound)
        macs += ctx.layer.macs
        cycles += mapping.compute_cycles
    return macs / (cycles * pe_budget)


def oracle_best_shape(network, pe_budget, min_dim):
    best, best_util = None, -1.0
    for rows, cols in aspect_ratio_candidates(pe_budget):
        if rows < min_dim or cols < min_dim:
            continue
        utilization = per_shape_utilization(network, pe_budget, rows, cols)
        if utilization > best_util:
            best, best_util = (rows, cols), utilization
    return best, best_util


def per_style_utilization(network, array_dim, style):
    """MAC-weighted utilization from ``map_layer_with_style`` per layer."""
    macs = cycles = 0
    for ctx in network.conv_contexts():
        mapping = map_layer_with_style(
            ctx.layer, array_dim, style, tr_tc_bound=ctx.tr_tc_bound
        )
        macs += ctx.layer.macs
        cycles += mapping.compute_cycles
    return macs / (cycles * array_dim**2) if cycles else 0.0


@budget
@given(network=networks)
@example(network=FC_AS_CONV)
@example(network=PRIME_CHAIN)
@example(network=LOPSIDED)
def test_aspect_sweep_matches_per_shape_mapper(network):
    for pe_budget in BUDGETS:
        side = int(pe_budget**0.5)
        # Every factorization, plus shapes off the budget (the square
        # baseline of a non-square budget is one).
        shapes = aspect_ratio_candidates(pe_budget) + [(side, side), (3, 7)]
        want = [
            per_shape_utilization(network, pe_budget, rows, cols)
            for rows, cols in shapes
        ]
        assert shape_utilizations(network, pe_budget, shapes) == want, pe_budget
        for min_dim in MIN_DIMS:
            assert best_aspect_ratio(
                network, pe_budget, min_dim=min_dim
            ) == oracle_best_shape(network, pe_budget, min_dim), (
                pe_budget, min_dim,
            )


@budget
@given(network=networks)
@example(network=FC_AS_CONV)
@example(network=PRIME_CHAIN)
@example(network=LOPSIDED)
def test_style_sweep_matches_per_style_mapper(network):
    styles = tuple(ProcessingStyle)
    for array_dim in ARRAY_DIMS:
        got = network_utilization_by_styles(network, array_dim, styles)
        assert list(got) == list(styles)
        for style in styles:
            want = per_style_utilization(network, array_dim, style)
            assert got[style] == want, (array_dim, style)
            assert network_utilization_by_style(network, array_dim, style) == want


def test_nonpositive_shape_rejected():
    with pytest.raises(MappingError, match="rows/cols must be positive"):
        shape_utilizations(PRIME_CHAIN, 16, [(4, 4), (0, 16)])
