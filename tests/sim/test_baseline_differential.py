"""Differential test: the three baseline simulators against their oracle.

:class:`~repro.sim.SystolicFunctionalSim`,
:class:`~repro.sim.Mapping2DFunctionalSim` and
:class:`~repro.sim.TilingFunctionalSim` run each machine's schedule once
with the data path carried as NumPy arrays.  ``tests/sim_oracle.py``
replays the same schedule once per map pair, block or output position
with scalar accumulators.  Every generated layer must give byte-identical
outputs (``tobytes()``) and equal ``SimTrace`` counters.

Layers are biased toward the edges: 1x1 kernels, kernels as large as the
input (``S = 1``), prime map counts, up to 20 input maps so tiling tiles
of 8 or more maps occur (where NumPy's pairwise sum changes order), zero
padding through ``explicit_in_size``, stride 2 for tiling, and
2D-Mapping blocks of size 1 and larger than ``S``.
Without a profile flag each property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``) switches
to that profile's larger random budget.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.nn.layers import ConvLayer
from repro.sim import (
    Mapping2DFunctionalSim,
    SystolicFunctionalSim,
    TilingFunctionalSim,
)
from tests import sim_oracle as oracle

if settings.get_current_profile_name() == "default":
    budget = settings(max_examples=25, derandomize=True, deadline=None)
else:
    budget = settings(deadline=None)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def map_counts(high):
    """1, a prime, or any count up to ``high``."""
    return st.one_of(
        st.sampled_from((1,) + tuple(p for p in PRIMES if p <= high)),
        st.integers(min_value=1, max_value=high),
    )


@st.composite
def layers(draw, max_in_maps, max_out_maps, strides=(1,)):
    """A CONV layer; ``S = 1`` with no padding makes ``K`` the input size."""
    stride = draw(st.sampled_from(strides))
    kernel = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=5)))
    out_size = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=6)))
    valid = (out_size - 1) * stride + kernel
    return ConvLayer(
        "diff",
        in_maps=draw(map_counts(max_in_maps)),
        out_maps=draw(map_counts(max_out_maps)),
        out_size=out_size,
        kernel=kernel,
        stride=stride,
        explicit_in_size=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=valid))
        ),
    )


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def tensors(layer, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(layer.input_shape),
        rng.standard_normal(layer.kernel_shape),
    )


def assert_identical(got, want):
    (outputs, trace), (ref_outputs, ref_trace) = got, want
    assert outputs.shape == ref_outputs.shape
    assert outputs.tobytes() == ref_outputs.tobytes()
    assert trace.as_dict() == ref_trace.as_dict()


@budget
@given(layer=layers(max_in_maps=13, max_out_maps=5), seed=seeds)
@example(  # kernel as large as the input, prime map counts
    layer=ConvLayer("kin", in_maps=13, out_maps=2, out_size=1, kernel=5), seed=0
)
@example(layer=ConvLayer("1x1", in_maps=7, out_maps=3, out_size=5, kernel=1), seed=1)
@example(
    layer=ConvLayer(
        "pad", in_maps=3, out_maps=5, out_size=5, kernel=3, explicit_in_size=4
    ),
    seed=2,
)
def test_systolic_matches_oracle(layer, seed):
    inputs, kernels = tensors(layer, seed)
    assert_identical(
        SystolicFunctionalSim().run_layer(layer, inputs, kernels),
        oracle.systolic(layer, inputs, kernels),
    )


@budget
@given(
    layer=layers(max_in_maps=20, max_out_maps=7),
    block=st.one_of(st.sampled_from((1, 16)), st.integers(min_value=1, max_value=7)),
    seed=seeds,
)
@example(
    layer=ConvLayer("b1", in_maps=5, out_maps=3, out_size=4, kernel=3),
    block=1,
    seed=0,
)
@example(
    layer=ConvLayer(
        "big", in_maps=11, out_maps=7, out_size=6, kernel=4, explicit_in_size=7
    ),
    block=16,
    seed=1,
)
@example(
    layer=ConvLayer("part", in_maps=2, out_maps=2, out_size=6, kernel=2),
    block=4,
    seed=2,
)
def test_mapping2d_matches_oracle(layer, block, seed):
    inputs, kernels = tensors(layer, seed)
    assert_identical(
        Mapping2DFunctionalSim(block_size=block).run_layer(layer, inputs, kernels),
        oracle.mapping2d(layer, inputs, kernels, block),
    )


@budget
@given(
    layer=layers(max_in_maps=20, max_out_maps=7, strides=(1, 2)),
    tm=st.one_of(st.sampled_from((1, 16)), st.integers(min_value=1, max_value=7)),
    tn=st.one_of(st.sampled_from((1, 9, 16)), st.integers(min_value=1, max_value=20)),
    seed=seeds,
)
@example(  # Tn tiles of 16 and a 4-wide remainder
    layer=ConvLayer("wide", in_maps=20, out_maps=5, out_size=3, kernel=3),
    tm=2,
    tn=16,
    seed=0,
)
@example(
    layer=ConvLayer(
        "s2pad", in_maps=11, out_maps=3, out_size=4, kernel=3, stride=2,
        explicit_in_size=7,
    ),
    tm=16,
    tn=9,
    seed=1,
)
@example(
    layer=ConvLayer("kin", in_maps=19, out_maps=7, out_size=1, kernel=5),
    tm=3,
    tn=19,
    seed=2,
)
def test_tiling_matches_oracle(layer, tm, tn, seed):
    inputs, kernels = tensors(layer, seed)
    assert_identical(
        TilingFunctionalSim(tm=tm, tn=tn).run_layer(layer, inputs, kernels),
        oracle.tiling(layer, inputs, kernels, tm, tn),
    )
