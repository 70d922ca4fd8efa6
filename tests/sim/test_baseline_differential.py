"""Differential test: the three baseline simulators against their oracle.

:class:`~repro.sim.SystolicFunctionalSim`,
:class:`~repro.sim.Mapping2DFunctionalSim` and
:class:`~repro.sim.TilingFunctionalSim` run each machine's schedule once
with the data path carried as NumPy arrays.  ``tests/sim_oracle.py``
replays the same schedule once per map pair, block or output position
with scalar accumulators.  Every generated layer must give byte-identical
outputs (``tobytes()``) and equal ``SimTrace`` counters.  Operands come as
``float64``, ``float32`` or ``int64``; every dtype must give the
``float64`` run of the same values.

Layers are biased toward the edges: 1x1 kernels, kernels as large as the
input (``S = 1``), prime map counts, up to 20 input maps so tiling tiles
of 8 or more maps occur (where NumPy's pairwise sum changes order), zero
padding through ``explicit_in_size``, stride 2 for tiling, and
2D-Mapping blocks of size 1 and larger than ``S``.
Without a profile flag each property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``) switches
to that profile's larger random budget.

Every property runs under both kernel backends: ``cext`` (one compiled
call per layer) and ``numpy`` (the simulators' NumPy machines).  The
``cext`` leg skips when no C compiler is present.
"""

import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SpecificationError
from repro.kernels import ENV_KERNELS, reset_kernels
from repro.kernels import cext as cext_mod
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


@pytest.fixture(scope="module", params=("numpy", "cext"))
def backend(request):
    """A kernel backend this machine can run."""
    if request.param == "cext":
        try:
            cext_mod.load()
        except cext_mod.KernelBuildError as exc:
            pytest.skip(f"C backend unavailable: {exc}")
    return request.param


@contextlib.contextmanager
def kernels_backend(name):
    """``REPRO_KERNELS`` set to ``name`` for the block."""
    with mock.patch.dict(os.environ, {ENV_KERNELS: name}):
        reset_kernels()
        try:
            yield
        finally:
            reset_kernels()


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

#: Operand dtypes; each computes on its float64 values.
dtypes = st.sampled_from((np.float64, np.float32, np.int64))


def tensors(layer, seed, dtype=np.float64):
    """Standard-normal operands as ``dtype`` (integers: scaled, rounded)."""
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal(layer.input_shape)
    kernels = rng.standard_normal(layer.kernel_shape)
    if np.dtype(dtype).kind == "i":
        inputs, kernels = np.rint(4 * inputs), np.rint(4 * kernels)
    return inputs.astype(dtype), kernels.astype(dtype)


def assert_identical(got, want):
    (outputs, trace), (ref_outputs, ref_trace) = got, want
    assert outputs.shape == ref_outputs.shape
    assert outputs.tobytes() == ref_outputs.tobytes()
    assert trace.as_dict() == ref_trace.as_dict()


def check_layer(backend, sim, layer, seed, dtype, oracle_run):
    """``sim`` on ``dtype`` operands equals its float64 run and the oracle."""
    inputs, kernels = tensors(layer, seed, dtype)
    wide = inputs.astype(np.float64), kernels.astype(np.float64)
    with kernels_backend(backend):
        got = sim.run_layer(layer, inputs, kernels)
        assert_identical(got, sim.run_layer(layer, *wide))
    assert_identical(got, oracle_run(*wide))


@budget
@given(layer=layers(max_in_maps=13, max_out_maps=5), seed=seeds, dtype=dtypes)
@example(  # kernel as large as the input, prime map counts
    layer=ConvLayer("kin", in_maps=13, out_maps=2, out_size=1, kernel=5),
    seed=0,
    dtype=np.float64,
)
@example(
    layer=ConvLayer("1x1", in_maps=7, out_maps=3, out_size=5, kernel=1),
    seed=1,
    dtype=np.float64,
)
@example(
    layer=ConvLayer(
        "pad", in_maps=3, out_maps=5, out_size=5, kernel=3, explicit_in_size=4
    ),
    seed=2,
    dtype=np.float32,
)
def test_systolic_matches_oracle(backend, layer, seed, dtype):
    check_layer(
        backend, SystolicFunctionalSim(), layer, seed, dtype,
        lambda inputs, kernels: oracle.systolic(layer, inputs, kernels),
    )


@budget
@given(
    layer=layers(max_in_maps=20, max_out_maps=7),
    block=st.one_of(st.sampled_from((1, 16)), st.integers(min_value=1, max_value=7)),
    seed=seeds,
    dtype=dtypes,
)
@example(
    layer=ConvLayer("b1", in_maps=5, out_maps=3, out_size=4, kernel=3),
    block=1,
    seed=0,
    dtype=np.float64,
)
@example(
    layer=ConvLayer(
        "big", in_maps=11, out_maps=7, out_size=6, kernel=4, explicit_in_size=7
    ),
    block=16,
    seed=1,
    dtype=np.float32,
)
@example(
    layer=ConvLayer("part", in_maps=2, out_maps=2, out_size=6, kernel=2),
    block=4,
    seed=2,
    dtype=np.int64,
)
def test_mapping2d_matches_oracle(backend, layer, block, seed, dtype):
    check_layer(
        backend, Mapping2DFunctionalSim(block_size=block), layer, seed, dtype,
        lambda inputs, kernels: oracle.mapping2d(layer, inputs, kernels, block),
    )


@budget
@given(
    layer=layers(max_in_maps=20, max_out_maps=7, strides=(1, 2)),
    tm=st.one_of(st.sampled_from((1, 16)), st.integers(min_value=1, max_value=7)),
    tn=st.one_of(st.sampled_from((1, 9, 16)), st.integers(min_value=1, max_value=20)),
    seed=seeds,
    dtype=dtypes,
)
@example(  # Tn tiles of 16 and a 4-wide remainder
    layer=ConvLayer("wide", in_maps=20, out_maps=5, out_size=3, kernel=3),
    tm=2,
    tn=16,
    seed=0,
    dtype=np.float32,
)
@example(
    layer=ConvLayer(
        "s2pad", in_maps=11, out_maps=3, out_size=4, kernel=3, stride=2,
        explicit_in_size=7,
    ),
    tm=16,
    tn=9,
    seed=1,
    dtype=np.float64,
)
@example(
    layer=ConvLayer("kin", in_maps=19, out_maps=7, out_size=1, kernel=5),
    tm=3,
    tn=19,
    seed=2,
    dtype=np.int64,
)
def test_tiling_matches_oracle(backend, layer, tm, tn, seed, dtype):
    check_layer(
        backend, TilingFunctionalSim(tm=tm, tn=tn), layer, seed, dtype,
        lambda inputs, kernels: oracle.tiling(layer, inputs, kernels, tm, tn),
    )


@pytest.mark.parametrize(
    "sim",
    [SystolicFunctionalSim(), Mapping2DFunctionalSim(), TilingFunctionalSim()],
    ids=lambda sim: type(sim).__name__,
)
@pytest.mark.parametrize(
    "operand,dtype", [("inputs", np.complex128), ("kernels", np.str_)]
)
def test_complex_and_non_numeric_operands_rejected(
    backend, sim, operand, dtype
):
    layer = ConvLayer("c", in_maps=2, out_maps=3, out_size=4, kernel=3)
    inputs, kernels = tensors(layer, 0)
    operands = {"inputs": inputs, "kernels": kernels}
    operands[operand] = operands[operand].astype(dtype)
    name = str(operands[operand].dtype)
    with kernels_backend(backend):
        with pytest.raises(SpecificationError, match=f"{operand} dtype {name}"):
            sim.run_layer(layer, **operands)
