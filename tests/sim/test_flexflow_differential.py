"""Differential test: the FlexFlow tile and analytic engines vs the reference.

:class:`~repro.sim.FlexFlowFunctionalSim` runs one of three engines.  The
per-PE ``"reference"`` loop is the oracle.  On every generated case the
``"tile"`` engine must give byte-identical outputs (``tobytes()``), equal
``SimTrace`` counters and equal ``parity_report`` span trees, and on
fault-free cases the closed-form ``"analytic"`` engine must give equal
counters.

Cases are biased toward the edges: 1x1 kernels, kernels as large as the
input (``S = 1``), prime map counts, stride 2, zero padding through
``explicit_in_size``, local stores from one word up, and fault models
with dead PEs and transient bit flips.
Without a profile flag each property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``) switches
to that profile's larger random budget.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.arch import ArchConfig
from repro.faults import FaultModel
from repro.nn.layers import ConvLayer
from repro.obs import Tracer
from repro.obs.export import parity_report
from repro.sim import FlexFlowFunctionalSim

if settings.get_current_profile_name() == "default":
    budget = settings(max_examples=25, derandomize=True, deadline=None)
else:
    budget = settings(deadline=None)

PRIMES = (2, 3, 5, 7, 11)


def map_counts(high):
    """1, a prime, or any count up to ``high``."""
    return st.one_of(
        st.sampled_from((1,) + tuple(p for p in PRIMES if p <= high)),
        st.integers(min_value=1, max_value=high),
    )


@st.composite
def layers(draw):
    """A CONV layer; ``S = 1`` with no padding makes ``K`` the input size."""
    stride = draw(st.sampled_from((1, 2)))
    kernel = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=5)))
    out_size = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=6)))
    valid = (out_size - 1) * stride + kernel
    return ConvLayer(
        "diff",
        in_maps=draw(map_counts(7)),
        out_maps=draw(map_counts(11)),
        out_size=out_size,
        kernel=kernel,
        stride=stride,
        explicit_in_size=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=valid))
        ),
    )


#: Local-store sizes in bytes (two per word): one word, a few, the default.
store_bytes = st.one_of(
    st.sampled_from((2, 256)),
    st.integers(min_value=1, max_value=12).map(lambda words: 2 * words),
)


@st.composite
def configs(draw):
    return ArchConfig(
        array_dim=draw(st.sampled_from((4, 8, 16))),
        neuron_store_bytes=draw(store_bytes),
        kernel_store_bytes=draw(store_bytes),
    )


@st.composite
def fault_models(draw):
    """No faults, or dead PEs in the top-left 4x4 corner and bit flips."""
    dead = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2
    ))
    rate = draw(st.sampled_from((0.0, 0.0, 0.05, 0.3)))
    if not dead and rate == 0.0:
        return None
    return FaultModel(
        seed=draw(st.integers(0, 99)), dead_pes=tuple(dead), bitflip_rate=rate
    )


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def tensors(layer, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(layer.input_shape),
        rng.standard_normal(layer.kernel_shape),
    )


def run(engine, config, faults, layer, inputs, kernels):
    """``(outputs, trace, span forest)`` of one traced engine run."""
    tracer = Tracer()
    outputs, trace = FlexFlowFunctionalSim(
        config, engine=engine, fault_model=faults, tracer=tracer
    ).run_layer(layer, inputs, kernels)
    return outputs, trace, parity_report(tracer)


@budget
@given(layer=layers(), config=configs(), faults=fault_models(), seed=seeds)
@example(  # kernel as large as the input, one-word stores
    layer=ConvLayer("kin", in_maps=5, out_maps=3, out_size=1, kernel=4),
    config=ArchConfig(array_dim=4, neuron_store_bytes=2, kernel_store_bytes=2),
    faults=None,
    seed=0,
)
@example(  # 1x1 kernel, stride 2, padded, dead PEs and bit flips
    layer=ConvLayer(
        "1x1", in_maps=7, out_maps=5, out_size=4, kernel=1, stride=2,
        explicit_in_size=6,
    ),
    config=ArchConfig(array_dim=8, neuron_store_bytes=6, kernel_store_bytes=4),
    faults=FaultModel(seed=3, dead_pes=((0, 1), (2, 2)), bitflip_rate=0.3),
    seed=1,
)
def test_tile_matches_reference(layer, config, faults, seed):
    inputs, kernels = tensors(layer, seed)
    tile = run("tile", config, faults, layer, inputs, kernels)
    ref = run("reference", config, faults, layer, inputs, kernels)
    assert tile[0].shape == ref[0].shape
    assert tile[0].tobytes() == ref[0].tobytes()
    assert tile[1].as_dict() == ref[1].as_dict()
    assert tile[2] == ref[2]


@budget
@given(layer=layers(), config=configs(), seed=seeds)
@example(
    layer=ConvLayer(
        "pad", in_maps=3, out_maps=7, out_size=5, kernel=3, explicit_in_size=4
    ),
    config=ArchConfig(array_dim=4, neuron_store_bytes=8, kernel_store_bytes=6),
    seed=2,
)
def test_analytic_counters_match_tile(layer, config, seed):
    inputs, kernels = tensors(layer, seed)
    _, tile, _ = run("tile", config, None, layer, inputs, kernels)
    _, analytic, _ = run("analytic", config, None, layer, inputs, kernels)
    assert analytic.as_dict() == tile.as_dict()
