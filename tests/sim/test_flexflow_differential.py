"""Differential test: the FlexFlow tile engine vs the per-PE machine.

:class:`~repro.sim.FlexFlowFunctionalSim` runs every layer on its tile
engine; :class:`tests.sim_oracle.FlexFlowPerPELoop` runs the literal
per-PE machine and is the oracle.  On every generated case the tile
engine must give byte-identical outputs
(``tobytes()``), equal ``SimTrace`` counters and equal ``parity_report``
span trees, and on fault-free cases the closed-form
:func:`~repro.sim.analytic.analytic_flexflow_trace` must give equal
counters.  Operands come as ``float64``, ``float32`` or ``int64``; every
dtype must give the ``float64`` run of the same values, on both paths.

Cases are biased toward the edges: 1x1 kernels, kernels as large as the
input (``S = 1``), prime map counts, stride 2, zero padding through
``explicit_in_size``, local stores from one word up, and fault models
with dead PEs and transient bit flips.
Without a profile flag each property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``) switches
to that profile's larger random budget.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch import ArchConfig
from repro.dataflow import map_layer
from repro.errors import SpecificationError
from repro.faults import FaultModel
from repro.nn.layers import ConvLayer
from repro.obs import Tracer
from repro.obs.export import parity_report
from repro.sim import FlexFlowFunctionalSim, analytic_flexflow_trace
from tests.sim.test_baseline_differential import dtypes, seeds, tensors
from tests.sim_oracle import FlexFlowPerPELoop

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


#: A padded layer whose float32 runs, with and without bit flips, are
#: pinned below: operand dtype once gave the two paths different sums.
PADDED = ConvLayer(
    "x", in_maps=3, out_maps=4, out_size=5, kernel=3, explicit_in_size=6
)


def run(config, faults, layer, inputs, kernels, sim=FlexFlowFunctionalSim):
    """Output shape and bytes, counters and span forest of one traced run."""
    tracer = Tracer()
    outputs, trace = sim(
        config, fault_model=faults, tracer=tracer
    ).run_layer(layer, inputs, kernels)
    return outputs.shape, outputs.tobytes(), trace.as_dict(), parity_report(tracer)


@budget
@given(
    layer=layers(), config=configs(), faults=fault_models(), seed=seeds,
    dtype=dtypes,
)
@example(  # kernel as large as the input, one-word stores
    layer=ConvLayer("kin", in_maps=5, out_maps=3, out_size=1, kernel=4),
    config=ArchConfig(array_dim=4, neuron_store_bytes=2, kernel_store_bytes=2),
    faults=None,
    seed=0,
    dtype=np.float64,
)
@example(  # 1x1 kernel, stride 2, padded, dead PEs and bit flips
    layer=ConvLayer(
        "1x1", in_maps=7, out_maps=5, out_size=4, kernel=1, stride=2,
        explicit_in_size=6,
    ),
    config=ArchConfig(array_dim=8, neuron_store_bytes=6, kernel_store_bytes=4),
    faults=FaultModel(seed=3, dead_pes=((0, 1), (2, 2)), bitflip_rate=0.3),
    seed=1,
    dtype=np.float64,
)
@example(
    layer=PADDED, config=ArchConfig(array_dim=8), faults=None, seed=0,
    dtype=np.float32,
)
@example(
    layer=PADDED,
    config=ArchConfig(array_dim=8),
    faults=FaultModel(seed=5, bitflip_rate=0.05),
    seed=0,
    dtype=np.float32,
)
def test_tile_matches_reference(layer, config, faults, seed, dtype):
    inputs, kernels = tensors(layer, seed, dtype)
    tile = run(config, faults, layer, inputs, kernels)
    ref = run(config, faults, layer, inputs, kernels, sim=FlexFlowPerPELoop)
    assert tile == ref
    wide = run(
        config, faults, layer,
        inputs.astype(np.float64), kernels.astype(np.float64),
    )
    assert tile == wide


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
    _, _, tile, _ = run(config, None, layer, inputs, kernels)
    analytic = analytic_flexflow_trace(
        layer,
        map_layer(layer, config.array_dim).factors,
        neuron_store_words=config.neuron_store_words,
        kernel_store_words=config.kernel_store_words,
    )
    assert analytic.as_dict() == tile


@pytest.mark.parametrize(
    "operand,dtype", [("inputs", np.complex128), ("kernels", np.str_)]
)
def test_complex_and_non_numeric_operands_rejected(operand, dtype):
    inputs, kernels = tensors(PADDED, 0)
    operands = {"inputs": inputs, "kernels": kernels}
    operands[operand] = operands[operand].astype(dtype)
    name = str(operands[operand].dtype)
    for sim in (FlexFlowFunctionalSim, FlexFlowPerPELoop):
        with pytest.raises(
            SpecificationError, match=f"{operand} dtype {name}"
        ):
            sim(ArchConfig(array_dim=8)).run_layer(PADDED, **operands)
