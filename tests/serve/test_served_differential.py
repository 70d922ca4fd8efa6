"""Differential test: a served payload against a direct call.

Networks come from :func:`repro.nn.synth.random_network` under an
edge-biased :class:`~repro.nn.synth.SynthSpec` — kernels capped at 1 to
5 (so 1x1 convs are common), map counts clamped at a prime cap, small
inputs — optionally closed by a head the generator never draws on its
own: a conv whose kernel spans its whole input, or an FC layer, both
with a prime output count.  Each network is rendered with
:func:`~repro.nn.netdesc.to_description` and sent inline as ``map``,
``simulate``, ``dse`` and ``dse_per_layer`` bodies through an in-process
:class:`~repro.serve.app.ServeApp` (``jobs=0``: the inline pool) over a
fresh temp store.  Every served result must equal
:func:`~repro.serve.compute.execute_request` run with ``REPRO_CACHE=off``
— on the computed response, on the memory-tier re-read, and on a disk
re-read after :func:`~repro.cache.reset_cache_handles`.  After
``drain()`` the store holds only ``serve`` entries.

Without a profile flag the property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``)
switches to that profile's larger random budget.
"""

import json
import os
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache import active_cache, reset_cache_handles
from repro.dataflow import clear_mapping_cache
from repro.experiments.common import ARCH_ORDER
from repro.experiments.records import RunPolicy
from repro.kernels import active_kernels
from repro.nn.layers import ConvLayer, FCLayer, InputSpec
from repro.nn.netdesc import to_description
from repro.nn.network import Network
from repro.nn.synth import SynthSpec, random_network
from repro.serve.app import ServeApp
from repro.serve.compute import execute_request
from repro.serve.schemas import parse_request
from tests.serve.conftest import ServerHandle

PRIMES = (2, 3, 5, 7, 13, 31)

if settings.get_current_profile_name() == "default":
    budget = settings(max_examples=8, derandomize=True, deadline=None)
else:
    budget = settings(deadline=None)

edge_specs = st.builds(
    SynthSpec,
    min_conv_layers=st.just(1),
    max_conv_layers=st.integers(min_value=1, max_value=4),
    min_input_size=st.just(4),
    max_input_size=st.integers(min_value=4, max_value=24),
    max_maps=st.sampled_from(PRIMES),
    max_kernel=st.integers(min_value=1, max_value=5),
    fc_head=st.just(False),
)


@st.composite
def networks(draw):
    """A generated network, maybe closed by a full-kernel conv or FC head."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    body = random_network(seed, draw(edge_specs))
    maps, size, _ = body.layers[-1].output_shape
    outputs = draw(st.sampled_from(PRIMES))
    head = draw(st.sampled_from(("none", "full-kernel", "fc")))
    layers = list(body.layers)
    if head == "full-kernel":
        layers.append(
            ConvLayer("K", in_maps=maps, out_maps=outputs, out_size=1,
                      kernel=size)
        )
    elif head == "fc":
        layers.append(FCLayer("FC", in_neurons=maps * size * size,
                              out_neurons=outputs))
    return Network(body.name, body.input_spec, layers)


PRIME_CHAIN = Network(
    "prime-chain",
    InputSpec(maps=1, size=13),
    [
        ConvLayer("C1", in_maps=1, out_maps=7, out_size=13, kernel=1),
        ConvLayer("C2", in_maps=7, out_maps=13, out_size=9, kernel=5),
        ConvLayer("C3", in_maps=13, out_maps=31, out_size=1, kernel=9),
    ],
)


@pytest.fixture(scope="module")
def served():
    """One in-process server (inline pool) for every example."""
    active_kernels()  # bind the kernels before any temp store is active
    handle = ServerHandle(
        ServeApp(RunPolicy(retries=0), jobs=0)
    ).start()
    client = handle.client()
    yield client
    client.close()
    handle.stop()


@contextmanager
def environment(**values):
    """``os.environ`` set for the block, restored (and handles reset) after."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    reset_cache_handles()
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        reset_cache_handles()


def direct(kind, body):
    """``execute_request`` in this process, cache off, memos cold."""
    clear_mapping_cache()
    with environment(REPRO_CACHE="off"):
        result = execute_request(kind, parse_request(kind, body).spec)
    return json.loads(json.dumps(result))


@budget
@given(
    network=networks(),
    dim=st.sampled_from((3, 4, 8, 16)),
    dims=st.lists(st.sampled_from((2, 4, 8, 12, 16)), min_size=1,
                  max_size=3, unique=True),
    arch=st.sampled_from(ARCH_ORDER),
    scale=st.sampled_from((0.0, 1.0, 4.0)),
)
@example(network=PRIME_CHAIN, dim=8, dims=[4, 16], arch="flexflow",
         scale=1.0)
def test_served_payloads_equal_direct_calls(
    served, network, dim, dims, arch, scale
):
    source = to_description(network)
    bodies = [
        ("map", {"network": source, "dim": dim}),
        ("simulate", {"network": source, "dim": dim, "arch": arch}),
        ("dse", {"network": source, "dims": dims}),
        ("dse_per_layer",
         {"network": source, "dim": dim, "reconfig_scale": scale}),
    ]
    expected = [direct(kind, body) for kind, body in bodies]
    with tempfile.TemporaryDirectory() as root, environment(
        REPRO_CACHE="on", REPRO_CACHE_DIR=root
    ):
        clear_mapping_cache()
        for (kind, body), want in zip(bodies, expected):
            cold = served.compute(kind, body)
            assert cold["source"] == "computed"
            assert cold["result"] == want, kind
            memory = served.compute(kind, body)
            assert memory["source"] == "cache"
            assert memory["result"] == want, kind
        cache = active_cache()
        cache.drain()
        assert set(cache.stats()["sections"]) == {"serve"}
        reset_cache_handles()
        for (kind, body), want in zip(bodies, expected):
            disk = served.compute(kind, body)
            assert disk["source"] == "cache"
            assert disk["result"] == want, kind
