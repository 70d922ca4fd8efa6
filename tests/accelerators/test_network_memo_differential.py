"""Differential test: memoized network results against fresh walks.

:meth:`~repro.accelerators.base.Accelerator.simulate_network` memoizes
its :class:`~repro.accelerators.base.NetworkResult` per process, keyed
by value (model class and constructor state, network structure,
``include_fc``), and each result sums its layer counts and prices its
power report once.  Hypothesis draws networks from
:func:`repro.nn.synth.random_network` under an edge-biased
:class:`~repro.nn.synth.SynthSpec` — kernels capped at 1 to 5 (so 1x1
convs are common), map counts clamped at a prime cap — optionally
closed by a conv whose kernel spans its whole input or by an FC head
with a prime output count.  Each network runs on every
:func:`~repro.accelerators.make_accelerator` kind, with the factory's
state or drawn array geometry, healthy or under a seeded
:class:`~repro.faults.FaultModel` mask, with and without FC layers.

Every example checks that

* a memo hit, a miss after :func:`~repro.dataflow.clear_mapping_cache`
  and a walk of an equal but distinct :class:`~repro.nn.network.Network`
  all equal the uncached walk, on the result and on ``counts``,
  ``power_mw``, ``energy_uj``, ``gops_per_watt`` and
  ``dram_accesses_per_op``;
* the cached aggregates equal a fresh field-by-field sum of the layer
  counts and a fresh :func:`~repro.arch.power.compute_power`;
* a model differing only in constructor state or mask, or the same
  model with ``include_fc`` flipped, misses (never shares an entry);
* a walk that raises is not memoized.

Without a profile flag the property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``)
switches to that profile's larger random budget.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.accelerators import (
    Mapping2DAccelerator,
    PipelinedSystolicAccelerator,
    RowStationaryAccelerator,
    SystolicAccelerator,
    TilingAccelerator,
    make_accelerator,
)
from repro.accelerators.base import memoized_network_result
from repro.arch.config import ArchConfig
from repro.arch.power import ActivityCounts, compute_power
from repro.dataflow import clear_mapping_cache
from repro.errors import ReproError
from repro.faults import FaultModel
from repro.nn.layers import ConvLayer, FCLayer
from repro.nn.network import Network
from repro.nn.synth import SynthSpec, random_network

PRIMES = (2, 3, 5, 7, 13, 31)
KINDS = ("systolic", "mapping2d", "tiling", "flexflow", "rowstationary",
         "pipeline")

#: Constructor state per kind, beyond ``config`` (FlexFlow has none).
STATE = {
    SystolicAccelerator: ("array_size",),
    PipelinedSystolicAccelerator: ("array_size",),
    Mapping2DAccelerator: ("block_size",),
    TilingAccelerator: ("tm", "tn"),
    RowStationaryAccelerator: ("array_rows", "array_cols"),
}

if settings.get_current_profile_name() == "default":
    budget = settings(max_examples=25, derandomize=True, deadline=None)
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


@st.composite
def accelerators(draw):
    """Any kind, factory or drawn state, healthy or fault-masked."""
    dim = draw(st.sampled_from((4, 8, 16)))
    mask = None
    if draw(st.booleans()):
        mask = FaultModel(
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            dead_pe_rate=draw(st.sampled_from((0.02, 0.1, 0.3))),
        ).mask_for(dim)
    config = ArchConfig(array_dim=dim, pe_mask=mask)
    kind = draw(st.sampled_from(KINDS))
    accelerator = make_accelerator(
        kind, config, workload_name=draw(st.sampled_from(("AlexNet", "PV")))
    )
    cls = type(accelerator)
    if cls in STATE and draw(st.booleans()):
        sizes = st.integers(min_value=1, max_value=2 * dim)
        accelerator = cls(
            config, **{name: draw(sizes) for name in STATE[cls]}
        )
    return accelerator


def distinct_copy(network):
    """An equal network built from fresh layer objects."""
    return Network(
        network.name,
        network.input_spec,
        [dataclasses.replace(layer) for layer in network.layers],
    )


def siblings(accelerator):
    """Models equal to ``accelerator`` in all but state or mask."""
    cls = type(accelerator)
    config = accelerator.config
    state = {name: getattr(accelerator, name) for name in STATE.get(cls, ())}
    out = []
    for name in state:
        out.append(cls(config, **{**state, name: state[name] + 1}))
    other_mask = (
        FaultModel(seed=1, dead_pes=((0, 0),)).mask_for(config.array_dim)
        if config.pe_mask is None
        else None
    )
    out.append(cls(dataclasses.replace(config, pe_mask=other_mask), **state))
    return out


def memo():
    info = memoized_network_result.cache_info()
    return info.hits, info.misses, info.currsize


def walk(accelerator, network, include_fc):
    """The uncached walk, or the error it raises."""
    try:
        return accelerator._walk_network(network, include_fc)
    except ReproError as exc:
        return exc


def summed_counts(result):
    return ActivityCounts(**{
        field.name: sum(getattr(layer.counts, field.name)
                        for layer in result.layers)
        for field in dataclasses.fields(ActivityCounts)
    })


def assert_same_result(got, want):
    assert got == want
    for name in ("counts", "power_mw", "energy_uj", "gops_per_watt",
                 "dram_accesses_per_op"):
        assert getattr(got, name) == getattr(want, name), name


@budget
@given(network=networks(), accelerator=accelerators(),
       include_fc=st.booleans())
def test_memoized_results_equal_fresh_walks(network, accelerator, include_fc):
    clear_mapping_cache()
    fresh = walk(accelerator, network, include_fc)
    if isinstance(fresh, ReproError):
        for _ in range(2):
            try:
                accelerator.simulate_network(network, include_fc=include_fc)
            except type(fresh):
                pass
            else:
                raise AssertionError("memoized walk did not raise")
        assert memo()[2] == 0  # a walk that raises is never stored
        return

    first = accelerator.simulate_network(network, include_fc=include_fc)
    hits, misses, size = memo()
    hit = accelerator.simulate_network(network, include_fc=include_fc)
    assert hit is first and memo() == (hits + 1, misses, size)
    twin = accelerator.simulate_network(
        distinct_copy(network), include_fc=include_fc
    )
    assert twin is first and memo() == (hits + 2, misses, size)
    clear_mapping_cache()
    miss = accelerator.simulate_network(network, include_fc=include_fc)
    assert miss is not first and memo() == (0, 1, 1)

    for result in (hit, twin, miss):
        assert_same_result(result, fresh)
        counts = summed_counts(result)
        assert result.counts == counts
        priced = compute_power(counts, result.kind, result.config)
        assert result.power_report() == priced
        assert result.power_mw == priced.average_power_mw
        assert result.energy_uj == priced.total_energy_uj

    others = [(sibling, include_fc) for sibling in siblings(accelerator)]
    others.append((accelerator, not include_fc))
    for other, other_fc in others:
        assert (other, other_fc) != (accelerator, include_fc)
        hits, misses, _ = memo()
        try:
            got = other.simulate_network(network, include_fc=other_fc)
        except ReproError:
            got = None
        assert memo()[:2] == (hits, misses + 1)  # its own entry, not ours
        if got is not None:
            assert_same_result(got, walk(other, network, other_fc))
    clear_mapping_cache()
