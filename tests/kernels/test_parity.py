"""Bit-identity of the compiled kernel backend against NumPy references.

Every kernel in :mod:`repro.kernels` is an integer-exact port of the
NumPy/scalar expression it replaces, so parity here is ``==`` — not
``allclose``.  The direct tests drive each kernel with
hypothesis-generated inputs against an independent plain-Python
reference (translated from the documented semantics, not from the
backend source).  ``store_replay`` is pinned against its NumPy backend,
and that backend against plain-Python ring-buffer stores.  The end-to-end
tests force ``REPRO_KERNELS`` and check that mapper, batched simulator,
FlexFlow functional simulator and fault-retention results are identical
under every available backend.

The compiled leg skips, never fails, when no C compiler is present.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import map_network
from repro.dataflow.mapper import clear_mapping_cache
from repro.kernels import ENV_KERNELS, reset_kernels
from repro.kernels import cext as cext_mod
from repro.nn.workloads import all_workloads

BACKENDS = ("cext",)


def _load_suite():
    try:
        suite, _ = cext_mod.load()
    except cext_mod.KernelBuildError as exc:
        pytest.skip(f"C backend unavailable: {exc}")
    return suite


@pytest.fixture(scope="module", params=BACKENDS)
def suite(request):
    """One loaded kernel suite per available compiled backend."""
    return _load_suite()


@pytest.fixture(params=BACKENDS)
def forced_backend(request, monkeypatch):
    """``REPRO_KERNELS`` pinned to one available compiled backend."""
    _load_suite()  # skip before touching the environment
    monkeypatch.setenv(ENV_KERNELS, request.param)
    reset_kernels()
    clear_mapping_cache()
    yield request.param
    reset_kernels()
    clear_mapping_cache()


def _force_numpy(monkeypatch):
    monkeypatch.setenv(ENV_KERNELS, "numpy")
    reset_kernels()
    clear_mapping_cache()


# -- direct kernel parity (hypothesis inputs vs. plain-Python refs) -----------

sorted_values = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=5,
    unique=True,
).map(sorted)

triples = st.tuples(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)


def _cdiv(a, b):
    return -(-a // b)


@settings(max_examples=40, deadline=None)
@given(sorted_values, sorted_values, sorted_values,
       st.integers(min_value=1, max_value=200))
def test_enumerate_triples_matches_reference(suite, a, b, c, limit):
    expected = [
        (x, y, z)
        for x, y, z in itertools.product(a, b, c)
        if x * y * z <= limit
    ]
    got = suite.enumerate_triples(
        np.asarray(a), np.asarray(b), np.asarray(c), limit
    )
    assert got.tolist() == [list(t) for t in expected]


@settings(max_examples=40, deadline=None)
@given(triples, st.lists(triples, min_size=1, max_size=6),
       triples, st.lists(triples, min_size=1, max_size=6))
def test_pair_cycles_matches_reference(suite, dims_in, ins, dims_out, outs):
    fin, fout, cycles = suite.pair_cycles(
        dims_in, np.asarray(ins), dims_out, np.asarray(outs)
    )
    ref_fin = [
        _cdiv(dims_in[0], t[0]) * _cdiv(dims_in[1], t[1])
        * _cdiv(dims_in[2], t[2])
        for t in ins
    ]
    ref_fout = [
        _cdiv(dims_out[0], t[0]) * _cdiv(dims_out[1], t[1])
        * _cdiv(dims_out[2], t[2])
        for t in outs
    ]
    assert fin.tolist() == ref_fin
    assert fout.tolist() == ref_fout
    assert cycles.tolist() == [
        [fi * fo for fo in ref_fout] for fi in ref_fin
    ]


def _ceil_pos(extent, step):
    return 0 if extent <= 0 else _cdiv(extent, step)


def _ref_store_sums(n_total, k_total, s_total, m_total,
                    tn, ti, tj, tr, tc, cap):
    sum_nat = cnt_nat = 0
    for dr in range(tr):
        for dc in range(tc):
            nat = (_ceil_pos(s_total - dr, tr)
                   * _ceil_pos(s_total - dc, tc))
            sum_nat += nat
            cnt_nat += min(nat, 1)
    n_spatial = _cdiv(s_total, tr) * _cdiv(s_total, tc)
    bus = miss = 0
    for dn in range(tn):
        for di in range(ti):
            for dj in range(tj):
                loads = (_ceil_pos(n_total - dn, tn)
                         * _ceil_pos(k_total - di, ti)
                         * _ceil_pos(k_total - dj, tj))
                if loads > cap:
                    bus += loads * n_spatial
                    miss += loads * sum_nat
                else:
                    bus += loads
                    miss += loads * cnt_nat
    return m_total * bus, m_total * miss


store_cases = st.tuples(
    st.integers(min_value=1, max_value=8),   # n_total
    st.integers(min_value=1, max_value=6),   # k_total
    st.integers(min_value=1, max_value=10),  # s_total
    st.integers(min_value=1, max_value=8),   # m_total
    st.integers(min_value=1, max_value=3),   # tn
    st.integers(min_value=1, max_value=3),   # ti
    st.integers(min_value=1, max_value=3),   # tj
    st.integers(min_value=1, max_value=3),   # tr
    st.integers(min_value=1, max_value=3),   # tc
    st.integers(min_value=0, max_value=40),  # cap
)


@settings(max_examples=40, deadline=None)
@given(st.lists(store_cases, min_size=1, max_size=8))
def test_flexflow_store_sums_matches_reference(suite, cases):
    columns = [np.asarray(col) for col in zip(*cases)]
    bus, misses = suite.flexflow_store_sums(*columns)
    expected = [_ref_store_sums(*case) for case in cases]
    assert bus.tolist() == [e[0] for e in expected]
    assert misses.tolist() == [e[1] for e in expected]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.booleans(), min_size=0, max_size=40),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=6),
)
def test_surviving_structures_matches_reference(suite, flags, n_struct, size):
    expected = sum(
        1
        for s in range(n_struct)
        if not any(
            flags[idx]
            for idx in range(s * size, (s + 1) * size)
            if idx < len(flags)
        )
    )
    got = suite.surviving_structures(
        np.asarray(flags, dtype=bool), n_struct, size
    )
    assert got == expected


@st.composite
def replay_streams(draw):
    """A ``store_replay`` access stream and the stores it runs against.

    Each (tile, store) touches distinct words — a prefix of a permutation
    of the store's small word space — so words are revisited across
    tiles; lanes go inactive at random, and capacities run from one word
    to more than the whole touch set.  ``split`` cuts the stream at a
    tile boundary into two calls, so state must carry over in place.
    """
    stores = draw(st.integers(min_value=1, max_value=4))
    tile_len = draw(st.integers(min_value=1, max_value=4))
    tiles = draw(st.integers(min_value=1, max_value=6))
    space = draw(st.integers(min_value=tile_len, max_value=tile_len + 4))
    coords = np.empty((tiles, tile_len, stores), dtype=np.int64)
    for tile in range(tiles):
        for store in range(stores):
            words = draw(st.permutations(range(space)))[:tile_len]
            coords[tile, :, store] = store * space + np.asarray(words)
    lanes = tiles * tile_len * stores
    active = np.asarray(
        draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes))
    ).reshape(tiles * tile_len, stores)
    capacity = np.asarray(
        draw(st.lists(
            st.integers(min_value=1, max_value=space + 2),
            min_size=stores, max_size=stores,
        )),
        dtype=np.int64,
    )
    split = draw(st.integers(min_value=0, max_value=tiles)) * tile_len
    return (
        stores * space, capacity, coords.reshape(-1, stores), active,
        tile_len, split,
    )


def _run_replay(replay, stream):
    """``(miss, seq, table, counts)`` of ``stream`` replayed in two calls."""
    from repro.kernels.replay import NEVER

    size, capacity, coords, active, tile_len, split = stream
    table = np.full(size, NEVER)
    counts = np.zeros(len(capacity), dtype=np.int64)
    parts = [
        replay(table, counts, capacity, coords[cut], active[cut], tile_len)
        for cut in (slice(None, split), slice(split, None))
    ]
    miss = np.concatenate([part[0] for part in parts])
    seq = np.concatenate([part[1] for part in parts])
    return miss, seq, table, counts


def _ring_replay(stream):
    """Plain-Python circular stores: ``(miss, seq, counts)``.

    Each store is a ring of ``capacity`` slots written round-robin on a
    miss; a word is resident while its slot still holds it.
    """
    _, capacity, coords, active, _, _ = stream
    steps, stores = coords.shape
    miss = np.zeros((steps, stores), dtype=bool)
    seq = np.zeros((steps, stores), dtype=np.int64)
    counts = []
    for store in range(stores):
        ring = [None] * int(capacity[store])
        pushed_at = {}
        pushes = 0
        for step in range(steps):
            if not active[step, store]:
                continue
            word = int(coords[step, store])
            last = pushed_at.get(word)  # push `last` wrote slot (last-1) % W
            if last is None or ring[(last - 1) % len(ring)] != word:
                pushes += 1
                ring[(pushes - 1) % len(ring)] = word
                pushed_at[word] = pushes
                miss[step, store] = True
            seq[step, store] = pushed_at[word]
        counts.append(pushes)
    return miss, seq, np.asarray(counts)


@settings(max_examples=60, deadline=None)
@given(replay_streams())
def test_store_replay_numpy_matches_ring_buffers(stream):
    from repro.kernels.replay import numpy_store_replay

    miss, seq, _, counts = _run_replay(numpy_store_replay, stream)
    ref_miss, ref_seq, ref_counts = _ring_replay(stream)
    assert miss.tolist() == ref_miss.tolist()
    assert seq.tolist() == ref_seq.tolist()
    assert counts.tolist() == ref_counts.tolist()


@settings(max_examples=60, deadline=None)
@given(replay_streams())
def test_store_replay_matches_numpy(suite, stream):
    from repro.kernels.replay import numpy_store_replay

    got = _run_replay(suite.store_replay, stream)
    want = _run_replay(numpy_store_replay, stream)
    for name, fast, ref in zip(("miss", "seq", "table", "counts"), got, want):
        assert fast.tolist() == ref.tolist(), name


# -- end-to-end parity: compiled backend vs. forced-NumPy paths ---------------


class TestEndToEnd:
    def test_network_mappings_identical(self, forced_backend, monkeypatch):
        compiled = {
            network.name: map_network(network, 16)
            for network in all_workloads()
        }
        _force_numpy(monkeypatch)
        for network in all_workloads():
            reference = map_network(network, 16)
            fast = compiled[network.name]
            assert fast.total_cycles == reference.total_cycles
            for lm_fast, lm_ref in zip(fast.layers, reference.layers):
                assert lm_fast.factors == lm_ref.factors
                assert lm_fast.coupled == lm_ref.coupled
                assert lm_fast.compute_cycles == lm_ref.compute_cycles

    def test_batched_traces_identical(self, forced_backend, monkeypatch):
        from repro.dataflow import map_layer
        from repro.sim.batch import batch_flexflow_traces

        network = next(iter(all_workloads()))
        layers = [ctx.layer for ctx in network.conv_contexts()]
        factors = [
            map_layer(ctx.layer, 16, tr_tc_bound=ctx.tr_tc_bound).factors
            for ctx in network.conv_contexts()
        ]

        def run():
            return batch_flexflow_traces(
                layers, factors,
                neuron_store_words=4096, kernel_store_words=512,
            )

        import dataclasses

        compiled = run()
        _force_numpy(monkeypatch)
        reference = run()
        for field in dataclasses.fields(compiled):
            fast = getattr(compiled, field.name)
            ref = getattr(reference, field.name)
            assert fast.tolist() == ref.tolist(), field.name

    def test_fault_retention_identical(self, forced_backend, monkeypatch):
        from repro.faults.impact import systolic_retention, tiling_retention
        from repro.faults.model import FaultModel

        masks = [
            FaultModel(seed=seed, dead_pe_rate=0.08).mask_for(16)
            for seed in range(6)
        ]

        def run():
            return [
                (
                    systolic_retention(mask, 16),
                    tiling_retention(mask, 4, 4),
                    tiling_retention(mask, 2, 8),
                )
                for mask in masks
            ]

        compiled = run()
        _force_numpy(monkeypatch)
        assert run() == compiled

    def test_flexflow_sim_identical(self, forced_backend, monkeypatch):
        """The cold report's FlexFlow calls — the ``verify`` layers and the
        ``ablation_localstore`` store sizes — plus one faulty run."""
        from repro.arch import ArchConfig
        from repro.experiments import ablation_localstore
        from repro.experiments.verification import _sample_layers
        from repro.faults import FaultModel
        from repro.nn import make_inputs, make_kernels
        from repro.sim import FlexFlowFunctionalSim

        runs = [
            (ArchConfig(array_dim=8), layer, None)
            for layer in _sample_layers(6, 2017)
        ]
        runs += [
            (
                ArchConfig(
                    array_dim=8, neuron_store_bytes=size,
                    kernel_store_bytes=size,
                ),
                ablation_localstore.LAYER,
                None,
            )
            for size in ablation_localstore.DEFAULT_SIZES
        ]
        runs.append((
            ArchConfig(array_dim=8, neuron_store_bytes=32),
            ablation_localstore.LAYER,
            FaultModel(seed=4, bitflip_rate=0.05, dead_pes=((2, 5),)),
        ))

        def run():
            results = []
            for config, layer, faults in runs:
                outputs, trace = FlexFlowFunctionalSim(
                    config, fault_model=faults
                ).run_layer(layer, make_inputs(layer), make_kernels(layer))
                results.append((outputs.tobytes(), trace.as_dict()))
            return results

        compiled = run()
        _force_numpy(monkeypatch)
        assert run() == compiled


def test_unavailable_backend_is_clear_error(monkeypatch):
    """Requesting a backend this build does not ship (numba was retired)
    must fail loud, naming the valid choices, never fall back."""
    from repro.errors import ConfigurationError
    from repro.kernels import active_kernels

    monkeypatch.setenv(ENV_KERNELS, "numba")
    reset_kernels()
    try:
        with pytest.raises(
            ConfigurationError, match="'numba'.*auto, cext, numpy"
        ):
            active_kernels()
    finally:
        reset_kernels()
