"""Bit-identity of the compiled kernel backend against NumPy references.

Every kernel in :mod:`repro.kernels` is an integer-exact port of the
NumPy/scalar expression it replaces, so parity here is ``==`` — not
``allclose``.  The direct tests drive each kernel with
hypothesis-generated inputs against an independent plain-Python
reference (translated from the documented semantics, not from the
backend source).  ``store_replay`` is pinned against its NumPy backend,
and that backend against plain-Python ring-buffer stores.
``flexflow_group`` is pinned against the tile engine's NumPy chunk loop,
group by group, and its dispatch (once per group on fault-free compiled
runs, never on bit-flip or NumPy runs) is checked.  ``systolic_layer``,
``mapping2d_layer`` and ``tiling_layer`` are pinned against the baseline
simulators' NumPy machines on the edge-biased layers of
``tests/sim/test_baseline_differential.py``, and their dispatch (once
per layer under ``cext``, for ``float32`` operands too, and never under
``numpy``) is checked.  The end-to-end
tests force ``REPRO_KERNELS`` and check that mapper, batched simulator,
FlexFlow functional simulator and fault-retention results are identical
under every available backend.

The compiled leg skips, never fails, when no C compiler is present.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.arch import ArchConfig
from repro.dataflow import map_layer, map_network
from repro.dataflow.mapper import clear_mapping_cache
from repro.dataflow.unrolling import ceil_div
from repro.errors import SimulationError
from repro.kernels import ENV_KERNELS, reset_kernels
from repro.kernels import cext as cext_mod
from repro.nn import make_inputs, make_kernels
from repro.nn.layers import ConvLayer
from repro.nn.workloads import all_workloads
from repro.obs import REGISTRY, Tracer
from repro.obs.export import parity_report
from repro.sim import (
    FlexFlowFunctionalSim,
    Mapping2DFunctionalSim,
    SystolicFunctionalSim,
    TilingFunctionalSim,
)
from tests.sim.test_baseline_differential import (
    kernels_backend,
    layers,
    seeds,
    tensors,
)

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
    of a small word space — so words are revisited across tiles; lanes go
    inactive at random, and capacities run from one word to more than the
    whole touch set.  ``split`` cuts the stream at a tile boundary into
    two calls, so state must carry over in place.
    """
    stores = draw(st.integers(min_value=1, max_value=4))
    tile_len = draw(st.integers(min_value=1, max_value=4))
    tiles = draw(st.integers(min_value=1, max_value=6))
    space = draw(st.integers(min_value=tile_len, max_value=tile_len + 4))
    coords = np.empty((tiles, tile_len, stores), dtype=np.int64)
    for tile in range(tiles):
        for store in range(stores):
            words = draw(st.permutations(range(space)))[:tile_len]
            coords[tile, :, store] = words
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
    return capacity, coords.reshape(-1, stores), active, tile_len, split


def _run_replay(replay, stream):
    """``(miss, seq, ring, counts)`` of ``stream`` replayed in two calls."""
    from repro.kernels.replay import StoreRings

    capacity, coords, active, tile_len, split = stream
    stores = StoreRings(capacity)
    parts = [
        replay(stores, coords[cut], active[cut], tile_len)
        for cut in (slice(None, split), slice(split, None))
    ]
    miss = np.concatenate([part[0] for part in parts])
    seq = np.concatenate([part[1] for part in parts])
    return miss, seq, stores.ring, stores.counts


def _ring_replay(stream):
    """Plain-Python circular stores: ``(miss, seq, rings, counts)``.

    Each store is a ring of ``capacity`` slots written round-robin on a
    miss; a word is resident while its slot still holds it.  ``rings``
    lists every store's slots in store order, -1 for a slot never
    written.
    """
    capacity, coords, active, _, _ = stream
    steps, stores = coords.shape
    miss = np.zeros((steps, stores), dtype=bool)
    seq = np.zeros((steps, stores), dtype=np.int64)
    rings, counts = [], []
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
        rings += [-1 if word is None else word for word in ring]
        counts.append(pushes)
    return miss, seq, np.asarray(rings), np.asarray(counts)


@settings(max_examples=60, deadline=None)
@given(replay_streams())
def test_store_replay_numpy_matches_ring_buffers(stream):
    from repro.kernels.replay import numpy_store_replay

    miss, seq, ring, counts = _run_replay(numpy_store_replay, stream)
    ref_miss, ref_seq, ref_ring, ref_counts = _ring_replay(stream)
    assert miss.tolist() == ref_miss.tolist()
    assert seq.tolist() == ref_seq.tolist()
    assert ring.tolist() == ref_ring.tolist()
    assert counts.tolist() == ref_counts.tolist()


@settings(max_examples=60, deadline=None)
@given(replay_streams())
def test_store_replay_matches_numpy(suite, stream):
    from repro.kernels.replay import numpy_store_replay

    got = _run_replay(suite.store_replay, stream)
    want = _run_replay(numpy_store_replay, stream)
    for name, fast, ref in zip(("miss", "seq", "ring", "counts"), got, want):
        assert fast.tolist() == ref.tolist(), name


def test_store_replay_rejects_coordinates_past_32_bits(suite):
    """The compiled index packs each coordinate into 32 bits."""
    from repro.kernels.replay import StoreRings

    stores = StoreRings([4])
    for word in (-1, 2**32):
        with pytest.raises(ValueError, match="coordinate outside"):
            suite.store_replay(
                stores, np.array([[word]]), np.array([[True]]), 1
            )


# -- the FlexFlow group kernel vs. the tile engine's NumPy chunk loop ----------

if settings.get_current_profile_name() == "default":
    group_budget = settings(max_examples=40, derandomize=True, deadline=None)
else:
    group_budget = settings(deadline=None)


@st.composite
def group_cases(draw):
    """A CONV layer, its ``map_layer`` factors on a 2..8 array, and stores.

    Stride 2 and implied padding (``explicit_in_size`` below the valid
    size) come up, stores run from one word up, and small arrays with up
    to 12 output maps give layers several output-map groups.
    """
    stride = draw(st.sampled_from((1, 2)))
    kernel = draw(st.integers(min_value=1, max_value=4))
    out_size = draw(st.integers(min_value=1, max_value=6))
    valid = (out_size - 1) * stride + kernel
    layer = ConvLayer(
        "group",
        in_maps=draw(st.integers(min_value=1, max_value=5)),
        out_maps=draw(st.integers(min_value=1, max_value=12)),
        out_size=out_size,
        kernel=kernel,
        stride=stride,
        explicit_in_size=draw(
            st.integers(min_value=max(1, valid - kernel + 1), max_value=valid)
        ),
    )
    dim = draw(st.integers(min_value=2, max_value=8))
    words = st.integers(min_value=1, max_value=48)
    config = ArchConfig(
        array_dim=dim,
        neuron_store_bytes=2 * draw(words),
        kernel_store_bytes=2 * draw(words),
    )
    return layer, config, map_layer(layer, dim).factors


@group_budget
@given(case=group_cases(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_flexflow_group_matches_numpy_chunks(suite, case, seed):
    """Output bytes, counters and every ``group:m0=`` span's deltas."""
    layer, config, factors = case
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal(layer.input_shape)
    kernels = rng.standard_normal(layer.kernel_shape)
    runs = {}
    for backend in ("cext", "numpy"):
        with kernels_backend(backend):
            tracer = Tracer()
            outputs, trace = FlexFlowFunctionalSim(
                config, factors=factors, tracer=tracer
            ).run_layer(layer, inputs, kernels)
        runs[backend] = (
            outputs.tobytes(), trace.as_dict(), parity_report(tracer)
        )
    assert runs["cext"] == runs["numpy"]


class TestFlexFlowGroupDispatch:
    """Which path each tile-engine run takes: a silent fallback to the
    NumPy chunk loop would still pass every parity check."""

    LAYER = ConvLayer("dispatch", in_maps=3, out_maps=6, out_size=5, kernel=3)
    CONFIG = ArchConfig(array_dim=4)

    def run(self, monkeypatch, fault_model=None):
        """``(group kernel calls, chunk-loop replays)`` of one run."""
        from repro.sim import tile_engine

        replays = []
        real_replay = tile_engine.store_replay

        def counting_replay(*args):
            replays.append(1)
            return real_replay(*args)

        monkeypatch.setattr(tile_engine, "store_replay", counting_replay)
        counter = REGISTRY.counter(
            "kernels.calls", kernel="flexflow_group", backend="cext"
        )
        before = counter.value
        FlexFlowFunctionalSim(
            self.CONFIG, fault_model=fault_model
        ).run_layer(self.LAYER, make_inputs(self.LAYER), make_kernels(self.LAYER))
        return counter.value - before, len(replays)

    def groups(self):
        factors = map_layer(self.LAYER, self.CONFIG.array_dim).factors
        return ceil_div(self.LAYER.out_maps, factors.tm)

    def test_fault_free_compiled_run_calls_once_per_group(
        self, forced_backend, monkeypatch
    ):
        assert self.groups() > 1
        assert self.run(monkeypatch) == (self.groups(), 0)

    def test_bitflip_run_takes_the_chunk_loop(
        self, forced_backend, monkeypatch
    ):
        from repro.faults import FaultModel

        calls, replays = self.run(
            monkeypatch, FaultModel(seed=3, bitflip_rate=0.05)
        )
        assert calls == 0 and replays >= self.groups()

    def test_numpy_backend_takes_the_chunk_loop(self, monkeypatch):
        _force_numpy(monkeypatch)
        try:
            calls, replays = self.run(monkeypatch)
        finally:
            reset_kernels()
        assert calls == 0 and replays >= self.groups()


# -- the baseline simulator kernels vs. their NumPy machines -------------------


def _layer_runs(sim, layer, seed):
    """``{backend: (output bytes, counters)}`` of one layer under each backend."""
    inputs, kernels = tensors(layer, seed)
    runs = {}
    for backend in ("cext", "numpy"):
        with kernels_backend(backend):
            outputs, trace = sim.run_layer(layer, inputs, kernels)
        runs[backend] = (outputs.tobytes(), trace.as_dict())
    return runs


@group_budget
@given(layer=layers(max_in_maps=13, max_out_maps=5), seed=seeds)
@example(  # K = 1
    layer=ConvLayer("k1", in_maps=3, out_maps=2, out_size=4, kernel=1), seed=0
)
@example(  # S = 1: the kernel covers the input
    layer=ConvLayer("s1", in_maps=5, out_maps=2, out_size=1, kernel=4), seed=1
)
@example(
    layer=ConvLayer(
        "pad", in_maps=2, out_maps=3, out_size=6, kernel=5, explicit_in_size=7
    ),
    seed=2,
)
def test_systolic_layer_matches_numpy(suite, layer, seed):
    runs = _layer_runs(SystolicFunctionalSim(), layer, seed)
    assert runs["cext"] == runs["numpy"]


@group_budget
@given(
    layer=layers(max_in_maps=20, max_out_maps=7),
    block=st.one_of(
        st.sampled_from((1, 16)), st.integers(min_value=1, max_value=9)
    ),
    seed=seeds,
)
@example(  # blocks of one PE
    layer=ConvLayer("b1", in_maps=3, out_maps=2, out_size=4, kernel=3),
    block=1,
    seed=0,
)
@example(  # one block larger than S
    layer=ConvLayer("big", in_maps=4, out_maps=3, out_size=5, kernel=2),
    block=9,
    seed=1,
)
@example(
    layer=ConvLayer("k1", in_maps=2, out_maps=2, out_size=5, kernel=1),
    block=2,
    seed=2,
)
@example(
    layer=ConvLayer("s1", in_maps=3, out_maps=2, out_size=1, kernel=3),
    block=4,
    seed=3,
)
def test_mapping2d_layer_matches_numpy(suite, layer, block, seed):
    runs = _layer_runs(Mapping2DFunctionalSim(block_size=block), layer, seed)
    assert runs["cext"] == runs["numpy"]


@group_budget
@given(
    layer=layers(max_in_maps=20, max_out_maps=7, strides=(1, 2)),
    tm=st.one_of(
        st.sampled_from((1, 16)), st.integers(min_value=1, max_value=9)
    ),
    tn=st.one_of(
        st.sampled_from((1, 8, 9, 16)), st.integers(min_value=1, max_value=20)
    ),
    seed=seeds,
)
@example(  # trees of exactly 8 products: eight partial sums, no remainder
    layer=ConvLayer("t8", in_maps=16, out_maps=3, out_size=3, kernel=2),
    tm=2,
    tn=8,
    seed=0,
)
@example(  # trees of 9: eight partial sums plus a remainder
    layer=ConvLayer("t9", in_maps=9, out_maps=2, out_size=3, kernel=3),
    tm=4,
    tn=9,
    seed=1,
)
@example(  # a tree of 137 splits into halves of 64 and 73
    layer=ConvLayer("t137", in_maps=137, out_maps=2, out_size=2, kernel=2),
    tm=2,
    tn=137,
    seed=2,
)
@example(  # 261 splits into 128 and 133, and 133 splits again
    layer=ConvLayer(
        "t261", in_maps=261, out_maps=3, out_size=2, kernel=3, stride=2,
        explicit_in_size=4,
    ),
    tm=2,
    tn=300,
    seed=3,
)
@example(
    layer=ConvLayer("k1", in_maps=5, out_maps=3, out_size=3, kernel=1),
    tm=2,
    tn=2,
    seed=4,
)
@example(
    layer=ConvLayer("s1", in_maps=7, out_maps=2, out_size=1, kernel=3),
    tm=1,
    tn=3,
    seed=5,
)
def test_tiling_layer_matches_numpy(suite, layer, tm, tn, seed):
    runs = _layer_runs(TilingFunctionalSim(tm=tm, tn=tn), layer, seed)
    assert runs["cext"] == runs["numpy"]


def test_systolic_layer_full_fifo_is_caught(suite):
    """The kernel's FIFO-full check: a row FIFO of one slot cannot hold the
    ``W - K`` flights of an 8-wide image under a 3x3 kernel."""
    layer = ConvLayer("fifo", in_maps=2, out_maps=2, out_size=6, kernel=3)
    with pytest.raises(SimulationError, match="row-fifo-0: push into full FIFO"):
        suite.systolic_layer(
            make_inputs(layer),
            make_kernels(layer),
            out_size=layer.out_size,
            fifo_capacity=1,
        )


def test_baseline_layer_kernels_reject_operands_they_cannot_index(suite):
    """Non-square, too small or ``float32`` images never reach the C code,
    which indexes ``P x P`` float64 planes."""
    kernels = np.zeros((1, 2, 3, 3))
    calls = (
        lambda images: suite.systolic_layer(
            images, kernels, out_size=3, fifo_capacity=3
        ),
        lambda images: suite.mapping2d_layer(images, kernels, out_size=3, block=2),
        lambda images: suite.tiling_layer(
            images, kernels, out_size=3, stride=1, tm=1, tn=1
        ),
    )
    for images in (
        np.zeros((2, 5, 4)),
        np.zeros((2, 4, 4)),
        np.zeros((2, 5, 5), dtype=np.float32),
    ):
        for call in calls:
            with pytest.raises(ValueError):
                call(images)


class TestBaselineLayerDispatch:
    """Which path each baseline simulator takes: a silent fallback to the
    NumPy machine would still pass every parity check."""

    LAYER = ConvLayer("dispatch", in_maps=3, out_maps=2, out_size=5, kernel=3)
    SIMS = (
        ("systolic_layer", SystolicFunctionalSim(), "_run_pipeline"),
        ("mapping2d_layer", Mapping2DFunctionalSim(block_size=4), "_run_blocks"),
        ("tiling_layer", TilingFunctionalSim(tm=2, tn=2), "_run_tiles"),
    )

    def run(self, monkeypatch, dtypes=(np.float64,), outputs=None):
        """``{kernel: (compiled calls, NumPy machine runs)}``, one layer each.

        The operands are cast to each of ``dtypes`` in turn; ``outputs``
        collects each simulator's output bytes by kernel.
        """
        inputs, kernels = make_inputs(self.LAYER), make_kernels(self.LAYER)
        for dtype in dtypes:
            inputs, kernels = inputs.astype(dtype), kernels.astype(dtype)
        result = {}
        for kernel, sim, method in self.SIMS:
            machine_runs = []
            real = getattr(type(sim), method)

            def spy(*args, _real=real, _runs=machine_runs):
                _runs.append(1)
                return _real(*args)

            monkeypatch.setattr(type(sim), method, spy)
            counter = REGISTRY.counter(
                "kernels.calls", kernel=kernel, backend="cext"
            )
            before = counter.value
            out, _ = sim.run_layer(self.LAYER, inputs, kernels)
            result[kernel] = (counter.value - before, len(machine_runs))
            if outputs is not None:
                outputs[kernel] = out.tobytes()
        return result

    def test_compiled_run_calls_once_per_layer(self, forced_backend, monkeypatch):
        assert self.run(monkeypatch) == dict.fromkeys(
            ("systolic_layer", "mapping2d_layer", "tiling_layer"), (1, 0)
        )

    def test_float32_takes_the_compiled_call(
        self, forced_backend, monkeypatch
    ):
        """Operands are cast to float64 first: float32 takes the same one
        call per layer and gives the float64 run's bytes."""
        narrow, wide = {}, {}
        assert self.run(monkeypatch, (np.float32,), narrow) == dict.fromkeys(
            ("systolic_layer", "mapping2d_layer", "tiling_layer"), (1, 0)
        )
        self.run(monkeypatch, (np.float32, np.float64), wide)
        assert narrow == wide

    def test_numpy_backend_takes_the_numpy_machines(self, monkeypatch):
        _force_numpy(monkeypatch)
        try:
            runs = self.run(monkeypatch)
        finally:
            reset_kernels()
        assert runs == dict.fromkeys(
            ("systolic_layer", "mapping2d_layer", "tiling_layer"), (0, 1)
        )


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
