"""Closed-form analytical counters: exact traces without executing MACs.

The loop-nest structure each dataflow imposes makes every
:class:`~repro.sim.trace.SimTrace` counter a *computable function* of the
layer shape and the schedule parameters — the observation behind
analytical DSE tools like Timeloop and MAESTRO.  This module derives those
functions for all four simulated architectures and returns traces that are
**bit-identical** to what the cycle simulators observe (the equivalence
suite in ``tests/sim/test_analytic.py`` pins this against the tile engine
and all three baseline simulators).

For FlexFlow most counters collapse by unique decomposition — every output
coordinate ``(m, r, c)`` lands in exactly one tile row, and every input
coordinate ``(n, i, j)`` in exactly one step column — so::

    cycles             = outer_iterations          (one tile per cycle)
    mac_ops            = M * N * S^2 * K^2         (= layer.macs)
    local_store_reads  = 2 * mac_ops               (neuron + synapse per MAC)
    register_accesses  = 2 * f_in * M * S^2        (accumulator rd+wr per cycle)
    neuron_buffer_writes = M * S^2                 (one per output neuron)

The two capacity-dependent quantities need more care:

* **kernel store** — a PE's kernel touch set is identical in every tile of
  an output-map group (the coordinates contain no ``r0``/``c0`` term) and
  disjoint across groups, and every participating PE row is active in the
  group's first spatial tile.  The circular store therefore behaves
  dichotomously: if the ``L`` per-tile touches fit (``L <= W``) they miss
  exactly once per group, otherwise the cyclic access pattern thrashes and
  *every* touch misses.  Both branches are closed-form.
* **neuron store** — sliding-window reuse across spatial tiles is the one
  genuinely history-dependent behaviour, so it is *replayed* — but over a
  compressed state space: neuron coordinates carry no ``dm`` term, so the
  ``Tm * Tr * Tc`` PE rows collapse to ``Tr * Tc`` representative classes,
  and every output-map group presents the identical tile stream, so the
  replay runs group-by-group until the store state (which word each of
  a store's last ``W`` pushes wrote) reaches its steady state and the
  remaining groups are extrapolated exactly.  Each group's class streams
  go to the same :func:`~repro.kernels.replay.store_replay` kernel as
  the tile engine's chunk loop, in budgeted chunks of spatial tiles, and
  the classes replay in chunks whose store rings fit
  :data:`REPLAY_BUDGET_BYTES`.

The three baseline dataflows (Systolic, 2D-Mapping, Tiling) have fully
static schedules, so their traces are pure arithmetic.

No simulator runs these forms; :mod:`repro.sim.batch` evaluates the same
mathematics over whole sweeps and shares :func:`_neuron_store_replay`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dataflow.unrolling import UnrollingFactors, ceil_div
from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer
from repro.kernels.replay import StoreRings, store_replay
from repro.sim.tile_engine import TileEngine
from repro.sim.trace import SimTrace

#: Memory budget for one neuron-replay state chunk (store rings plus
#: their signature copies).  Tests shrink this to force multi-chunk runs,
#: which also shrinks the access-stream chunks to one spatial tile.
REPLAY_BUDGET_BYTES = 64 * 1024 * 1024

#: Temporary bytes per lane of a neuron-replay access-stream chunk.
_STREAM_SLOT_BYTES = 48


def _ceil_counts(extent: int, offsets: np.ndarray, step: int) -> np.ndarray:
    """Vectorized ``ceil(max(0, extent - offset) / step)``.

    Counts how many of the bases ``0, step, 2*step, ...`` keep
    ``base + offset < extent`` — the number of tiles (or steps) in which a
    PE at that offset holds a valid coordinate.
    """
    return -(-np.maximum(extent - offsets, 0) // step)


# -- FlexFlow -----------------------------------------------------------------


def analytic_flexflow_trace(
    layer: ConvLayer,
    factors: UnrollingFactors,
    *,
    neuron_store_words: int,
    kernel_store_words: int,
) -> SimTrace:
    """Exact :class:`SimTrace` of the FlexFlow functional simulator.

    ``factors`` must satisfy Eq. 1 for ``layer`` (callers run
    ``factors.check`` first, as the simulators do).  The trace depends only
    on the layer shape, the factors, and the two store capacities — it is
    independent of the input values, the PE grid steering, and any
    permanent-fault mask (a mask changes *which* physical PEs execute, not
    what they execute).
    """
    f = factors
    m_total, n_total = layer.out_maps, layer.in_maps
    s_total, k_total = layer.out_size, layer.kernel

    # Column classes (dn, di, dj): l_col counts the steps at which the
    # column holds a valid input coordinate — constant across tiles.
    col_idx = np.arange(f.row_occupancy)
    dn, rest = np.divmod(col_idx, f.ti * f.tj)
    di, dj = np.divmod(rest, f.tj)
    l_col = (
        _ceil_counts(n_total, dn, f.tn)
        * _ceil_counts(k_total, di, f.ti)
        * _ceil_counts(k_total, dj, f.tj)
    )

    # Row offset classes (dr, dc): nat counts the spatial tiles in which
    # the row holds a valid output coordinate.
    rc_idx = np.arange(f.tr * f.tc)
    dr, dc = np.divmod(rc_idx, f.tc)
    nat = _ceil_counts(s_total, dr, f.tr) * _ceil_counts(s_total, dc, f.tc)
    n_spatial = ceil_div(s_total, f.tr) * ceil_div(s_total, f.tc)

    f_in = f.input_iterations(layer)
    trace = SimTrace()
    trace.cycles = f.outer_iterations(layer)
    trace.mac_ops = layer.macs
    trace.local_store_reads = 2 * layer.macs
    trace.register_accesses = 2 * f_in * m_total * s_total * s_total
    trace.neuron_buffer_writes = m_total * s_total * s_total

    # Kernel store dichotomy.  Fits (l <= W): the group's first spatial
    # tile misses all l words in lockstep across the group's rows — one
    # bus word per (step, dm, column), one store write per PE — and every
    # later tile hits.  Thrashes (l > W): the FIFO evicts each word before
    # its next cyclic touch, so every touch of every active tile misses;
    # the bus sees one word per (step, dm, column) in *every* tile because
    # the (dr, dc) = (0, 0) row participates in all of them.  Summing the
    # per-group valid dm counts over all groups gives exactly M.
    thrash = l_col > kernel_store_words
    kernel_bus = int(
        m_total * np.where(thrash, l_col * n_spatial, l_col).sum()
    )
    kernel_misses = int(
        m_total
        * np.where(
            thrash[None, :],
            l_col[None, :] * nat[:, None],
            l_col[None, :] * np.minimum(nat[:, None], 1),
        ).sum()
    )

    neuron_bus, neuron_misses = _neuron_store_replay(
        layer, f, neuron_store_words, dn=dn, di=di, dj=dj, dr=dr, dc=dc
    )

    trace.kernel_buffer_reads = kernel_bus
    trace.neuron_buffer_reads = neuron_bus
    trace.bus_transfers = kernel_bus + neuron_bus
    trace.local_store_writes = kernel_misses + neuron_misses
    return trace


def _neuron_store_replay(
    layer: ConvLayer,
    f: UnrollingFactors,
    capacity: int,
    *,
    dn: np.ndarray,
    di: np.ndarray,
    dj: np.ndarray,
    dr: np.ndarray,
    dc: np.ndarray,
) -> Tuple[int, int]:
    """``(bus_words, store_writes)`` for the neuron stores, exactly.

    One representative PE is replayed per ``((dr, dc), column)`` class:
    neuron coordinates carry no ``dm`` term, so all valid rows of a group
    that share ``(dr, dc)`` evolve identically — the bus ("any row of the
    column misses") reduces to the representative's misses, and the store
    writes multiply by the group's valid ``dm`` count.  Groups present
    identical tile streams, so the group loop stops as soon as the
    rings' signature (which word each of the last ``W`` pushes wrote)
    stops changing, and the remaining groups contribute the converged
    per-group miss count.
    """
    m_total, n_total = layer.out_maps, layer.in_maps
    s_total, k_total = layer.out_size, layer.kernel
    stride = layer.stride
    padded_size = layer.in_size + layer.padding
    n_groups = ceil_div(m_total, f.tm)
    group_sizes = np.minimum(f.tm, m_total - f.tm * np.arange(n_groups))

    # Inner-cycle bases in reference loop order, as in the tile engine.
    steps = np.stack(
        np.meshgrid(
            np.arange(0, n_total, f.tn),
            np.arange(0, k_total, f.ti),
            np.arange(0, k_total, f.tj),
            indexing="ij",
        ),
        axis=-1,
    ).reshape(-1, 3)
    n_tc = steps[:, 0:1] + dn[None, :]
    i_tc = steps[:, 1:2] + di[None, :]
    j_tc = steps[:, 2:3] + dj[None, :]
    col_ok = (n_tc < n_total) & (i_tc < k_total) & (j_tc < k_total)
    base_tc = n_tc * (padded_size * padded_size) + i_tc * padded_size + j_tc

    n_rc = len(dr)
    n_cols = col_ok.shape[1]
    n_classes = n_rc * n_cols
    n_steps = len(steps)
    # Four ring-sized arrays live at once (rings, two signatures, their
    # slot ages).
    chunk = max(1, REPLAY_BUDGET_BYTES // (4 * 8 * capacity))
    # Spatial tile origins (r0, c0) in reference loop order.
    r0, c0 = np.divmod(
        np.arange(ceil_div(s_total, f.tr) * ceil_div(s_total, f.tc)),
        ceil_div(s_total, f.tc),
    )
    r0, c0 = r0 * f.tr, c0 * f.tc

    bus = 0
    writes = 0
    for start in range(0, n_classes, chunk):
        cls = np.arange(start, min(start + chunk, n_classes))
        rc_i, c_i = np.divmod(cls, n_cols)
        n_cls = len(cls)
        # One store per class.
        stores = StoreRings(np.full(n_cls, capacity))
        coords_base = base_tc[:, c_i]
        act_cols = col_ok[:, c_i]  # (T, n_cls)
        cls_dr, cls_dc = dr[rc_i], dc[rc_i]
        # Spatial tiles per replay call: a stream chunk of (tiles * T,
        # n_cls) lanes within the smaller of the two budgets.
        tiles = max(
            1,
            min(REPLAY_BUDGET_BYTES, TileEngine.CHUNK_BYTES)
            // (_STREAM_SLOT_BYTES * n_steps * n_cls),
        )

        def run_group() -> int:
            misses = 0
            for t0 in range(0, len(r0), tiles):
                row_r = r0[t0:t0 + tiles, None] + cls_dr  # (B, n_cls)
                col_c = c0[t0:t0 + tiles, None] + cls_dc
                row_ok = (row_r < s_total) & (col_c < s_total)
                active = act_cols[None, :, :] & row_ok[:, None, :]
                offset = row_r * (stride * padded_size) + col_c * stride
                coords = np.where(
                    active, coords_base[None, :, :] + offset[:, None, :], 0
                )
                miss, _ = store_replay(
                    stores, coords.reshape(-1, n_cls),
                    active.reshape(-1, n_cls), n_steps,
                )
                misses += int(np.count_nonzero(miss))
            return misses

        ages = np.arange(capacity)

        def signature() -> np.ndarray:
            # Each ring read from its latest push back: which word every
            # push of the last W wrote.  Older pushes mean "not resident",
            # so this is a sufficient statistic for all future behaviour.
            slots = (stores.counts[:, None] - 1 - ages) % capacity
            rings = stores.ring.reshape(n_cls, capacity)
            return np.take_along_axis(rings, slots, axis=1)

        sig_prev = signature()
        m_hist: List[int] = []
        for _ in range(n_groups):
            m_hist.append(run_group())
            sig_now = signature()
            if np.array_equal(sig_now, sig_prev):
                break  # steady state: every later group repeats this one
            sig_prev = sig_now
        replayed = len(m_hist)
        bus += sum(m_hist) + (n_groups - replayed) * m_hist[-1]
        writes += int((np.asarray(m_hist) * group_sizes[:replayed]).sum())
        writes += m_hist[-1] * int(group_sizes[replayed:].sum())
    return bus, writes


# -- baseline dataflows -------------------------------------------------------


def analytic_systolic_trace(layer: ConvLayer) -> SimTrace:
    """Exact trace of :class:`~repro.sim.systolic_sim.SystolicFunctionalSim`.

    The raster broadcast visits every padded input position once per
    ``(m, n)`` pair plus ``K`` drain rows; every injected flight crosses
    all ``K - 1`` inter-row FIFOs (push + pop); each valid output window
    accumulates its full ``K^2`` products.
    """
    if layer.stride != 1:
        raise SpecificationError("systolic dataflow models stride-1 layers")
    k = layer.kernel
    side = layer.in_size + layer.padding  # padded image height == width
    pairs = layer.out_maps * layer.in_maps
    broadcasts = pairs * side * side
    trace = SimTrace()
    trace.cycles = pairs * (side + k) * side
    trace.neuron_buffer_reads = broadcasts
    trace.bus_transfers = broadcasts
    trace.neuron_buffer_writes = pairs * layer.out_size * layer.out_size
    trace.fifo_accesses = 2 * (k - 1) * broadcasts
    trace.mac_ops = layer.macs
    trace.register_accesses = 2 * layer.macs
    return trace


def _block_shapes(out_size: int, block: int) -> List[Tuple[int, int]]:
    """``(size, multiplicity)`` of the 1-D block decomposition of ``out_size``."""
    full, rem = divmod(out_size, block)
    shapes = []
    if full:
        shapes.append((block, full))
    if rem:
        shapes.append((rem, 1))
    return shapes


def analytic_mapping2d_trace(layer: ConvLayer, block_size: int) -> SimTrace:
    """Exact trace of :class:`~repro.sim.mapping2d_sim.Mapping2DFunctionalSim`.

    Every ``(m, block, n)`` run costs ``K^2`` cycles with one synapse
    broadcast each; the neuron window pays a full load once, one fresh
    column per in-row shift, and a partial reload at each kernel-row
    boundary where ``(rows - 1) * (cols - K + 1)`` neurons shift through
    the per-PE FIFOs instead.
    """
    if block_size <= 0:
        raise SpecificationError(
            f"block_size must be positive, got {block_size}"
        )
    if layer.stride != 1:
        raise SpecificationError("2D-Mapping dataflow models stride-1 layers")
    k = layer.kernel
    m_total, n_total = layer.out_maps, layer.in_maps
    shapes = _block_shapes(layer.out_size, block_size)
    trace = SimTrace()
    for rows, row_mult in shapes:
        for cols, col_mult in shapes:
            blocks = m_total * row_mult * col_mult
            runs = blocks * n_total  # one _run_block per input map
            reused = (rows - 1) * max(0, cols - (k - 1))
            trace.cycles += runs * k * k
            trace.kernel_buffer_reads += runs * k * k
            trace.bus_transfers += runs * k * k
            trace.mac_ops += runs * k * k * rows * cols
            trace.register_accesses += 2 * runs * k * k * rows * cols
            trace.neuron_buffer_reads += runs * (
                rows * cols  # initial window load
                + k * (k - 1) * rows  # fresh column per in-row shift
                + (k - 1) * (rows * cols - reused)  # row-boundary reload
            )
            trace.fifo_accesses += runs * (
                2 * k * (k - 1) * rows * (cols - 1)  # in-row shifts
                + 2 * (k - 1) * reused  # row-boundary window reuse
            )
            trace.neuron_buffer_writes += blocks * rows * cols
    return trace


def analytic_tiling_trace(layer: ConvLayer, tm: int, tn: int) -> SimTrace:
    """Exact trace of :class:`~repro.sim.tiling_sim.TilingFunctionalSim`.

    The schedule is fully dense — ``⌈M/Tm⌉ * ⌈N/Tn⌉ * S^2 * K^2`` cycles
    with zero synapse reuse — so every counter is a closed product; the
    partial-sum round-trips appear once per output position per non-first
    input-map round.
    """
    if tm <= 0 or tn <= 0:
        raise SpecificationError("tile factors must be positive")
    s2 = layer.out_size * layer.out_size
    k2 = layer.kernel * layer.kernel
    m_total, n_total = layer.out_maps, layer.in_maps
    m_rounds = ceil_div(m_total, tm)
    n_rounds = ceil_div(n_total, tn)
    trace = SimTrace()
    trace.cycles = m_rounds * n_rounds * s2 * k2
    trace.neuron_buffer_reads = m_rounds * n_total * s2 * k2
    trace.bus_transfers = m_rounds * n_total * s2 * k2
    trace.kernel_buffer_reads = m_total * n_total * s2 * k2
    trace.mac_ops = layer.macs
    trace.register_accesses = 2 * m_total * n_rounds * s2 * k2
    trace.neuron_buffer_partial_reads = m_total * (n_rounds - 1) * s2
    trace.neuron_buffer_writes = m_total * n_rounds * s2
    return trace
