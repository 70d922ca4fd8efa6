"""Batched structure-of-arrays analytic evaluator for DSE sweeps.

The scalar closed forms in :mod:`repro.sim.analytic` make one Python call
per ``(layer, factors)`` configuration.  A design-space sweep evaluates
thousands of such configurations — every candidate unrolling of every
layer at every array scale — which is exactly the shape MPNA/FlexNN-style
bulk dataflow search rewards: hoist the per-configuration arithmetic into
a handful of vectorized numpy passes over parallel arrays.

This module keeps the *mathematics* of the scalar closed forms and
changes only the evaluation order, so every
:class:`~repro.sim.trace.SimTrace` counter it returns is
**bit-identical** to :func:`~repro.sim.analytic.analytic_flexflow_trace`
(pinned by the hypothesis suite in ``tests/sim/test_batch.py``, which in
turn inherits the closed form's pin against the tile engine's counters):

* All pure closed forms (cycles, MACs, register/buffer traffic, the
  kernel-store fits/thrashes dichotomy) evaluate as broadcasted integer
  array expressions over padded ``(B, max_columns)`` / ``(B, max_rows)``
  class tables.  The kernel-store sum is regrouped from the scalar
  ``sum over (rc, col)`` outer product into ``sum_col l_col * (thrash ?
  sum_rc nat : sum_rc min(nat, 1))`` — an integer-exact refactoring that
  avoids materializing the product.
* The neuron-store replay is genuinely history-dependent, so it is not
  re-derived: distinct ``(layer shape, factors, capacity)`` keys are
  deduplicated and each runs the scalar
  :func:`~repro.sim.analytic._neuron_store_replay` once — bit-identity by
  construction, and a sweep whose configurations repeat (the common case)
  pays for each distinct replay once.

The optional ``array_dims`` / ``usable_rows`` / ``usable_cols`` inputs
carry the Eq. 1 context (and a fault mask's live-grid summary) purely for
*validation*: the trace itself is independent of the array dimension and
of any permanent-fault mask given the factors — a mask changes which
physical PEs execute, not what they execute.

The three baseline dataflows (systolic / 2D-mapping / tiling) have fully
static schedules; their batched forms are plain array arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dataflow.unrolling import UnrollingFactors
from repro.errors import MappingError, SpecificationError
from repro.kernels import active_kernels, count_kernel_call
from repro.nn.layers import ConvLayer
from repro.sim.analytic import _neuron_store_replay
from repro.sim.trace import SimTrace

__all__ = [
    "LayerBatch",
    "FactorBatch",
    "TraceBatch",
    "batch_flexflow_traces",
    "batch_systolic_traces",
    "batch_mapping2d_traces",
    "batch_tiling_traces",
]


def _as_int_array(values, name: str, batch: Optional[int] = None) -> np.ndarray:
    """Coerce scalars/sequences to a 1-D int64 array, broadcasting scalars."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 0 and batch is not None:
        arr = np.full(batch, int(arr), dtype=np.int64)
    if arr.ndim != 1:
        raise SpecificationError(f"{name} must be a 1-D array, got shape {arr.shape}")
    return arr


def _cdiv(value: np.ndarray, divisor: np.ndarray) -> np.ndarray:
    """Element-wise ``ceil(value / divisor)`` on non-negative int arrays."""
    return -(-value // divisor)


def _ceil_counts_2d(
    extent: np.ndarray, offsets: np.ndarray, step: np.ndarray
) -> np.ndarray:
    """Batched ``ceil(max(0, extent - offset) / step)``.

    ``extent``/``step`` are per-configuration ``(B, 1)`` columns and
    ``offsets`` a ``(B, W)`` class table — the batched form of the scalar
    engine's ``_ceil_counts``.
    """
    return -(-np.maximum(extent - offsets, 0) // step)


@dataclass(frozen=True)
class LayerBatch:
    """Parallel arrays of CONV layer shapes (one entry per configuration)."""

    in_maps: np.ndarray  # N
    out_maps: np.ndarray  # M
    out_size: np.ndarray  # S
    kernel: np.ndarray  # K
    stride: np.ndarray
    in_size: np.ndarray
    padding: np.ndarray

    @classmethod
    def from_layers(cls, layers: Sequence[ConvLayer]) -> "LayerBatch":
        def col(attr: str) -> np.ndarray:
            return np.array(
                [getattr(layer, attr) for layer in layers], dtype=np.int64
            )

        return cls(
            in_maps=col("in_maps"),
            out_maps=col("out_maps"),
            out_size=col("out_size"),
            kernel=col("kernel"),
            stride=col("stride"),
            in_size=col("in_size"),
            padding=col("padding"),
        )

    def __len__(self) -> int:
        return len(self.in_maps)

    def layer(self, index: int) -> ConvLayer:
        """Materialize one row back into a :class:`ConvLayer` spec."""
        return ConvLayer(
            name=f"batch[{index}]",
            in_maps=int(self.in_maps[index]),
            out_maps=int(self.out_maps[index]),
            out_size=int(self.out_size[index]),
            kernel=int(self.kernel[index]),
            stride=int(self.stride[index]),
            explicit_in_size=int(self.in_size[index]),
        )

    @property
    def macs(self) -> np.ndarray:
        return (
            self.out_maps
            * self.in_maps
            * self.out_size
            * self.out_size
            * self.kernel
            * self.kernel
        )


@dataclass(frozen=True)
class FactorBatch:
    """Parallel arrays of unrolling factors ``<Tm, Tn, Tr, Tc, Ti, Tj>``."""

    tm: np.ndarray
    tn: np.ndarray
    tr: np.ndarray
    tc: np.ndarray
    ti: np.ndarray
    tj: np.ndarray

    @classmethod
    def from_factors(cls, factors: Sequence[UnrollingFactors]) -> "FactorBatch":
        def col(attr: str) -> np.ndarray:
            return np.array([getattr(f, attr) for f in factors], dtype=np.int64)

        return cls(
            tm=col("tm"), tn=col("tn"), tr=col("tr"),
            tc=col("tc"), ti=col("ti"), tj=col("tj"),
        )

    def __len__(self) -> int:
        return len(self.tm)

    def factors(self, index: int) -> UnrollingFactors:
        return UnrollingFactors(
            tm=int(self.tm[index]), tn=int(self.tn[index]),
            tr=int(self.tr[index]), tc=int(self.tc[index]),
            ti=int(self.ti[index]), tj=int(self.tj[index]),
        )

    @property
    def row_occupancy(self) -> np.ndarray:
        """Per-configuration ``Tn * Ti * Tj`` (PE columns used)."""
        return self.tn * self.ti * self.tj

    @property
    def column_occupancy(self) -> np.ndarray:
        """Per-configuration ``Tm * Tr * Tc`` (PE rows used)."""
        return self.tm * self.tr * self.tc


@dataclass
class TraceBatch:
    """Every :class:`SimTrace` counter as a parallel int64 array."""

    cycles: np.ndarray
    mac_ops: np.ndarray
    neuron_buffer_reads: np.ndarray
    neuron_buffer_writes: np.ndarray
    neuron_buffer_partial_reads: np.ndarray
    kernel_buffer_reads: np.ndarray
    local_store_reads: np.ndarray
    local_store_writes: np.ndarray
    fifo_accesses: np.ndarray
    register_accesses: np.ndarray
    bus_transfers: np.ndarray

    def __len__(self) -> int:
        return len(self.cycles)

    @classmethod
    def zeros(cls, batch: int) -> "TraceBatch":
        return cls(
            **{
                field.name: np.zeros(batch, dtype=np.int64)
                for field in fields(cls)
            }
        )

    def trace(self, index: int) -> SimTrace:
        """One configuration's counters as a plain-int :class:`SimTrace`."""
        trace = SimTrace()
        for field in fields(self):
            setattr(trace, field.name, int(getattr(self, field.name)[index]))
        return trace

    def traces(self) -> List[SimTrace]:
        return [self.trace(i) for i in range(len(self))]


LayersLike = Union[LayerBatch, Sequence[ConvLayer]]
FactorsLike = Union[FactorBatch, Sequence[UnrollingFactors]]


def _coerce_layers(layers: LayersLike) -> LayerBatch:
    if isinstance(layers, LayerBatch):
        return layers
    return LayerBatch.from_layers(layers)


def _coerce_factors(factors: FactorsLike) -> FactorBatch:
    if isinstance(factors, FactorBatch):
        return factors
    return FactorBatch.from_factors(factors)


def _validate_packing(
    layers: LayerBatch,
    f: FactorBatch,
    array_dims: Optional[np.ndarray],
    usable_rows: Optional[np.ndarray],
    usable_cols: Optional[np.ndarray],
) -> None:
    """Vectorized Eq. 1 feasibility over the whole batch.

    ``array_dims`` (and the optional live-grid ``usable_rows`` /
    ``usable_cols`` mask summaries, which default to it) exist only for
    this check — the trace itself does not depend on them.
    """
    batch = len(layers)
    bounds = (
        (f.tm, layers.out_maps, "Tm", "M"),
        (f.tn, layers.in_maps, "Tn", "N"),
        (f.tr, layers.out_size, "Tr", "S"),
        (f.tc, layers.out_size, "Tc", "S"),
        (f.ti, layers.kernel, "Ti", "K"),
        (f.tj, layers.kernel, "Tj", "K"),
    )
    for value, upper, name, label in bounds:
        bad = np.flatnonzero(value > upper)
        if bad.size:
            i = int(bad[0])
            raise MappingError(
                f"batch[{i}]: {name}={int(value[i])} exceeds"
                f" {label}={int(upper[i])}"
            )
    if array_dims is None:
        return
    dims = _as_int_array(array_dims, "array_dims", batch)
    rows = dims if usable_rows is None else _as_int_array(
        usable_rows, "usable_rows", batch
    )
    cols = dims if usable_cols is None else _as_int_array(
        usable_cols, "usable_cols", batch
    )
    for arr, name in ((dims, "array_dims"), (rows, "usable_rows"), (cols, "usable_cols")):
        if len(arr) != batch:
            raise SpecificationError(
                f"{name} has {len(arr)} entries for a batch of {batch}"
            )
    bad = np.flatnonzero(f.row_occupancy > cols)
    if bad.size:
        i = int(bad[0])
        raise MappingError(
            f"batch[{i}]: Tn*Ti*Tj={int(f.row_occupancy[i])} exceeds the"
            f" {int(cols[i])} usable columns (D={int(dims[i])})"
        )
    bad = np.flatnonzero(f.column_occupancy > rows)
    if bad.size:
        i = int(bad[0])
        raise MappingError(
            f"batch[{i}]: Tm*Tr*Tc={int(f.column_occupancy[i])} exceeds the"
            f" {int(rows[i])} usable rows (D={int(dims[i])})"
        )


def batch_flexflow_traces(
    layers: LayersLike,
    factors: FactorsLike,
    *,
    neuron_store_words,
    kernel_store_words,
    array_dims=None,
    usable_rows=None,
    usable_cols=None,
) -> TraceBatch:
    """Batched, bit-identical :func:`~repro.sim.analytic.analytic_flexflow_trace`.

    Entry ``i`` of the result equals
    ``analytic_flexflow_trace(layers[i], factors[i], ...)`` exactly.  Store
    capacities broadcast from scalars or vary per configuration.
    """
    layers = _coerce_layers(layers)
    f = _coerce_factors(factors)
    batch = len(layers)
    if len(f) != batch:
        raise SpecificationError(
            f"factor batch has {len(f)} entries for {batch} layers"
        )
    out = TraceBatch.zeros(batch)
    if batch == 0:
        return out
    neuron_caps = _as_int_array(neuron_store_words, "neuron_store_words", batch)
    kernel_caps = _as_int_array(kernel_store_words, "kernel_store_words", batch)
    for caps, name in ((neuron_caps, "neuron_store_words"),
                       (kernel_caps, "kernel_store_words")):
        if len(caps) != batch:
            raise SpecificationError(
                f"{name} has {len(caps)} entries for a batch of {batch}"
            )
    _validate_packing(layers, f, array_dims, usable_rows, usable_cols)

    n_total = layers.in_maps[:, None]
    k_total = layers.kernel[:, None]
    s_total = layers.out_size[:, None]
    m_total = layers.out_maps

    # Column classes (dn, di, dj), padded to the widest row occupancy.
    # Invalid (past-occupancy) columns contribute zero to every sum.
    # (The replay below needs these tables even when the kernel-store
    # sums run in a compiled kernel.)
    occupancy = f.row_occupancy
    col_idx = np.arange(int(occupancy.max()))[None, :]
    col_valid = col_idx < occupancy[:, None]
    dn, rest = np.divmod(col_idx, (f.ti * f.tj)[:, None])
    di, dj = np.divmod(rest, f.tj[:, None])

    # Row offset classes (dr, dc), padded to the widest Tr*Tc.
    rc_count = f.tr * f.tc
    rc_idx = np.arange(int(rc_count.max()))[None, :]
    rc_valid = rc_idx < rc_count[:, None]
    dr, dc = np.divmod(rc_idx, f.tc[:, None])
    n_spatial = _cdiv(layers.out_size, f.tr) * _cdiv(layers.out_size, f.tc)

    f_in = (
        _cdiv(layers.in_maps, f.tn)
        * _cdiv(layers.kernel, f.ti)
        * _cdiv(layers.kernel, f.tj)
    )
    f_out = _cdiv(layers.out_maps, f.tm) * n_spatial
    macs = layers.macs
    s2 = layers.out_size * layers.out_size

    out.cycles = f_in * f_out
    out.mac_ops = macs
    out.local_store_reads = 2 * macs
    out.register_accesses = 2 * f_in * m_total * s2
    out.neuron_buffer_writes = m_total * s2

    # Kernel-store dichotomy, regrouped to avoid the (rc x col) product:
    # sum_{rc,col} where(thrash, l*nat, l*min(nat,1))
    #   = sum_col l_col * (thrash ? sum_rc nat : sum_rc min(nat, 1)).
    suite = active_kernels()
    if suite is not None:
        kernel_bus, kernel_misses = suite.flexflow_store_sums(
            layers.in_maps, layers.kernel, layers.out_size, m_total,
            f.tn, f.ti, f.tj, f.tr, f.tc, kernel_caps,
        )
        count_kernel_call("flexflow_store_sums", suite.backend)
    else:
        l_col = (
            _ceil_counts_2d(n_total, dn, f.tn[:, None])
            * _ceil_counts_2d(k_total, di, f.ti[:, None])
            * _ceil_counts_2d(k_total, dj, f.tj[:, None])
        )
        l_col = np.where(col_valid, l_col, 0)
        nat = _ceil_counts_2d(s_total, dr, f.tr[:, None]) * _ceil_counts_2d(
            s_total, dc, f.tc[:, None]
        )
        nat = np.where(rc_valid, nat, 0)
        thrash = l_col > kernel_caps[:, None]
        kernel_bus = m_total * np.where(
            thrash, l_col * n_spatial[:, None], l_col
        ).sum(axis=1)
        sum_nat = nat.sum(axis=1)
        cnt_nat = np.minimum(nat, 1).sum(axis=1)
        kernel_misses = m_total * np.where(
            thrash, l_col * sum_nat[:, None], l_col * cnt_nat[:, None]
        ).sum(axis=1)

    neuron_bus, neuron_misses = _batched_neuron_replay(
        layers, f, neuron_caps, dn=dn, di=di, dj=dj, dr=dr, dc=dc
    )

    out.kernel_buffer_reads = kernel_bus
    out.neuron_buffer_reads = neuron_bus
    out.bus_transfers = kernel_bus + neuron_bus
    out.local_store_writes = kernel_misses + neuron_misses
    return out


def _batched_neuron_replay(
    layers: LayerBatch,
    f: FactorBatch,
    capacities: np.ndarray,
    *,
    dn: np.ndarray,
    di: np.ndarray,
    dj: np.ndarray,
    dr: np.ndarray,
    dc: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Neuron-store ``(bus, writes)`` per configuration, via deduped replay.

    The replay is the one history-dependent part of the FlexFlow closed
    forms, so each *distinct* ``(layer shape, factors, capacity)`` key runs
    the scalar :func:`_neuron_store_replay` once and every duplicate
    configuration reuses the result — exact by construction.
    """
    batch = len(layers)
    bus = np.zeros(batch, dtype=np.int64)
    writes = np.zeros(batch, dtype=np.int64)
    seen: Dict[tuple, Tuple[int, int]] = {}
    for i in range(batch):
        key = (
            int(layers.in_maps[i]), int(layers.out_maps[i]),
            int(layers.kernel[i]), int(layers.out_size[i]),
            int(layers.stride[i]),
            int(layers.in_size[i]), int(layers.padding[i]),
            int(f.tm[i]), int(f.tn[i]), int(f.tr[i]),
            int(f.tc[i]), int(f.ti[i]), int(f.tj[i]),
            int(capacities[i]),
        )
        hit = seen.get(key)
        if hit is None:
            occupancy = int(f.tn[i] * f.ti[i] * f.tj[i])
            rc = int(f.tr[i] * f.tc[i])
            hit = _neuron_store_replay(
                layers.layer(i),
                f.factors(i),
                int(capacities[i]),
                dn=dn[i, :occupancy],
                di=di[i, :occupancy],
                dj=dj[i, :occupancy],
                dr=dr[i, :rc],
                dc=dc[i, :rc],
            )
            seen[key] = hit
        bus[i], writes[i] = hit
    return bus, writes


# -- baseline dataflows --------------------------------------------------------


def batch_systolic_traces(layers: LayersLike) -> TraceBatch:
    """Batched, bit-identical :func:`~repro.sim.analytic.analytic_systolic_trace`."""
    layers = _coerce_layers(layers)
    out = TraceBatch.zeros(len(layers))
    if len(layers) == 0:
        return out
    bad = np.flatnonzero(layers.stride != 1)
    if bad.size:
        raise SpecificationError(
            f"systolic dataflow models stride-1 layers (batch[{int(bad[0])}])"
        )
    k = layers.kernel
    side = layers.in_size + layers.padding
    pairs = layers.out_maps * layers.in_maps
    broadcasts = pairs * side * side
    out.cycles = pairs * (side + k) * side
    out.neuron_buffer_reads = broadcasts
    out.bus_transfers = broadcasts
    out.neuron_buffer_writes = pairs * layers.out_size * layers.out_size
    out.fifo_accesses = 2 * (k - 1) * broadcasts
    out.mac_ops = layers.macs
    out.register_accesses = 2 * layers.macs
    return out


def batch_mapping2d_traces(layers: LayersLike, block_sizes) -> TraceBatch:
    """Batched, bit-identical :func:`~repro.sim.analytic.analytic_mapping2d_trace`.

    The scalar form iterates the (at most 2x2) full/remainder block-shape
    decomposition; here each of the four (row-shape, col-shape) terms is a
    masked array expression.
    """
    layers = _coerce_layers(layers)
    out = TraceBatch.zeros(len(layers))
    if len(layers) == 0:
        return out
    blocks = _as_int_array(block_sizes, "block_sizes", len(layers))
    if len(blocks) != len(layers):
        raise SpecificationError(
            f"block_sizes has {len(blocks)} entries for {len(layers)} layers"
        )
    if np.any(blocks <= 0):
        i = int(np.flatnonzero(blocks <= 0)[0])
        raise SpecificationError(
            f"block_size must be positive, got {int(blocks[i])}"
        )
    bad = np.flatnonzero(layers.stride != 1)
    if bad.size:
        raise SpecificationError(
            f"2D-Mapping dataflow models stride-1 layers (batch[{int(bad[0])}])"
        )
    k = layers.kernel
    m_total, n_total = layers.out_maps, layers.in_maps
    full, rem = np.divmod(layers.out_size, blocks)
    # The decomposition yields up to two 1-D shapes: (block, full) when
    # full > 0 and (rem, 1) when rem > 0; a zero multiplicity masks the
    # whole term out, matching the scalar loop skipping the shape.
    row_shapes = ((blocks, full), (rem, np.minimum(rem, 1)))
    for rows, row_mult in row_shapes:
        for cols, col_mult in row_shapes:
            mult = row_mult * col_mult
            active = (mult > 0) & (rows > 0) & (cols > 0)
            n_blocks = np.where(active, m_total * mult, 0)
            runs = n_blocks * n_total
            reused = np.where(
                active, (rows - 1) * np.maximum(0, cols - (k - 1)), 0
            )
            k2 = k * k
            out.cycles += runs * k2
            out.kernel_buffer_reads += runs * k2
            out.bus_transfers += runs * k2
            out.mac_ops += runs * k2 * rows * cols
            out.register_accesses += 2 * runs * k2 * rows * cols
            out.neuron_buffer_reads += runs * (
                rows * cols
                + k * (k - 1) * rows
                + (k - 1) * (rows * cols - reused)
            ) * active
            out.fifo_accesses += runs * (
                2 * k * (k - 1) * rows * (cols - 1)
                + 2 * (k - 1) * reused
            ) * active
            out.neuron_buffer_writes += n_blocks * rows * cols
    return out


def batch_tiling_traces(layers: LayersLike, tm, tn) -> TraceBatch:
    """Batched, bit-identical :func:`~repro.sim.analytic.analytic_tiling_trace`."""
    layers = _coerce_layers(layers)
    out = TraceBatch.zeros(len(layers))
    if len(layers) == 0:
        return out
    tm = _as_int_array(tm, "tm", len(layers))
    tn = _as_int_array(tn, "tn", len(layers))
    for arr, name in ((tm, "tm"), (tn, "tn")):
        if len(arr) != len(layers):
            raise SpecificationError(
                f"{name} has {len(arr)} entries for {len(layers)} layers"
            )
    if np.any(tm <= 0) or np.any(tn <= 0):
        raise SpecificationError("tile factors must be positive")
    s2 = layers.out_size * layers.out_size
    k2 = layers.kernel * layers.kernel
    m_total, n_total = layers.out_maps, layers.in_maps
    m_rounds = _cdiv(m_total, tm)
    n_rounds = _cdiv(n_total, tn)
    out.cycles = m_rounds * n_rounds * s2 * k2
    out.neuron_buffer_reads = m_rounds * n_total * s2 * k2
    out.bus_transfers = m_rounds * n_total * s2 * k2
    out.kernel_buffer_reads = m_total * n_total * s2 * k2
    out.mac_ops = layers.macs
    out.register_accesses = 2 * m_total * n_rounds * s2 * k2
    out.neuron_buffer_partial_reads = m_total * (n_rounds - 1) * s2
    out.neuron_buffer_writes = m_total * n_rounds * s2
    return out
