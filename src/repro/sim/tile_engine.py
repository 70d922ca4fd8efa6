"""The FlexFlow functional simulator's PE array.

:class:`TileEngine` executes a CONV layer on the FlexFlow array — one
unrolled tile per cycle, RA/RS broadcast sharing, capacity-limited
circular local stores — one output-map group at a time, on one of two
paths:

* **one compiled call per group** whenever the C kernel suite is loaded
  and the run has no transient bit flips: ``repro_flexflow_group``
  (:meth:`~repro.kernels.cext.CExtKernels.flexflow_group`) runs every
  spatial tile and inner cycle of the group in order, with the store
  fills, bus counts, adder trees and accumulators below, and returns the
  group's counter deltas;
* **the NumPy chunk loop** otherwise (the ``numpy`` backend, and every
  bit-flip run): a *chunk* of the group's output tiles per step, every
  tile's ``f_in`` inner cycles on every PE as whole-array passes.

Both paths are exact, and ``tests/kernels/test_parity.py`` pins them
against each other group by group; ``tests/sim_oracle.py`` keeps the
literal per-PE machine (one store object per PE, explicit bus sets per
cycle) that both are proven against:

* **outputs** are bit-identical: within each cycle the adder-tree sum is
  accumulated column by column in PE-column order, and the per-row
  accumulator adds one tree sum per cycle in cycle order — the exact
  float-addition sequence of the per-PE machine;
* **cycle count** is asserted equal to ``factors.outer_iterations(layer)``
  (the Section 4.2 one-tile-per-cycle invariant);
* **traffic counters** (buffer reads, bus transfers, local-store
  reads/writes) are exact, including capacity evictions of the per-PE
  circular stores.

**The local stores.**  Both local stores of every PE live in one
:class:`~repro.kernels.replay.StoreRings` with one store axis: PE ``p``'s
neuron store is store ``p``, its kernel store is store ``R*C + p``.  Each
store keeps only the coordinates of its last ``W`` pushes, so the state
is ``2 * active_PEs * W`` words whatever the layer's extents, and every
Table 1 layer runs here.  In the chunk loop, a chunk's whole access
stream — ``(tiles * f_in, 2 * R * C)`` coordinates in access order —
demand-fills every store in one call to
:func:`~repro.kernels.replay.store_replay`.  A chunk holds
:data:`TileEngine.CHUNK_BYTES` of temporaries, or enough tiles to read
every store about ``W`` times, whichever is more.

**Transient faults.**  A store word holds what its last push wrote, so
what a read sees is a pure function of the push it sees: the replay's
read sequence (the read's own push on a miss, the word's last push on a
hit).  The flip is :func:`~repro.faults.model.transient_flip` of the
physical PE, the data coordinate and that sequence — a push-time
corruption — keyed by a blake2b hash in Python, so bit-flip runs take
the chunk loop and flips land on the gathered reads.

Operands reach :meth:`TileEngine.run` as ``float64``
(:func:`~repro.sim.trace.layer_operands`).
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from repro.arch.config import ArchConfig
from repro.dataflow.grouping import GroupGeometry
from repro.dataflow.unrolling import UnrollingFactors, ceil_div
from repro.errors import SimulationError
from repro.faults.mask import LiveGrid
from repro.faults.model import FaultModel, transient_flip
from repro.kernels import active_kernels, count_kernel_call
from repro.kernels.replay import StoreRings, store_replay
from repro.nn.layers import ConvLayer
from repro.obs.tracer import Tracer, counter_delta, current_tracer
from repro.sim.trace import SimTrace

#: Temporary bytes per (cycle, PE) slot of a chunk: coordinates, masks,
#: the replay's compact keys and read sequences, values and products, for
#: both stores.
_SLOT_BYTES = 128

#: Store kinds along the stacked store axis, as the fault hash names them.
_KINDS = ("neuron", "kernel")


class TileEngine:
    """Execution of one CONV layer on the FlexFlow array.

    Args:
        config: the architecture (array dimension, local-store capacities).
        layer: the CONV layer to execute.
        factors: the unrolling factors (must already satisfy Eq. 1).
    """

    #: Budget for one chunk's temporaries, in bytes; with the store size,
    #: sets how many spatial tiles replay per :func:`store_replay` call.
    CHUNK_BYTES = 1024 * 1024

    def __init__(
        self,
        config: ArchConfig,
        layer: ConvLayer,
        factors: UnrollingFactors,
        *,
        grid: Optional[LiveGrid] = None,
        fault_model: Optional[FaultModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.layer = layer
        self.factors = factors
        self.geometry = GroupGeometry(factors, config.array_dim)
        self.grid = grid
        self.fault_model = fault_model
        self.tracer = tracer

    # -- execution -----------------------------------------------------------

    def run(
        self, padded: np.ndarray, kernels: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute the layer on pre-padded inputs; returns ``(outputs, trace)``."""
        layer, f, geo = self.layer, self.factors, self.geometry
        stride = layer.stride
        m_total, s_total, k_total = layer.out_maps, layer.out_size, layer.kernel
        n_total = layer.in_maps
        rows, cols = geo.active_rows, geo.active_cols
        padded_size = padded.shape[1]

        # Row/column offset decompositions (Section 4.3 index functions).
        dm, rest = np.divmod(np.arange(rows), f.tr * f.tc)
        dr, dc = np.divmod(rest, f.tc)
        dn, rest = np.divmod(np.arange(cols), f.ti * f.tj)
        di, dj = np.divmod(rest, f.tj)

        # Inner-cycle bases (n0, i0, j0) in loop order.
        n0 = np.arange(0, n_total, f.tn)
        i0 = np.arange(0, k_total, f.ti)
        j0 = np.arange(0, k_total, f.tj)
        steps = np.stack(
            np.meshgrid(n0, i0, j0, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        n_steps = len(steps)  # f_in: inner cycles per output tile

        # Per-(cycle, col) coordinates and validity — tile-independent.
        n_tc = steps[:, 0:1] + dn[None, :]  # (T, C)
        i_tc = steps[:, 1:2] + di[None, :]
        j_tc = steps[:, 2:3] + dj[None, :]
        col_ok = (n_tc < n_total) & (i_tc < k_total) & (j_tc < k_total)
        macs_per_row = int(col_ok.sum())  # MACs of one valid row per tile
        # Flat-coordinate bases: tile-dependent parts are added per chunk
        # (per tile in the compiled kernel).
        neuron_base_tc = n_tc * (padded_size * padded_size) + i_tc * padded_size + j_tc
        kernel_base_tc = (n_tc * k_total + i_tc) * k_total + j_tc

        # Spatial tile origins (r0, c0) in loop order.
        r0, c0 = np.divmod(
            np.arange(ceil_div(s_total, f.tr) * ceil_div(s_total, f.tc)),
            ceil_div(s_total, f.tc),
        )
        r0, c0 = r0 * f.tr, c0 * f.tc
        # Tiles per chunk: within CHUNK_BYTES, or enough to read every
        # store about once per word it holds, since each replay also
        # passes over the rings once.
        words = max(self.config.neuron_store_words, self.config.kernel_store_words)
        chunk = max(
            self.CHUNK_BYTES // (n_steps * rows * cols * _SLOT_BYTES),
            ceil_div(words, n_steps),
        )

        # Both stores of every PE (store axis: neuron stores, then kernel
        # stores).
        n_pes = rows * cols
        stores = StoreRings(
            np.repeat(
                [self.config.neuron_store_words, self.config.kernel_store_words],
                n_pes,
            )
        )
        flips_active = (
            self.fault_model is not None
            and self.fault_model.has_transient_faults
        )
        # Flips are keyed in Python on each read's push, so only
        # fault-free runs take the compiled group kernel.
        compiled = None if flips_active else active_kernels()

        padded_flat = padded.reshape(-1)
        kernels_flat = kernels.reshape(-1)
        outputs = np.zeros((m_total, s_total, s_total))
        outputs_flat = outputs.reshape(-1)
        trace = SimTrace()
        tracer = self.tracer if self.tracer is not None else current_tracer()
        if compiled is not None:
            run_group = functools.partial(
                compiled.flexflow_group,
                np.ascontiguousarray(padded),
                np.ascontiguousarray(kernels),
                out_size=s_total,
                stride=stride,
                rows_per_map=f.tr * f.tc,
                row_offsets=np.stack([dm, dr, dc], axis=1),
                origins=np.stack([r0, c0], axis=1),
                col_ok=col_ok,
                neuron_base=neuron_base_tc,
                kernel_base=kernel_base_tc,
                stores=stores,
                outputs=outputs,
            )

        for m0 in range(0, m_total, f.tm):
            # One span per output-map tile group, with the group's exact
            # counter deltas — the same boundaries the per-PE machine
            # traces, so the span trees compare equal.
            with tracer.span(
                f"group:m0={m0}", category="sim.flexflow"
            ) as group_span:
                before = trace.as_dict() if tracer.enabled else None
                if compiled is not None:
                    # The whole group — every tile, cycle, store fill,
                    # adder tree and accumulator — in one compiled call.
                    for name, value in run_group(m0).items():
                        setattr(trace, name, getattr(trace, name) + value)
                    count_kernel_call("flexflow_group", compiled.backend)
                else:
                    m_r = m0 + dm  # (R,) per-row output coordinates
                    kernel_m = m_r * (n_total * k_total * k_total)
                    for start in range(0, len(r0), chunk):
                        r_r = r0[start:start + chunk, None] + dr  # (B, R)
                        c_r = c0[start:start + chunk, None] + dc
                        row_ok = (m_r < m_total) & (r_r < s_total) & (c_r < s_total)
                        active = row_ok[:, None, :, None] & col_ok[None, :, None, :]

                        # Data coordinates of every (tile, cycle, store, row,
                        # col) read; inactive lanes read coordinate 0.
                        shape = active.shape[:2] + (2, rows, cols)
                        data = np.empty(shape, dtype=np.int64)
                        neuron_tile = (r_r * stride) * padded_size + c_r * stride
                        data[:, :, 0] = neuron_base_tc[None, :, None, :] + (
                            neuron_tile[:, None, :, None]
                        )
                        data[:, :, 1] = kernel_base_tc[None, :, None, :] + (
                            kernel_m[None, None, :, None]
                        )
                        data *= active[:, :, None]
                        lanes = np.broadcast_to(active[:, :, None], shape)

                        # Demand-fill both stores of every PE in one replay.
                        miss, seq = store_replay(
                            stores, data.reshape(-1, 2 * n_pes),
                            lanes.reshape(-1, 2 * n_pes), n_steps,
                        )
                        # Bus sharing (RA/RS): a word already driven this cycle
                        # is free for every other PE on that bus.  A neuron word
                        # is shared by the rows that differ only in their dm
                        # offset (the coordinate has no m dependence); a kernel
                        # word is shared by all (Tr*Tc) rows of its (m % Tm)
                        # group.  Any other row pair touches distinct words.
                        by_group = miss.reshape(
                            shape[:3] + (f.tm, f.tr * f.tc, cols)
                        )
                        neuron_bus = int(by_group[:, :, 0].any(axis=2).sum())
                        kernel_bus = int(by_group[:, :, 1].any(axis=3).sum())
                        n_rows_ok = int(row_ok.sum())
                        macs = n_rows_ok * macs_per_row
                        trace.cycles += len(r_r) * n_steps
                        trace.neuron_buffer_reads += neuron_bus
                        trace.kernel_buffer_reads += kernel_bus
                        trace.bus_transfers += neuron_bus + kernel_bus
                        trace.local_store_writes += int(np.count_nonzero(miss))
                        trace.mac_ops += macs
                        trace.local_store_reads += 2 * macs
                        trace.register_accesses += 2 * n_steps * n_rows_ok
                        trace.neuron_buffer_writes += n_rows_ok

                        neuron_vals = padded_flat[data[:, :, 0]]
                        kernel_vals = kernels_flat[data[:, :, 1]]
                        if flips_active:
                            values = np.stack([neuron_vals, kernel_vals], axis=2)
                            self._corrupt_reads(
                                values, data, seq.reshape(shape), lanes
                            )
                            neuron_vals, kernel_vals = values[:, :, 0], values[:, :, 1]
                        # Adder trees and accumulators, in the per-PE
                        # machine's float-addition order: columns left to right
                        # within a cycle, cycles first to last within each tile.
                        products = np.where(active, neuron_vals * kernel_vals, 0.0)
                        tree = np.zeros(shape[:2] + (rows,))
                        for col in range(cols):
                            tree += products[..., col]
                        accumulators = np.zeros(row_ok.shape)
                        for step in range(n_steps):
                            accumulators += tree[:, step]

                        out_flat = (m_r * s_total + r_r) * s_total + c_r
                        outputs_flat[out_flat[row_ok]] = accumulators[row_ok]
                if before is not None:
                    delta = counter_delta(before, trace.as_dict())
                    group_span.set_cycles(delta["cycles"])
                    group_span.add_counters(delta)

        expected = f.outer_iterations(layer)
        if trace.cycles != expected:
            raise SimulationError(
                f"{layer.name}: simulated {trace.cycles} cycles,"
                f" expected outer_iterations={expected}"
            )
        return outputs, trace

    # -- transient faults ----------------------------------------------------

    def _corrupt_reads(
        self,
        values: np.ndarray,
        data: np.ndarray,
        seq: np.ndarray,
        lanes: np.ndarray,
    ) -> None:
        """Flip the bits each read of one chunk sees, in place.

        All four arrays share the chunk's ``(B, T, 2, R, C)`` shape.  A read
        sees its word as corrupted at the push it sees, so the flip is keyed
        on the physical PE, the flat data coordinate and that push's
        sequence; each distinct push read in the chunk is hashed once.
        """
        seed = self.fault_model.seed
        rate = self.fault_model.bitflip_rate
        store_shape = values.shape[2:]  # (2, R, C)
        store = np.broadcast_to(
            np.arange(np.prod(store_shape)).reshape(store_shape), values.shape
        )[lanes]
        read_seq = seq[lanes]
        read_data = data[lanes]
        _, first, inverse = np.unique(
            store * (int(read_seq.max()) + 1) + read_seq,
            return_index=True,
            return_inverse=True,
        )
        kind, row, col = np.unravel_index(store[first], store_shape)
        grid = self.grid
        pushes = zip(kind.tolist(), row.tolist(), col.tolist(), first.tolist())
        flips = [
            transient_flip(
                seed,
                _KINDS[k],
                grid.physical_row(r) if grid is not None else r,
                grid.physical_col(c) if grid is not None else c,
                int(read_data[i]),
                int(read_seq[i]),
                rate,
            )
            for k, r, c, i in pushes
        ]
        bits = np.array([-1 if b is None else b for b in flips])
        bits = bits[inverse.reshape(-1)]
        flipped = np.flatnonzero(bits >= 0)
        reads = values[lanes]
        words = reads[flipped].view(np.uint64) ^ (
            np.uint64(1) << bits[flipped].astype(np.uint64)
        )
        reads[flipped] = words.view(np.float64)
        values[lanes] = reads
