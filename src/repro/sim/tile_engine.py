"""Fast path for the FlexFlow functional simulator.

:class:`TileEngine` executes the same computation as the per-PE reference
loop in :mod:`repro.sim.flexflow_sim` — one unrolled tile per cycle, RA/RS
broadcast sharing, capacity-limited circular local stores — one
output-map group at a time, on one of two paths:

* **one compiled call per group** whenever the C kernel suite is loaded
  and the run has no transient bit flips: ``repro_flexflow_group``
  (:meth:`~repro.kernels.cext.CExtKernels.flexflow_group`) runs every
  spatial tile and inner cycle of the group in reference order, with the
  store fills, bus counts, adder trees and accumulators below, and
  returns the group's counter deltas;
* **the NumPy chunk loop** otherwise (the ``numpy`` backend, and every
  bit-flip run): a *chunk* of the group's output tiles per step, every
  tile's ``f_in`` inner cycles on every PE as whole-array passes.

Either path is an executable replacement, not an approximation, and
``tests/kernels/test_parity.py`` pins the two against each other group by
group:

* **outputs** are bit-identical: within each cycle the adder-tree sum is
  accumulated column by column in PE-column order, and the per-row
  accumulator adds one tree sum per cycle in cycle order — the exact
  float-addition sequence of the reference loop;
* **cycle count** is asserted equal to ``factors.outer_iterations(layer)``
  (the Section 4.2 one-tile-per-cycle invariant);
* **traffic counters** (buffer reads, bus transfers, local-store
  reads/writes) are exact, including capacity evictions of the per-PE
  circular stores.

**The last-push table.**  Both local stores of every PE share one
last-push table with one store axis: PE ``p``'s neuron store is store
``p``, its kernel store is store ``R*C + p``, and each owns a contiguous
slice of the table.  The compiled kernel reads 0 as "never pushed"
(pushes are 1-based), so its table starts as zeroed pages that the OS
maps on first touch.  In the chunk loop, a chunk's whole access stream —
``(tiles * f_in, 2 * R * C)`` coordinates in access order — demand-fills
every store in one call to :func:`~repro.kernels.replay.store_replay`,
which holds the residency rule (a compiled loop, or the NumPy per-tile
fixed point); :data:`TileEngine.CHUNK_BYTES` of temporaries bound the
tiles per chunk.

**Transient faults.**  A store word holds what its last push wrote, so
what a read sees is a pure function of the push it sees: the replay's
read sequence (the read's own push on a miss, the word's last push on a
hit).  The flip is :func:`~repro.faults.model.transient_flip` of the
physical PE, the data coordinate and that sequence — the push-time
corruption of :class:`~repro.sim.flexflow_sim.CoordStore` — keyed by a
blake2b hash in Python, so bit-flip runs take the chunk loop and flips
land on the gathered reads.

Memory for the last-push table is ``active_PEs x coordinate_space``; when
that exceeds :data:`TileEngine.MAX_TABLE_BYTES` the engine reports itself
infeasible and :class:`~repro.sim.flexflow_sim.FlexFlowFunctionalSim`
runs its per-PE loop instead.  Operands reach :meth:`TileEngine.run` as
``float64`` (:func:`~repro.sim.trace.layer_operands`).
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
from repro.kernels.replay import NEVER, store_replay
from repro.nn.layers import ConvLayer
from repro.obs.tracer import Tracer, counter_delta, current_tracer
from repro.sim.trace import SimTrace

#: Temporary bytes per (cycle, PE) slot of a chunk: coordinates, masks,
#: read sequences, values and products, for both stores.
_SLOT_BYTES = 96

#: Store kinds along the stacked store axis, as the fault hash names them.
_KINDS = ("neuron", "kernel")


class TileEngine:
    """Fast execution of one CONV layer on the FlexFlow array.

    Args:
        config: the architecture (array dimension, local-store capacities).
        layer: the CONV layer to execute.
        factors: the unrolling factors (must already satisfy Eq. 1).
    """

    #: Upper bound on the combined last-push table footprint, in bytes.
    #: Beyond this the engine is infeasible and
    #: :class:`~repro.sim.flexflow_sim.FlexFlowFunctionalSim` runs its
    #: per-PE loop instead (such layers are far outside the functional
    #: simulator's practical envelope anyway).
    MAX_TABLE_BYTES = 256 * 1024 * 1024

    #: Budget for one chunk's temporaries, in bytes; bounds how many
    #: spatial tiles replay per :func:`store_replay` call.
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

    # -- feasibility ---------------------------------------------------------

    @classmethod
    def table_bytes(
        cls, config: ArchConfig, layer: ConvLayer, factors: UnrollingFactors
    ) -> int:
        """Footprint of the per-PE last-push tables for this layer."""
        rows = factors.column_occupancy
        cols = factors.row_occupancy
        padded_size = layer.in_size + layer.padding
        neuron_space = layer.in_maps * padded_size * padded_size
        kernel_space = (
            layer.out_maps * layer.in_maps * layer.kernel * layer.kernel
        )
        return rows * cols * (neuron_space + kernel_space) * 8

    @classmethod
    def is_feasible(
        cls, config: ArchConfig, layer: ConvLayer, factors: UnrollingFactors
    ) -> bool:
        """Whether the vectorized engine can run this layer in memory."""
        return cls.table_bytes(config, layer, factors) <= cls.MAX_TABLE_BYTES

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
        if self.table_bytes(self.config, layer, f) > self.MAX_TABLE_BYTES:
            raise SimulationError(
                f"{layer.name}: last-push tables exceed"
                f" {self.MAX_TABLE_BYTES} bytes; FlexFlowFunctionalSim runs"
                f" such layers on its per-PE loop"
            )

        # Row/column offset decompositions (Section 4.3 index functions).
        dm, rest = np.divmod(np.arange(rows), f.tr * f.tc)
        dr, dc = np.divmod(rest, f.tc)
        dn, rest = np.divmod(np.arange(cols), f.ti * f.tj)
        di, dj = np.divmod(rest, f.tj)

        # Inner-cycle bases (n0, i0, j0) in reference loop order.
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

        # Spatial tile origins (r0, c0) in reference loop order.
        r0, c0 = np.divmod(
            np.arange(ceil_div(s_total, f.tr) * ceil_div(s_total, f.tc)),
            ceil_div(s_total, f.tc),
        )
        r0, c0 = r0 * f.tr, c0 * f.tc
        chunk = max(1, self.CHUNK_BYTES // (n_steps * rows * cols * _SLOT_BYTES))

        # One last-push table for both stores of every PE (store axis:
        # neuron stores, then kernel stores), each a contiguous slice.
        n_pes = rows * cols
        neuron_space = n_total * padded_size * padded_size
        kernel_space = m_total * n_total * k_total * k_total
        flips_active = (
            self.fault_model is not None
            and self.fault_model.has_transient_faults
        )
        # Flips are keyed in Python on each read's push, so only
        # fault-free runs take the compiled group kernel.  It reads 0 as
        # "never pushed".
        compiled = None if flips_active else active_kernels()
        table_size = n_pes * (neuron_space + kernel_space)
        if compiled is not None:
            table = np.zeros(table_size, dtype=np.int64)
        else:
            table = np.full(table_size, NEVER)
        store_base = np.concatenate(
            [
                np.arange(n_pes) * neuron_space,
                n_pes * neuron_space + np.arange(n_pes) * kernel_space,
            ]
        ).reshape(2, rows, cols)
        counts = np.zeros(2 * n_pes, dtype=np.int64)
        capacity = np.repeat(
            [self.config.neuron_store_words, self.config.kernel_store_words],
            n_pes,
        )

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
                table=table,
                counts=counts,
                capacity=(
                    self.config.neuron_store_words,
                    self.config.kernel_store_words,
                ),
                outputs=outputs,
            )

        for m0 in range(0, m_total, f.tm):
            # One span per output-map tile group, with the group's exact
            # counter deltas — the same boundaries the reference loop
            # traces, so both engines' span trees compare equal.
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
                            table, counts, capacity,
                            (data + store_base).reshape(-1, 2 * n_pes),
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
                        # Adder trees and accumulators, in the reference
                        # float-addition order: columns left to right within a
                        # cycle, cycles first to last within each tile.
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
