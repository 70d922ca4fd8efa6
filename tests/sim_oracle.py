"""Plain reference machines for the four functional simulators.

:mod:`repro.sim.systolic_sim`, :mod:`repro.sim.mapping2d_sim` and
:mod:`repro.sim.tiling_sim` run each machine's data-independent schedule
once and carry the data path along as NumPy arrays.  This module keeps
the literal machines they are proven against: the systolic pipeline runs
once per ``(m, n)`` map pair, the 2D-Mapping window once per
``(m, block, n)``, and the tiling engine once per output position, with
scalar accumulators and one counter increment per event.  The loops are
the simulators' former bodies, unchanged, so the checks they raise are
the same ones.

``tests/sim/test_baseline_differential.py`` requires the simulators to
match these functions byte for byte on outputs and exactly on every
``SimTrace`` counter.

:class:`FlexFlowPerPELoop` is the FlexFlow simulator with its PE array
run as the literal per-PE machine — one :class:`CoordStore` pair per PE,
explicit bus sets per cycle, one ``group:m0=`` span per output-map group
— in place of :class:`~repro.sim.tile_engine.TileEngine`.
``tests/sim/test_tile_engine.py``, ``tests/sim/test_flexflow_differential.py``
and ``tests/obs/test_parity.py`` require the tile engine to match it
byte for byte on outputs, exactly on every counter and span for span;
:func:`trace_workload_per_pe` is ``repro trace`` on that machine.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.interconnect import FifoLink
from repro.arch.local_store import LocalStore
from repro.dataflow.grouping import GroupGeometry
from repro.dataflow.mapper import map_network
from repro.dataflow.unrolling import UnrollingFactors
from repro.errors import SimulationError, SpecificationError
from repro.faults.mask import LiveGrid
from repro.faults.model import apply_flip, transient_flip
from repro.nn.layers import ConvLayer
from repro.nn.network import Network
from repro.nn.reference import make_inputs, make_kernels, pad_input
from repro.obs.profile import WorkloadTrace, breakdown_rows
from repro.obs.tracer import Tracer, counter_delta
from repro.sim.flexflow_sim import FlexFlowFunctionalSim
from repro.sim.trace import SimTrace


# -- Systolic ------------------------------------------------------------------


@dataclass
class _Flight:
    """An in-flight output neuron moving through the pipeline."""

    r: int
    c: int
    acc: float


def systolic(
    layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
) -> Tuple[np.ndarray, SimTrace]:
    """One ``K x K`` systolic pipeline run per ``(m, n)`` map pair."""
    if layer.stride != 1:
        raise SpecificationError("systolic dataflow models stride-1 layers")
    padded = pad_input(inputs, layer.padding)
    outputs = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
    trace = SimTrace()
    for m in range(layer.out_maps):
        for n in range(layer.in_maps):
            _systolic_pair(
                padded[n], kernels[m, n], outputs[m], layer.out_size, trace
            )
    return outputs, trace


def _systolic_pair(
    image: np.ndarray,
    kernel: np.ndarray,
    out_map: np.ndarray,
    out_size: int,
    trace: SimTrace,
) -> None:
    k = kernel.shape[0]
    width = image.shape[1]
    height = image.shape[0]
    fifo_depth = max(1, width - k)
    # regs[i][j] is the output currently resident at PE (i, j).
    regs: List[List[Optional[_Flight]]] = [[None] * k for _ in range(k)]
    fifos = [FifoLink(fifo_depth + 1, name=f"row-fifo-{i}") for i in range(k - 1)]

    # The raster runs K extra virtual rows past the image: the pipeline
    # drain, during which no neurons are broadcast but in-flight
    # outputs keep shifting toward the exit.
    for rr in range(height + k):
        for cc in range(width):
            trace.cycles += 1
            real = rr < height
            value = image[rr, cc] if real else 0.0
            if real:
                trace.neuron_buffer_reads += 1
                trace.bus_transfers += 1  # broadcast to all PEs
            # Shift phase: rightmost column exits first.
            for i in range(k):
                exiting = regs[i][k - 1]
                if exiting is not None:
                    if i < k - 1:
                        fifos[i].push(exiting)
                        trace.fifo_accesses += 1
                    elif 0 <= exiting.r < out_size and 0 <= exiting.c < out_size:
                        # Drained complete at PE (K-1, K-1); edge
                        # flights (invalid windows) are discarded.
                        out_map[exiting.r, exiting.c] += exiting.acc
                        trace.neuron_buffer_writes += 1
                for j in range(k - 1, 0, -1):
                    regs[i][j] = regs[i][j - 1]
                if i == 0:
                    # A fresh output O(rr, cc) enters the first stage
                    # (none during the drain rows).
                    regs[0][0] = _Flight(r=rr, c=cc, acc=0.0) if real else None
                else:
                    entering = None
                    fifo = fifos[i - 1]
                    if not fifo.empty and fifo.peek().r == rr - i and fifo.peek().c == cc:
                        entering = fifo.pop()
                        trace.fifo_accesses += 1
                    regs[i][0] = entering
            # Accumulate phase: every PE multiplies the broadcast neuron
            # by its resident synapse into its in-flight output.
            for i in range(k):
                for j in range(k):
                    flight = regs[i][j]
                    if flight is None:
                        continue
                    # One stage per cycle: the flight at PE (i, j) is
                    # the one injected i*W + j cycles ago, in raster
                    # (linear) terms.  Row wraps borrow across rows for
                    # edge flights, hence the linear-index invariant.
                    expected_linear = rr * width + cc - i * width - j
                    if flight.r * width + flight.c != expected_linear:
                        raise SimulationError(
                            f"pipeline timing broken at PE({i},{j}): output"
                            f" ({flight.r},{flight.c}) at broadcast"
                            f" ({rr},{cc})"
                        )
                    contributes = (
                        real
                        and 0 <= flight.r < out_size
                        and 0 <= flight.c < out_size
                        and flight.r + i == rr
                        and flight.c + j == cc
                    )
                    if contributes:
                        flight.acc += value * kernel[i, j]
                        trace.mac_ops += 1
                        trace.register_accesses += 2
    for i in range(k - 1):
        if not fifos[i].empty:
            raise SimulationError(f"row FIFO {i} not drained at end of layer")


# -- 2D-Mapping ----------------------------------------------------------------


def mapping2d(
    layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray, block_size: int
) -> Tuple[np.ndarray, SimTrace]:
    """One ``K^2``-cycle window schedule per ``(m, block, n)``."""
    if layer.stride != 1:
        raise SpecificationError("2D-Mapping dataflow models stride-1 layers")
    padded = pad_input(inputs, layer.padding)
    block = block_size
    out = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
    trace = SimTrace()
    for m in range(layer.out_maps):
        for r0 in range(0, layer.out_size, block):
            for c0 in range(0, layer.out_size, block):
                rows = min(block, layer.out_size - r0)
                cols = min(block, layer.out_size - c0)
                psum = np.zeros((rows, cols))
                for n in range(layer.in_maps):
                    _mapping2d_block(
                        padded[n],
                        kernels[m, n],
                        psum,
                        (r0, c0),
                        trace,
                    )
                out[m, r0:r0 + rows, c0:c0 + cols] = psum
                trace.neuron_buffer_writes += rows * cols
    return out, trace


def _mapping2d_block(
    image: np.ndarray,
    kernel: np.ndarray,
    psum: np.ndarray,
    origin: Tuple[int, int],
    trace: SimTrace,
) -> None:
    k = kernel.shape[0]
    rows, cols = psum.shape
    r0, c0 = origin
    # The neuron window currently held by the array: window[p, q] is
    # the neuron PE (p, q) will multiply this cycle.
    window: Optional[np.ndarray] = None
    for i in range(k):
        for j in range(k):
            trace.cycles += 1
            trace.kernel_buffer_reads += 1  # synapse broadcast
            trace.bus_transfers += 1
            if window is None:
                # Initial load: the whole (rows x cols) window.
                window = image[r0 + i:r0 + i + rows, c0 + j:c0 + j + cols].copy()
                trace.neuron_buffer_reads += rows * cols
            elif j > 0:
                # Shift left: PEs take their right neighbour's neuron;
                # the rightmost column loads fresh neurons.
                window[:, :-1] = window[:, 1:]
                trace.fifo_accesses += 2 * rows * (cols - 1)
                window[:, -1] = image[
                    r0 + i:r0 + i + rows, c0 + j + cols - 1
                ]
                trace.neuron_buffer_reads += rows
            else:
                # Kernel-row boundary: the window moves one row down in
                # the image and rewinds K-1 columns.  The overlap with
                # the previous window — (rows-1) x (cols-(K-1)) neurons
                # — shifts through the per-PE FIFOs; the fresh bottom
                # row and the rewound leading columns reload from the
                # buffer.
                overlap_rows = rows - 1
                overlap_cols = max(0, cols - (k - 1))
                reused = overlap_rows * overlap_cols
                trace.fifo_accesses += 2 * reused
                trace.neuron_buffer_reads += rows * cols - reused
                window = image[
                    r0 + i:r0 + i + rows, c0:c0 + cols
                ].copy()
            sample = window[0, 0]
            expected = image[r0 + i, c0 + j]
            if sample != expected:
                raise SimulationError(
                    f"window misaligned at kernel ({i},{j}):"
                    f" PE(0,0) holds {sample}, expected {expected}"
                )
            psum += window * kernel[i, j]
            trace.mac_ops += rows * cols
            trace.register_accesses += 2 * rows * cols


# -- Tiling --------------------------------------------------------------------


def tiling(
    layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray, tm: int, tn: int
) -> Tuple[np.ndarray, SimTrace]:
    """One ``K^2``-cycle adder-tree pass per ``(m0, n0, r, c)``."""
    padded = pad_input(inputs, layer.padding)
    out = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
    trace = SimTrace()
    stride = layer.stride
    k = layer.kernel
    for m0 in range(0, layer.out_maps, tm):
        m_hi = min(m0 + tm, layer.out_maps)
        for n0 in range(0, layer.in_maps, tn):
            n_hi = min(n0 + tn, layer.in_maps)
            first_round = n0 == 0
            for r in range(layer.out_size):
                for c in range(layer.out_size):
                    # Partial-sum read-back when accumulating a later
                    # input-map tile onto stored partials.
                    if not first_round:
                        trace.neuron_buffer_partial_reads += m_hi - m0
                    acc = np.zeros(m_hi - m0)
                    for i in range(k):
                        for j in range(k):
                            trace.cycles += 1
                            neurons = padded[
                                n0:n_hi, r * stride + i, c * stride + j
                            ]
                            trace.neuron_buffer_reads += n_hi - n0
                            trace.bus_transfers += n_hi - n0
                            synapses = kernels[m0:m_hi, n0:n_hi, i, j]
                            trace.kernel_buffer_reads += synapses.size
                            products = synapses * neurons[np.newaxis, :]
                            acc += products.sum(axis=1)
                            trace.mac_ops += synapses.size
                            trace.register_accesses += 2 * (m_hi - m0)
                    out[m0:m_hi, r, c] += acc
                    trace.neuron_buffer_writes += m_hi - m0
    return out, trace


# -- FlexFlow ------------------------------------------------------------------

#: A push-time corruption hook: ``(coord, push_sequence, value) -> value``.
Corruptor = Callable[[Hashable, int, float], float]


class CoordStore:
    """A local store addressed by data coordinates.

    Wraps :class:`LocalStore`'s circular auto-increment writes with a
    coordinate -> address map, evicting the overwritten coordinate — so a
    word evicted before reuse must be re-broadcast, making the observed
    traffic capacity-aware.
    """

    def __init__(
        self,
        capacity_words: int,
        name: str,
        corruptor: Optional[Corruptor] = None,
    ) -> None:
        self.store = LocalStore(capacity_words, name=name)
        self._address_of: Dict[Hashable, int] = {}
        self._coord_at: Dict[int, Hashable] = {}
        self._corruptor = corruptor
        #: 1-based push counter — the ``sequence`` fed to the fault hash.
        self.pushes = 0

    def contains(self, coord: Hashable) -> bool:
        return coord in self._address_of

    def write(self, coord: Hashable, value: float) -> None:
        self.pushes += 1
        if self._corruptor is not None:
            value = self._corruptor(coord, self.pushes, value)
        address = self.store.push(value)
        stale = self._coord_at.get(address)
        if stale is not None:
            del self._address_of[stale]
        self._coord_at[address] = coord
        self._address_of[coord] = address

    def read(self, coord: Hashable) -> float:
        address = self._address_of.get(coord)
        if address is None:
            raise SimulationError(f"{self.store.name}: {coord} not resident")
        return self.store.read(address)

    @property
    def reads(self) -> int:
        return self.store.reads

    @property
    def writes(self) -> int:
        return self.store.writes


@dataclass
class _PE:
    """One processing element: two coordinate-addressed local stores."""

    neuron_store: CoordStore
    kernel_store: CoordStore


class FlexFlowPerPELoop(FlexFlowFunctionalSim):
    """:class:`~repro.sim.FlexFlowFunctionalSim` on the per-PE machine.

    Mapping, fault masks, operand checks and the layer and phase spans
    are the simulator's own; only the compute phase differs.
    """

    def _run_array(
        self,
        layer: ConvLayer,
        padded: np.ndarray,
        kernels: np.ndarray,
        factors: UnrollingFactors,
        grid: Optional[LiveGrid],
        tracer: Tracer,
    ) -> Tuple[np.ndarray, SimTrace]:
        """The golden per-PE loop: one CoordStore pair per PE."""
        geometry = GroupGeometry(factors, self.config.array_dim)
        stride = layer.stride
        m_total, s_total, k_total = layer.out_maps, layer.out_size, layer.kernel
        n_total = layer.in_maps
        padded_size = padded.shape[1]

        flips_active = (
            self.fault_model is not None
            and self.fault_model.has_transient_faults
        )

        def corruptors(row: int, col: int):
            """Push-time flip hooks for the PE at logical ``(row, col)``.

            The fault hash keys on *physical* coordinates (the live grid's
            steering), so both paths corrupt the same words regardless
            of which logical PE a computation lands on.
            """
            if not flips_active:
                return (None, None)
            phys_row = grid.physical_row(row) if grid is not None else row
            phys_col = grid.physical_col(col) if grid is not None else col
            seed = self.fault_model.seed
            rate = self.fault_model.bitflip_rate

            def corrupt_neuron(coord, sequence, value):
                n, in_r, in_c = coord
                flat = n * (padded_size * padded_size) + in_r * padded_size + in_c
                bit = transient_flip(
                    seed, "neuron", phys_row, phys_col, flat, sequence, rate
                )
                return value if bit is None else apply_flip(value, bit)

            def corrupt_kernel(coord, sequence, value):
                m, n, i, j = coord
                flat = ((m * n_total + n) * k_total + i) * k_total + j
                bit = transient_flip(
                    seed, "kernel", phys_row, phys_col, flat, sequence, rate
                )
                return value if bit is None else apply_flip(value, bit)

            return (corrupt_neuron, corrupt_kernel)

        def make_pe(row: int, col: int) -> _PE:
            neuron_corrupt, kernel_corrupt = corruptors(row, col)
            return _PE(
                neuron_store=CoordStore(
                    self.config.neuron_store_words,
                    f"ns({row},{col})",
                    corruptor=neuron_corrupt,
                ),
                kernel_store=CoordStore(
                    self.config.kernel_store_words,
                    f"ks({row},{col})",
                    corruptor=kernel_corrupt,
                ),
            )

        pes = [
            [make_pe(row, col) for col in range(geometry.active_cols)]
            for row in range(geometry.active_rows)
        ]

        outputs = np.zeros((m_total, s_total, s_total))
        trace = SimTrace()
        f = factors

        for m0 in range(0, m_total, f.tm):
            with tracer.span(
                f"group:m0={m0}", category="sim.flexflow"
            ) as group_span:
                before = trace.as_dict() if tracer.enabled else None
                for r0 in range(0, s_total, f.tr):
                    for c0 in range(0, s_total, f.tc):
                        accumulators = np.zeros(geometry.active_rows)
                        row_targets = {}
                        for row in range(geometry.active_rows):
                            dm, dr, dc = geometry.decompose_row(row)
                            m, r, c = m0 + dm, r0 + dr, c0 + dc
                            if m < m_total and r < s_total and c < s_total:
                                row_targets[row] = (m, r, c)
                        for n0 in range(0, n_total, f.tn):
                            for i0 in range(0, k_total, f.ti):
                                for j0 in range(0, k_total, f.tj):
                                    trace.cycles += 1
                                    self._execute_cycle(
                                        pes,
                                        geometry,
                                        padded,
                                        kernels,
                                        accumulators,
                                        row_targets,
                                        trace,
                                        bases=(m0, n0, r0, c0, i0, j0),
                                        layer_dims=(m_total, n_total, s_total, k_total),
                                        stride=stride,
                                    )
                        for row, (m, r, c) in row_targets.items():
                            outputs[m, r, c] = accumulators[row]
                            trace.neuron_buffer_writes += 1
                if before is not None:
                    delta = counter_delta(before, trace.as_dict())
                    group_span.set_cycles(delta["cycles"])
                    group_span.add_counters(delta)
        return outputs, trace

    def _execute_cycle(
        self,
        pes,
        geometry: GroupGeometry,
        padded: np.ndarray,
        kernels: np.ndarray,
        accumulators: np.ndarray,
        row_targets,
        trace: SimTrace,
        *,
        bases,
        layer_dims,
        stride: int,
    ) -> None:
        """One unrolled tile: demand-fill stores, then all-PE MAC + trees."""
        m0, n0, r0, c0, i0, j0 = bases
        m_total, n_total, s_total, k_total = layer_dims
        f = geometry.factors

        # Per-cycle broadcast sharing: a word already driven onto a bus
        # this cycle is free for every other PE on that bus (RA/RS).
        neuron_bus_words = [set() for _ in range(geometry.active_cols)]
        kernel_group_words: Dict[Tuple[int, int], set] = {}

        for row, target in row_targets.items():
            dm = geometry.decompose_row(row)[0]
            _, r, c = target
            m = target[0]
            tree_sum = 0.0
            for col in range(geometry.active_cols):
                dn, di, dj = geometry.decompose_col(col)
                n, i, j = n0 + dn, i0 + di, j0 + dj
                if n >= n_total or i >= k_total or j >= k_total:
                    continue
                in_r = r * stride + i
                in_c = c * stride + j
                pe = pes[row][col]
                neuron_coord = (n, in_r, in_c)
                if not pe.neuron_store.contains(neuron_coord):
                    if neuron_coord not in neuron_bus_words[col]:
                        trace.neuron_buffer_reads += 1
                        trace.bus_transfers += 1
                        neuron_bus_words[col].add(neuron_coord)
                    pe.neuron_store.write(
                        neuron_coord, padded[n, in_r, in_c]
                    )
                    trace.local_store_writes += 1
                kernel_coord = (m, n, i, j)
                if not pe.kernel_store.contains(kernel_coord):
                    group = geometry.group_for_kernel(m, n)
                    words = kernel_group_words.setdefault(group, set())
                    if kernel_coord not in words:
                        trace.kernel_buffer_reads += 1
                        trace.bus_transfers += 1
                        words.add(kernel_coord)
                    pe.kernel_store.write(kernel_coord, kernels[m, n, i, j])
                    trace.local_store_writes += 1
                neuron = pe.neuron_store.read(neuron_coord)
                synapse = pe.kernel_store.read(kernel_coord)
                trace.local_store_reads += 2
                tree_sum += neuron * synapse
                trace.mac_ops += 1
            accumulators[row] += tree_sum
            trace.register_accesses += 2  # accumulator read + write


def trace_workload_per_pe(network: Network, array_dim: int) -> WorkloadTrace:
    """:func:`repro.obs.profile.trace_workload` on the per-PE machine."""
    mapping = map_network(network, array_dim).by_layer_name()
    config = ArchConfig().scaled_to(array_dim)
    tracer = Tracer()
    for layer in network.conv_layers:
        FlexFlowPerPELoop(
            config, factors=mapping[layer.name].factors, tracer=tracer
        ).run_layer(layer, make_inputs(layer), make_kernels(layer))
    return WorkloadTrace(
        network_name=network.name,
        array_dim=array_dim,
        tracer=tracer,
        rows=breakdown_rows(tracer, array_dim),
    )
