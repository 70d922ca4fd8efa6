"""Plain per-pair reference for the three baseline functional simulators.

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
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.interconnect import FifoLink
from repro.errors import SimulationError, SpecificationError
from repro.nn.layers import ConvLayer
from repro.nn.reference import pad_input
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
