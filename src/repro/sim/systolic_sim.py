"""Functional simulation of the Systolic (SFSNMS) pipeline dataflow.

Implements Section 3.1's machine literally: a ``K x K`` PE array where

* one input neuron is broadcast to all PEs per cycle (raster order over
  the input map),
* PE ``(i, j)`` holds constant synapse ``K(i, j)`` in a register and, at
  the cycle when neuron ``I(rr, cc)`` is broadcast, accumulates into the
  in-flight output neuron ``O(rr - i, cc - j)``,
* in-flight outputs shift one PE to the right each cycle, cross row
  boundaries through inter-row FIFOs of depth ``W - K`` (the paper's
  12 - 3 = 9 example), and drain complete at PE ``(K-1, K-1)``.

Each in-flight output carries its coordinates, so the simulator *checks*
the shift/FIFO timing invariant (``r = rr - i, c = cc - j``) instead of
assuming it — a wrong FIFO depth or shift order fails loudly.

The modeled machine is one array that runs the ``(input map, output
map)`` pairs one after another, accumulating partial output maps across
input maps, as the single array of a DC-CNN-style design would.  That
schedule is the same for every pair, so the simulator runs it once per
layer: each in-flight output carries an ``(M, N)`` accumulator, one slot
per pair, and every counter grows by the pair count per event.  Output
maps sum their pairs in ascending input-map order, which is the order
the sequential machine adds them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.interconnect import FifoLink
from repro.errors import SimulationError, SpecificationError
from repro.nn.layers import ConvLayer
from repro.nn.reference import pad_input
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.trace import SimTrace


@dataclass
class _Flight:
    """An in-flight output neuron moving through the pipeline."""

    r: int
    c: int
    acc: np.ndarray  # (M, N): one partial sum per (output, input) map pair


class SystolicFunctionalSim:
    """Cycle-level functional model of one systolic array."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer

    def run_layer(
        self, layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute a CONV layer on a ``K x K`` systolic array.

        Only stride-1 layers are supported — the systolic shift dataflow
        produces one output per broadcast, which is exactly the stride-1
        schedule (the paper's baselines share this restriction).
        """
        if layer.stride != 1:
            raise SpecificationError("systolic dataflow models stride-1 layers")
        if tuple(inputs.shape) != layer.input_shape:
            raise SpecificationError(
                f"inputs shape {inputs.shape} != {layer.input_shape}"
            )
        if tuple(kernels.shape) != layer.kernel_shape:
            raise SpecificationError(
                f"kernels shape {kernels.shape} != {layer.kernel_shape}"
            )
        padded = pad_input(inputs, layer.padding)
        trace = SimTrace()
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.systolic"
        ) as span:
            # drained[:, n] holds pair (m, n)'s finished output map.
            drained = self._run_pipeline(padded, kernels, layer.out_size, trace)
            outputs = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
            for n in range(layer.in_maps):
                outputs += drained[:, n]
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return outputs, trace

    def _run_pipeline(
        self,
        images: np.ndarray,
        kernels: np.ndarray,
        out_size: int,
        trace: SimTrace,
    ) -> np.ndarray:
        """One pass of the pair schedule, all ``(m, n)`` pairs in lockstep."""
        maps_out, maps_in, k, _ = kernels.shape
        pairs = maps_out * maps_in
        _, height, width = images.shape
        drained = np.zeros((maps_out, maps_in, out_size, out_size))
        fifo_depth = max(1, width - k)
        # regs[i][j] is the output currently resident at PE (i, j).
        regs: List[List[Optional[_Flight]]] = [[None] * k for _ in range(k)]
        fifos = [FifoLink(fifo_depth + 1, name=f"row-fifo-{i}") for i in range(k - 1)]

        # The raster runs K extra virtual rows past the image: the pipeline
        # drain, during which no neurons are broadcast but in-flight
        # outputs keep shifting toward the exit.
        for rr in range(height + k):
            for cc in range(width):
                trace.cycles += pairs
                real = rr < height
                # One broadcast neuron per input map.
                value = images[:, rr, cc] if real else 0.0
                if real:
                    trace.neuron_buffer_reads += pairs
                    trace.bus_transfers += pairs  # broadcast to all PEs
                # Shift phase: rightmost column exits first.
                for i in range(k):
                    exiting = regs[i][k - 1]
                    if exiting is not None:
                        if i < k - 1:
                            fifos[i].push(exiting)
                            trace.fifo_accesses += pairs
                        elif 0 <= exiting.r < out_size and 0 <= exiting.c < out_size:
                            # Drained complete at PE (K-1, K-1); edge
                            # flights (invalid windows) are discarded.
                            drained[:, :, exiting.r, exiting.c] = exiting.acc
                            trace.neuron_buffer_writes += pairs
                    for j in range(k - 1, 0, -1):
                        regs[i][j] = regs[i][j - 1]
                    if i == 0:
                        # A fresh output O(rr, cc) enters the first stage
                        # (none during the drain rows).
                        regs[0][0] = (
                            _Flight(r=rr, c=cc, acc=np.zeros((maps_out, maps_in)))
                            if real
                            else None
                        )
                    else:
                        entering = None
                        fifo = fifos[i - 1]
                        if not fifo.empty and fifo.peek().r == rr - i and fifo.peek().c == cc:
                            entering = fifo.pop()
                            trace.fifo_accesses += pairs
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
                            flight.acc += value * kernels[:, :, i, j]
                            trace.mac_ops += pairs
                            trace.register_accesses += 2 * pairs
        for i in range(k - 1):
            if not fifos[i].empty:
                raise SimulationError(f"row FIFO {i} not drained at end of layer")
        return drained
