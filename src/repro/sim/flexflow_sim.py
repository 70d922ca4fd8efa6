"""Functional cycle-level simulation of the FlexFlow PE array.

This simulator executes a CONV layer exactly the way Section 4 describes:

* the PE array is logically grouped by the unrolling factors
  (:class:`~repro.dataflow.grouping.GroupGeometry`);
* every PE owns a neuron local store and a kernel local store
  (:class:`~repro.arch.local_store.LocalStore`), demand-filled over
  vertical (neuron) and horizontal (kernel) common data buses with
  per-cycle broadcast sharing (RA/RS);
* each cycle, every active PE row sums ``Tn * Ti * Tj`` products through
  its adder tree into the row's output-neuron accumulator;
* one unrolled tile executes per cycle, so the simulated cycle count must
  equal ``factors.outer_iterations(layer)`` — an invariant the tests pin.

The result is numerically compared against the NumPy golden model; this is
the executable proof that the Section 4.3 mapping formulas, the RA synapse
reordering, and the local-store addressing are mutually consistent.

Three interchangeable engines produce the result:

* ``"reference"`` — the per-PE Python loop below: one :class:`CoordStore`
  pair per PE, explicit bus sets per cycle.  Slow, but the golden
  definition of the machine's behaviour.
* ``"tile"`` — the :class:`~repro.sim.tile_engine.TileEngine` fast path,
  which replays chunks of output tiles as whole arrays; bit-identical on
  outputs and exact on every counter (``tests/sim/test_tile_engine.py``
  and ``tests/sim/test_flexflow_differential.py`` pin this).
* ``"analytic"`` — the closed-form model in :mod:`repro.sim.analytic`:
  counters are computed, not observed, yet exactly equal to the cycle
  engines' (``tests/sim/test_analytic.py`` pins this); outputs come from
  the NumPy golden model rather than the simulated adder trees, so this
  engine refuses transient-fault runs (a bit flip changes outputs but not
  traffic, which only the executing engines can show).

The default ``"auto"`` picks the tile path whenever its index tables fit
in memory and falls back to the reference loop otherwise; the analytic
engine is only used when explicitly selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.local_store import LocalStore
from repro.dataflow.grouping import GroupGeometry
from repro.dataflow.mapper import map_layer
from repro.dataflow.unrolling import UnrollingFactors, ceil_div
from repro.errors import SimulationError, SpecificationError
from repro.faults.mask import AvailabilityMask, LiveGrid, live_grid
from repro.faults.model import FaultModel, apply_flip, transient_flip
from repro.nn.layers import ConvLayer
from repro.nn.reference import conv2d, pad_input
from repro.obs.tracer import Tracer, counter_delta, current_tracer
from repro.sim.analytic import analytic_flexflow_trace
from repro.sim.tile_engine import TileEngine
from repro.sim.trace import SimTrace

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


class FlexFlowFunctionalSim:
    """Cycle-level functional model of the FlexFlow convolutional unit."""

    #: Recognized execution engines (see module docstring).
    ENGINES = ("auto", "tile", "reference", "analytic")

    def __init__(
        self,
        config: Optional[ArchConfig] = None,
        *,
        factors: Optional[UnrollingFactors] = None,
        engine: str = "auto",
        fault_model: Optional[FaultModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if engine not in self.ENGINES:
            raise SpecificationError(
                f"engine must be one of {self.ENGINES}, got {engine!r}"
            )
        self.config = config or ArchConfig(array_dim=4)
        self.factors = factors
        self.engine = engine
        self.fault_model = fault_model
        #: ``None`` defers to the ambient tracer (``obs.current_tracer``)
        #: at run time, so an installed tracer is picked up without
        #: plumbing; the default ambient tracer is disabled.
        self.tracer = tracer

    def _resolve_mask(self) -> Optional[AvailabilityMask]:
        """The effective permanent-fault mask for this run.

        A fault model's derived mask takes precedence over (and composes
        with) the config's static ``pe_mask``.
        """
        model_mask: Optional[AvailabilityMask] = None
        if self.fault_model is not None and self.fault_model.has_permanent_faults:
            model_mask = self.fault_model.mask_for(self.config.array_dim)
        config_mask = self.config.pe_mask
        if model_mask is None:
            return config_mask
        if config_mask is None or config_mask.is_healthy:
            return model_mask
        return AvailabilityMask(
            array_dim=self.config.array_dim,
            dead=model_mask.dead | config_mask.dead,
        )

    def run_layer(
        self,
        layer: ConvLayer,
        inputs: np.ndarray,
        kernels: np.ndarray,
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute one CONV layer; returns ``(outputs, trace)``.

        Args:
            layer: the layer spec (defines shapes and the mapping).
            inputs: ``(N, in_size, in_size)`` input feature maps.
            kernels: ``(M, N, K, K)`` kernel tensor.
        """
        if tuple(inputs.shape) != layer.input_shape:
            raise SpecificationError(
                f"inputs shape {inputs.shape} != {layer.input_shape}"
            )
        if tuple(kernels.shape) != layer.kernel_shape:
            raise SpecificationError(
                f"kernels shape {kernels.shape} != {layer.kernel_shape}"
            )
        dim = self.config.array_dim
        mask = self._resolve_mask()
        grid: Optional[LiveGrid] = None
        if mask is not None and not mask.is_healthy:
            grid = live_grid(mask)
            if grid.usable_rows == 0 or grid.usable_cols == 0:
                raise SimulationError(
                    f"{layer.name}: no usable PE subgrid survives the fault"
                    f" mask ({mask.num_dead} dead of {dim * dim})"
                )
        factors = self.factors or map_layer(layer, dim, mask=mask).factors
        factors.check(
            layer,
            dim,
            max_rows=None if grid is None else grid.usable_rows,
            max_cols=None if grid is None else grid.usable_cols,
        )
        geometry = GroupGeometry(factors, dim)

        padded = pad_input(inputs, layer.padding)

        use_analytic = self.engine == "analytic"
        if use_analytic and (
            self.fault_model is not None
            and self.fault_model.has_transient_faults
        ):
            raise SimulationError(
                f"{layer.name}: the analytic engine cannot model transient"
                f" bit flips; use the tile or reference engine"
            )
        use_tile = self.engine == "tile" or (
            self.engine == "auto"
            and TileEngine.is_feasible(self.config, layer, factors)
        )
        engine_label = (
            "analytic" if use_analytic else "tile" if use_tile else "reference"
        )
        tracer = self.tracer if self.tracer is not None else current_tracer()
        # The span tree below (layer -> load/compute/drain phases ->
        # per-m0 tile groups) is engine-independent by construction: the
        # engine name is a label, which parity trees exclude, and both
        # engines emit identical group boundaries and counter deltas —
        # the tracer-level equivalence the parity tests pin.
        with tracer.span(
            f"conv:{layer.name}",
            category="sim.flexflow",
            labels={"engine": engine_label},
        ) as layer_span:
            # Load/drain phases model the layer's DMA legs on the
            # D-banked buffers (the same word/D accounting as the
            # mapper's re-layout penalty); compute is the simulated PE
            # array proper.
            load_cycles = ceil_div(
                layer.num_input_words + layer.num_kernel_words, dim
            )
            drain_cycles = ceil_div(layer.num_output_words, dim)
            with tracer.span("phase:load", category="sim.flexflow") as sp:
                sp.set_cycles(load_cycles)
            with tracer.span("phase:compute", category="sim.flexflow") as sp:
                if use_analytic:
                    # Counters from the closed-form model, outputs from the
                    # golden convolution — numerically the same result the
                    # adder trees converge to, without executing them.
                    outputs = conv2d(padded, kernels, stride=layer.stride)
                    trace = analytic_flexflow_trace(
                        layer,
                        factors,
                        neuron_store_words=self.config.neuron_store_words,
                        kernel_store_words=self.config.kernel_store_words,
                    )
                elif use_tile:
                    outputs, trace = TileEngine(
                        self.config,
                        layer,
                        factors,
                        grid=grid,
                        fault_model=self.fault_model,
                        tracer=tracer,
                    ).run(padded, kernels)
                else:
                    outputs, trace = self._run_reference(
                        layer, padded, kernels, factors, geometry, grid,
                        tracer=tracer,
                    )
                if tracer.enabled:
                    sp.set_cycles(trace.cycles)
                    sp.add_counters(trace.as_dict())
            with tracer.span("phase:drain", category="sim.flexflow") as sp:
                sp.set_cycles(drain_cycles)
            if tracer.enabled:
                layer_span.set_cycles(
                    load_cycles + trace.cycles + drain_cycles
                )
                layer_span.add_counters(trace.as_dict())
        return outputs, trace

    def _run_reference(
        self,
        layer: ConvLayer,
        padded: np.ndarray,
        kernels: np.ndarray,
        factors: UnrollingFactors,
        geometry: GroupGeometry,
        grid: Optional[LiveGrid] = None,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[np.ndarray, SimTrace]:
        """The golden per-PE loop: one CoordStore pair per PE."""
        tracer = tracer if tracer is not None else current_tracer()
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
            steering), so both engines corrupt the same words regardless
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
