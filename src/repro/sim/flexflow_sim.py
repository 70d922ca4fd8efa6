"""Functional cycle-level simulation of the FlexFlow PE array.

This simulator executes a CONV layer exactly the way Section 4 describes:

* the PE array is logically grouped by the unrolling factors
  (:class:`~repro.dataflow.grouping.GroupGeometry`);
* every PE owns a neuron local store and a kernel local store, circular
  buffers of ``W`` words (:class:`~repro.arch.local_store.LocalStore`),
  demand-filled over vertical (neuron) and horizontal (kernel) common
  data buses with per-cycle broadcast sharing (RA/RS);
* each cycle, every active PE row sums ``Tn * Ti * Tj`` products through
  its adder tree into the row's output-neuron accumulator;
* one unrolled tile executes per cycle, so the simulated cycle count must
  equal ``factors.outer_iterations(layer)`` — an invariant the tests pin.

The result is numerically compared against the NumPy golden model; this is
the executable proof that the Section 4.3 mapping formulas, the RA synapse
reordering, and the local-store addressing are mutually consistent.

The PE array runs on the :class:`~repro.sim.tile_engine.TileEngine`,
whose per-PE local-store state is sized by the stores, so every layer
runs there.  ``tests/sim_oracle.py`` keeps the literal per-PE machine —
one coordinate-addressed store pair per PE, explicit bus sets per cycle
— as its oracle: outputs are bit-identical and every counter and span is
equal (``tests/sim/test_tile_engine.py`` and
``tests/sim/test_flexflow_differential.py`` pin this).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.arch.config import ArchConfig
from repro.dataflow.mapper import map_layer
from repro.dataflow.unrolling import UnrollingFactors, ceil_div
from repro.errors import SimulationError
from repro.faults.mask import AvailabilityMask, LiveGrid, live_grid
from repro.faults.model import FaultModel
from repro.nn.layers import ConvLayer
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.tile_engine import TileEngine
from repro.sim.trace import SimTrace, layer_operands


class FlexFlowFunctionalSim:
    """Cycle-level functional model of the FlexFlow convolutional unit."""

    def __init__(
        self,
        config: Optional[ArchConfig] = None,
        *,
        factors: Optional[UnrollingFactors] = None,
        fault_model: Optional[FaultModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config or ArchConfig(array_dim=4)
        self.factors = factors
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
        padded, kernels = layer_operands(layer, inputs, kernels)
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
        tracer = self.tracer if self.tracer is not None else current_tracer()
        # The span tree: layer -> load/compute/drain phases -> per-m0
        # tile groups, each with its exact counter deltas.
        with tracer.span(
            f"conv:{layer.name}", category="sim.flexflow"
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
                outputs, trace = self._run_array(
                    layer, padded, kernels, factors, grid, tracer
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

    def _run_array(
        self,
        layer: ConvLayer,
        padded: np.ndarray,
        kernels: np.ndarray,
        factors: UnrollingFactors,
        grid: Optional[LiveGrid],
        tracer: Tracer,
    ) -> Tuple[np.ndarray, SimTrace]:
        """The compute phase: the layer on the PE array, one span per
        output-map group."""
        return TileEngine(
            self.config,
            layer,
            factors,
            grid=grid,
            fault_model=self.fault_model,
            tracer=tracer,
        ).run(padded, kernels)
