"""Common accelerator interface and result records.

Every architecture model implements :class:`Accelerator`: given a CONV
layer (plus optional successor context), produce a :class:`LayerResult`
containing cycles, utilization, and the full
:class:`~repro.arch.power.ActivityCounts` event record.  Everything the
evaluation section reports — GOPS, power, energy, traffic volume, DRAM
accesses per op — derives from these records plus the technology model.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

from repro.arch.config import ArchConfig
from repro.arch.power import ActivityCounts, PowerReport, compute_power
from repro.dataflow.unrolling import ceil_div
from repro.errors import MappingError, SimulationError
from repro.faults.mask import AvailabilityMask
from repro.nn.layers import ConvLayer, FCLayer, PoolLayer
from repro.nn.network import Network


@dataclass(frozen=True)
class LayerResult:
    """Execution record of one CONV layer on one architecture."""

    kind: str
    layer: ConvLayer
    cycles: int
    utilization: float
    counts: ActivityCounts

    @property
    def macs(self) -> int:
        return self.layer.macs

    @property
    def ops(self) -> int:
        return self.layer.ops

    def gops(self, frequency_hz: float) -> float:
        """Achieved performance in GOPS at the given clock."""
        if self.cycles == 0:
            return 0.0
        return self.ops / (self.cycles / frequency_hz) / 1e9


@dataclass(frozen=True)
class NetworkResult:
    """Execution record of a whole network's CONV layers."""

    kind: str
    network_name: str
    config: ArchConfig
    layers: Tuple[LayerResult, ...]

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.layers)

    @property
    def total_ops(self) -> int:
        return sum(r.ops for r in self.layers)

    @cached_property
    def counts(self) -> ActivityCounts:
        """The layers' counts summed, once per result."""
        total = ActivityCounts()
        for result in self.layers:
            total = total + result.counts
        return total

    @property
    def overall_utilization(self) -> float:
        """PE-cycle utilization across the network: MACs / (cycles * PEs)."""
        cycles = self.total_cycles
        if cycles == 0:
            return 0.0
        return self.total_macs / (cycles * self.config.num_pes)

    @property
    def runtime_s(self) -> float:
        return self.total_cycles * self.config.technology.cycle_time_s

    @property
    def gops(self) -> float:
        """Achieved GOPS over the network's CONV layers."""
        runtime = self.runtime_s
        if runtime == 0:
            return 0.0
        return self.total_ops / runtime / 1e9

    @property
    def buffer_traffic_words(self) -> int:
        """The Figure 17 "volume of data transmission" metric."""
        return self.counts.buffer_words_total

    @property
    def dram_accesses(self) -> int:
        return self.counts.dram_accesses

    @property
    def dram_accesses_per_op(self) -> float:
        """Table 7's DRAM Acc/Op metric."""
        ops = self.total_ops
        if ops == 0:
            return 0.0
        return self.dram_accesses / ops

    def power_report(self) -> PowerReport:
        """Energy/power for the whole run (chip power, DRAM separate)."""
        return self._power

    @cached_property
    def _power(self) -> PowerReport:
        # Priced once per result: the memoized walks hand one result to
        # every figure that reads its power, energy or efficiency.
        return compute_power(self.counts, self.kind, self.config)

    @property
    def power_mw(self) -> float:
        return self.power_report().average_power_mw

    @property
    def energy_uj(self) -> float:
        return self.power_report().total_energy_uj

    @property
    def gops_per_watt(self) -> float:
        """Figure 18(a)'s power-efficiency metric."""
        power_w = self.power_mw / 1e3
        if power_w == 0:
            return 0.0
        return self.gops / power_w

    def by_layer_name(self) -> Dict[str, LayerResult]:
        return {r.layer.name: r for r in self.layers}


class Accelerator(abc.ABC):
    """Abstract architecture model.

    Subclasses define ``kind`` and implement :meth:`simulate_layer`; the
    shared :meth:`simulate_network` walks a network's CONV layers (pooling
    runs on the 1-D pooling unit concurrently with the next layer's
    compute, so it adds pool-ALU activity but no critical-path cycles —
    the same assumption for every baseline).

    ``IDLE_ACTIVITY`` models how much dynamic energy an *unused* PE-cycle
    still burns, as a fraction of a useful one.  The rigid baselines keep
    their whole fabric streaming every cycle — systolic pipelines shift,
    2D arrays broadcast and shift, tiling adder trees churn — so their idle
    PEs toggle at roughly half activity; FlexFlow's logical grouping lets
    whole idle rows/columns be clock-gated, leaving only residual clock
    load.  This is the mechanism behind Figure 18's "highest power *and*
    best efficiency" result.
    """

    kind: str = "abstract"
    IDLE_ACTIVITY: float = 0.60

    def __init__(self, config: Optional[ArchConfig] = None) -> None:
        self.config = config or ArchConfig()

    # -- value identity -------------------------------------------------------

    def _state(self) -> tuple:
        """The class plus constructor state (``config`` and the array
        geometry): everything a model's results depend on."""
        return (type(self), tuple(vars(self).items()))

    def __eq__(self, other: object) -> bool:
        """Equal models give equal results: same class, equal state."""
        if not isinstance(other, Accelerator):
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self) -> int:
        return hash(self._state())

    def _active_pe_cycles(self, macs: int, cycles: int, total_pes: int) -> int:
        """Useful MAC cycles plus the idle fabric's residual toggling.

        Masked-dead PEs are power-gated: they contribute neither MACs nor
        idle toggling, so the toggling fabric shrinks by the mask's dead
        share of the overall PE budget.
        """
        mask = self.config.pe_mask
        if mask is not None and mask.num_dead:
            dead_share = int(round(total_pes * mask.num_dead / self.config.num_pes))
            total_pes = max(0, total_pes - dead_share)
        idle = max(0, cycles * total_pes - macs)
        return macs + int(self.IDLE_ACTIVITY * idle)

    # -- fault degradation ----------------------------------------------------

    def fault_retention(self) -> float:
        """Fraction of nominal throughput retained under ``config.pe_mask``.

        1.0 with no mask or a healthy one; otherwise
        :meth:`_masked_retention` of the mask.
        """
        mask = self.config.pe_mask
        if mask is None or mask.is_healthy:
            return 1.0
        return self._masked_retention(mask)

    def _masked_retention(self, mask: AvailabilityMask) -> float:
        """Retention under a mask with dead PEs.

        1.0 by default (an architecture that reroutes around faults).
        The rigid baselines override this with their structure-kill
        models (:mod:`repro.faults.impact`); FlexFlow keeps the default
        because its degradation comes out of the real mapping search over
        the live subgrid.
        """
        return 1.0

    def _degrade_cycles(self, cycles: int, layer: ConvLayer) -> int:
        """Cycles inflated by fault retention (surviving structures re-run
        the lost structures' share of the work serially)."""
        retention = self.fault_retention()
        if retention >= 1.0:
            return cycles
        if retention <= 0.0:
            raise SimulationError(
                f"{self.kind}: no compute structure survives the fault mask"
                f" for {layer.name}"
            )
        return int(math.ceil(cycles / retention))

    @abc.abstractmethod
    def simulate_layer(self, layer: ConvLayer, **context) -> LayerResult:
        """Execute one CONV layer analytically."""

    def simulate_fc_layer(self, layer: FCLayer) -> LayerResult:
        """Execute a fully-connected layer via the FC-as-1x1-CONV reduction.

        Every architecture's conv engine runs FC layers as a degenerate
        convolution (``N = in_neurons`` 1x1 inputs, ``M = out_neurons``
        1x1 outputs); FC performance is then governed purely by the
        feature-map-parallelism the architecture can muster — which is
        why FC layers are a worst case for the NP/SP-only baselines.
        """
        return self.simulate_layer(layer.as_conv())

    def simulate_network(
        self, network: Network, *, include_fc: bool = False
    ) -> NetworkResult:
        """Execute all CONV layers of a network (optionally FC too).

        The paper's evaluation is CONV-only (>90 % of compute); pass
        ``include_fc=True`` to append the classifier layers.

        Results are memoized per process (:func:`memoized_network_result`)
        and never persisted: every model derives a layer's cycles and
        counts in closed form, so a fresh process re-walks a network
        faster than a store round trip would restore it, while the
        evaluation's repeated (model, network) pairs are walked once.
        """
        return memoized_network_result(self, network, include_fc)

    def _walk_network(self, network: Network, include_fc: bool) -> NetworkResult:
        """The uncached walk behind :meth:`simulate_network`."""
        results: List[LayerResult] = []
        pool_ops = self._pool_ops_by_predecessor(network)
        for result in self._conv_layer_results(network):
            extra_pool = pool_ops.get(result.layer.name, 0)
            if extra_pool:
                result = dataclasses.replace(
                    result,
                    counts=result.counts + ActivityCounts(pool_ops=extra_pool),
                )
            results.append(result)
        if include_fc:
            for fc in network.fc_layers:
                results.append(self.simulate_fc_layer(fc))
        if not results:
            raise MappingError(f"network {network.name!r} has no CONV layers")
        return NetworkResult(
            kind=self.kind,
            network_name=network.name,
            config=self.config,
            layers=tuple(results),
        )

    def _conv_layer_results(self, network: Network) -> List[LayerResult]:
        """One result per CONV layer, in order (subclasses may override).

        The default maps each layer on its own, bounded by its successor's
        Eq. 1 constraint.
        """
        return [
            self.simulate_layer(
                ctx.layer, tr_tc_bound=ctx.tr_tc_bound, network=network
            )
            for ctx in network.conv_contexts()
        ]

    @staticmethod
    def _pool_ops_by_predecessor(network: Network) -> Dict[str, int]:
        """Attribute each POOL layer's ops to the CONV layer feeding it."""
        pool_ops: Dict[str, int] = {}
        previous_conv: Optional[str] = None
        for layer in network.layers:
            if isinstance(layer, ConvLayer):
                previous_conv = layer.name
            elif isinstance(layer, PoolLayer) and previous_conv is not None:
                pool_ops[previous_conv] = pool_ops.get(previous_conv, 0) + layer.ops
        return pool_ops


#: Bound of the network-result memo, a constant like ``map_network``'s
#: 256 entries; a cold ``repro report`` fills 118.
NETWORK_MEMO_SIZE = 256


@lru_cache(maxsize=NETWORK_MEMO_SIZE)
def memoized_network_result(
    accelerator: Accelerator, network: Network, include_fc: bool
) -> NetworkResult:
    """:meth:`Accelerator.simulate_network`'s per-process memo.

    Keyed by value, never by object identity: the model's class and
    constructor state (:meth:`Accelerator.__eq__`), the network's
    structure (:class:`~repro.nn.network.Network` equality) and
    ``include_fc``.  A walk that raises is not stored.
    :func:`repro.dataflow.clear_mapping_cache` empties it.
    """
    return accelerator._walk_network(network, include_fc)


def dram_words_with_reload(
    layer: ConvLayer, config: ArchConfig, *, input_reread_factor: int = 1
) -> int:
    """Off-chip words for one layer under a simple reload model.

    Unique inputs, kernels, and outputs each cross DRAM once; when the
    kernel tensor exceeds the kernel buffer, the cheaper of (re-reading
    inputs per kernel chunk) and (re-reading kernels per input chunk) is
    charged — the standard two-level tiling bound.  ``input_reread_factor``
    lets architectures without input reuse (e.g. Tiling re-streaming inputs
    per output-map tile) declare their multiplier.
    """
    inputs = layer.num_input_words * max(1, input_reread_factor)
    kernels = layer.num_kernel_words
    outputs = layer.num_output_words
    kernel_capacity = config.kernel_buffer_words
    neuron_capacity = config.neuron_buffer_words
    if kernels <= kernel_capacity:
        return inputs + kernels + outputs
    kernel_rounds = ceil_div(kernels, kernel_capacity)
    input_rounds = ceil_div(layer.num_input_words, neuron_capacity)
    reread_inputs = inputs * kernel_rounds + kernels
    reread_kernels = kernels * input_rounds + inputs
    return min(reread_inputs, reread_kernels) + outputs
