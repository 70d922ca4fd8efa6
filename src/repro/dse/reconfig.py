"""The reconfiguration-cost model for per-layer dataflow switching.

Charged at a layer boundary whenever the configuration entering the next
layer differs from the one that just ran:

* **family switch** — the fabric changes engine family (e.g. FlexFlow ->
  Pipelined-Systolic).  Every PE's datapath mode and interconnect select
  must be rewritten: a configuration burst proportional to the array,
  modeled as ``4 * D`` cycles (the Section 5 configuration ISA streams
  one row of CFG words per cycle over four distribution trees), plus the
  inter-layer buffer re-layout the mapper already prices for a coupling
  break — ``2 * ceil(input_words / D)`` cycles
  (:func:`repro.dataflow.mapper.relayout_penalty_cycles`).
* **parameter switch** — same family, different parameters (a systolic
  ``Ta`` change, a 2D-Mapping block resize, a Tiling ``<Tm,Tn>``
  re-split).  Only the group/select registers are rewritten: ``D``
  cycles plus the same re-layout term.
* FlexFlow-to-FlexFlow transitions keep the mapper's own pricing
  untouched (coupled = free, coupling break = re-layout penalty alone):
  that cost is part of the paper's dataflow model, *not* of the
  reconfiguration model, which keeps the pure-FlexFlow path of the DP
  bit-identical to :func:`repro.dataflow.mapper.map_network` at any
  ``scale``.

``scale`` multiplies the cycle charges (``0`` models free switching, the
upper bound on what reconfigurability can win; larger values model
slower configuration fabrics) and is applied as ``int(round(scale *
base))`` so the DP stays in exact integer arithmetic.

Energy is reported, not optimized: a family switch writes ``2 * D^2``
configuration registers (mode + select per PE), a parameter switch
``2 * D``, each at the technology's register-access energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.technology import TechnologyModel
from repro.dataflow.mapper import relayout_penalty_cycles
from repro.errors import ConfigurationError
from repro.nn.layers import ConvLayer

#: Configuration registers written per PE on a family switch (datapath
#: mode + interconnect select) and per array row on a parameter switch.
CONFIG_WORDS_PER_PE = 2


@dataclass(frozen=True)
class ReconfigCostModel:
    """Cycle/energy charges for between-layer reconfiguration.

    Args:
        array_dim: PE array dimension ``D``.
        scale: multiplier on the cycle charges (finite, ``>= 0``).
    """

    array_dim: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.array_dim <= 0:
            raise ConfigurationError(
                f"array_dim must be positive, got {self.array_dim}"
            )
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ConfigurationError(
                "reconfiguration scale must be >= 0 and finite,"
                f" got {self.scale!r}"
            )

    def _scaled(self, base: int) -> int:
        return int(round(self.scale * base))

    def family_switch_cycles(self, layer: ConvLayer) -> int:
        """Entering ``layer`` under a different engine family."""
        return self._scaled(
            4 * self.array_dim
            + relayout_penalty_cycles(layer, self.array_dim)
        )

    def param_switch_cycles(self, layer: ConvLayer) -> int:
        """Entering ``layer`` under the same family, new parameters."""
        return self._scaled(
            self.array_dim + relayout_penalty_cycles(layer, self.array_dim)
        )

    def switch_energy_pj(self, kind: str, technology: TechnologyModel) -> float:
        """Configuration-write energy of one switch (reported, not optimized)."""
        if kind == "family":
            words = CONFIG_WORDS_PER_PE * self.array_dim * self.array_dim
        elif kind == "param":
            words = CONFIG_WORDS_PER_PE * self.array_dim
        elif kind in ("", "relayout"):
            return 0.0
        else:
            raise ConfigurationError(f"unknown reconfiguration kind {kind!r}")
        return self.scale * words * technology.register_access_energy_pj
