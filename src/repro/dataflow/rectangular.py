"""Rectangular PE arrays: decoupling the two Eq. 1 constraints.

The paper evaluates square ``D x D`` units, but its own packing
constraints are naturally rectangular: ``Tn*Ti*Tj`` fills a PE *row* (the
column count) and ``Tm*Tr*Tc`` fills the *rows*.  A layer whose intra-row
work (``N*K^2``) and inter-row work (``M*S^2``) are lopsided wastes one
dimension of a square array; a rectangular unit with the same PE budget
can rebalance.

This module maps layers onto ``rows x cols`` arrays and sweeps aspect
ratios at a fixed PE budget — an extension study the square-array paper
machinery makes one step away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dataflow.mapper import _best_input_batched, _best_output_batched
from repro.dataflow.unrolling import UnrollingFactors
from repro.errors import MappingError
from repro.nn.layers import ConvLayer
from repro.nn.network import Network


@dataclass(frozen=True)
class RectMapping:
    """A layer mapping on a ``rows x cols`` PE array."""

    layer: ConvLayer
    factors: UnrollingFactors
    rows: int
    cols: int
    compute_cycles: int

    @property
    def utilization(self) -> float:
        """MACs / (cycles * rows * cols) — the PE-cycle definition."""
        return self.layer.macs / (self.compute_cycles * self.rows * self.cols)


def map_layer_rect(
    layer: ConvLayer,
    rows: int,
    cols: int,
    *,
    tr_tc_bound: Optional[int] = None,
) -> RectMapping:
    """Best mapping of a layer onto a rectangular array.

    ``Tn*Ti*Tj <= cols`` (PEs within a row) and ``Tm*Tr*Tc <= rows``
    (rows hosting output neurons); the objective is minimal cycles, as in
    the square mapper.
    """
    if rows <= 0 or cols <= 0:
        raise MappingError(f"rows/cols must be positive, got {rows}x{cols}")
    # The square-mapper constraints already decouple by side, so the
    # vectorized selectors apply directly with rows/cols limits.
    best_in, _, _ = _best_input_batched(layer, cols)
    best_out, _ = _best_output_batched(layer, rows, tr_tc_bound)
    factors = UnrollingFactors(
        tm=best_out[0], tn=best_in[0], tr=best_out[1], tc=best_out[2],
        ti=best_in[1], tj=best_in[2],
    )
    cycles = factors.outer_iterations(layer)
    return RectMapping(
        layer=layer, factors=factors, rows=rows, cols=cols, compute_cycles=cycles
    )


def aspect_ratio_candidates(pe_budget: int) -> List[Tuple[int, int]]:
    """All ``(rows, cols)`` factorizations of a PE budget, widest to tallest."""
    if pe_budget <= 0:
        raise MappingError(f"pe_budget must be positive, got {pe_budget}")
    shapes = []
    for rows in range(1, pe_budget + 1):
        if pe_budget % rows == 0:
            shapes.append((rows, pe_budget // rows))
    return shapes


def best_aspect_ratio(
    network: Network, pe_budget: int, *, min_dim: int = 2
) -> Tuple[Tuple[int, int], float]:
    """The budget factorization maximizing network utilization.

    Returns ``((rows, cols), utilization)``.  ``min_dim`` excludes
    degenerate 1-wide shapes that no real layout would use.
    """
    best_shape: Optional[Tuple[int, int]] = None
    best_util = -1.0
    for rows, cols in aspect_ratio_candidates(pe_budget):
        if rows < min_dim or cols < min_dim:
            continue
        total_macs = 0
        total_cycles = 0
        for ctx in network.conv_contexts():
            mapping = map_layer_rect(
                ctx.layer, rows, cols, tr_tc_bound=ctx.tr_tc_bound
            )
            total_macs += ctx.layer.macs
            total_cycles += mapping.compute_cycles
        utilization = total_macs / (total_cycles * pe_budget)
        if utilization > best_util:
            best_util = utilization
            best_shape = (rows, cols)
    if best_shape is None:
        raise MappingError(
            f"no valid shape for budget {pe_budget} with min_dim {min_dim}"
        )
    return best_shape, best_util
