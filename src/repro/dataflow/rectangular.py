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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.mapper import (
    _best_input_batched,
    _best_output_batched,
    _fewest_steps,
    _input_space,
    _output_space,
    candidate_array,
)
from repro.dataflow.unrolling import UnrollingFactors
from repro.errors import MappingError
from repro.nn.layers import ConvLayer
from repro.nn.network import Network

Shape = Tuple[int, int]


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


def aspect_ratio_candidates(pe_budget: int) -> List[Shape]:
    """All ``(rows, cols)`` factorizations of a PE budget, widest to tallest."""
    if pe_budget <= 0:
        raise MappingError(f"pe_budget must be positive, got {pe_budget}")
    shapes = []
    for rows in range(1, pe_budget + 1):
        if pe_budget % rows == 0:
            shapes.append((rows, pe_budget // rows))
    return shapes


def aspect_ratio_shapes(pe_budget: int, min_dim: int = 2) -> List[Shape]:
    """The budget's factorizations with both sides at least ``min_dim``.

    ``min_dim`` excludes degenerate 1-wide shapes that no real layout
    would use; an empty selection raises :class:`MappingError`.
    """
    shapes = [
        (rows, cols)
        for rows, cols in aspect_ratio_candidates(pe_budget)
        if rows >= min_dim and cols >= min_dim
    ]
    if not shapes:
        raise MappingError(
            f"no valid shape for budget {pe_budget} with min_dim {min_dim}"
        )
    return shapes


def shape_utilizations(
    network: Network, pe_budget: int, shapes: Sequence[Shape]
) -> List[float]:
    """Network utilization ``MACs / (cycles * pe_budget)`` on each shape.

    Shape by shape, ``cycles`` is the sum of ``map_layer_rect``'s compute
    cycles over the network's CONV layers, but each layer side is
    enumerated once, at the widest ``cols`` (input side) or tallest
    ``rows`` (output side) among the shapes.  A shape's candidates are
    that table masked by its own limit, and its cycles are the fewest
    input steps times the fewest output steps (the output side's
    ``ceil(M/Tm)`` tie-break picks a triple, not a step count).
    """
    for rows, cols in shapes:
        if rows <= 0 or cols <= 0:
            raise MappingError(f"rows/cols must be positive, got {rows}x{cols}")
    contexts = network.conv_contexts()
    if not contexts:
        raise MappingError(f"network {network.name!r} has no CONV layers")
    if not shapes:
        return []
    row_limits = np.array([rows for rows, _ in shapes], dtype=np.int64)
    col_limits = np.array([cols for _, cols in shapes], dtype=np.int64)
    max_rows, max_cols = int(row_limits.max()), int(col_limits.max())
    total_macs = 0
    total_cycles = np.zeros(len(shapes), dtype=np.int64)
    for ctx in contexts:
        in_dims, in_caps = _input_space(ctx.layer)
        out_dims, out_caps = _output_space(ctx.layer, ctx.tr_tc_bound)
        ins = candidate_array(in_dims, max_cols, in_caps)
        outs = candidate_array(out_dims, max_rows, out_caps)
        fits_in = ins.prod(axis=1)[None, :] <= col_limits[:, None]
        fits_out = outs.prod(axis=1)[None, :] <= row_limits[:, None]
        total_cycles += _fewest_steps(in_dims, ins, fits_in) * _fewest_steps(
            out_dims, outs, fits_out
        )
        total_macs += ctx.layer.macs
    return [total_macs / (int(cycles) * pe_budget) for cycles in total_cycles]


def best_shape(
    shapes: Sequence[Shape], utilizations: Sequence[float]
) -> Tuple[Shape, float]:
    """The first shape of highest utilization, in ``shapes`` order."""
    pick = max(range(len(shapes)), key=utilizations.__getitem__)
    return shapes[pick], utilizations[pick]
