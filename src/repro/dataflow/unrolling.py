"""Unrolling factors ``<Tm, Tn, Tr, Tc, Ti, Tj>`` and Eq. 1 feasibility.

The six factors quantify how far each of the CONV loop nest's six loops is
unrolled onto the PE array (Figure 4):

* ``Tm`` / ``Tn`` — output / input feature-map parallelism (FP),
* ``Tr`` / ``Tc`` — output-neuron row / column parallelism (NP),
* ``Ti`` / ``Tj`` — kernel row / column synapse parallelism (SP).

On FlexFlow's ``D x D`` array a PE *row* computes one output neuron per
cycle by summing ``Tn * Ti * Tj`` products through its adder tree, and the
``D`` rows host ``Tm * Tr * Tc`` concurrent output neurons; hence the two
Eq. 1 packing constraints ``Tn*Ti*Tj <= D`` and ``Tm*Tr*Tc <= D``.  The
``Tr, Tc <= P * K'`` coupling bound comes from IADP: the current layer's
outputs are written in the *next* layer's buffer format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import MappingError
from repro.nn.layers import ConvLayer


def ceil_div(value: int, divisor: int) -> int:
    """Integer ceiling division (the ``⌈x/y⌉`` of Eqs. 2-3).

    Both operands live in count space (loop extents, word counts), so a
    negative ``value`` is always an upstream bug — reject it rather than
    return the floor-like result Python's ``//`` gives for negatives.
    """
    if divisor <= 0:
        raise MappingError(f"divisor must be positive, got {divisor}")
    if value < 0:
        raise MappingError(f"value must be non-negative, got {value}")
    return -(-value // divisor)


@dataclass(frozen=True)
class UnrollingFactors:
    """One point in the Figure 4 unrolling space."""

    tm: int
    tn: int
    tr: int
    tc: int
    ti: int
    tj: int

    def __post_init__(self) -> None:
        for name in ("tm", "tn", "tr", "tc", "ti", "tj"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise MappingError(f"{name} must be a positive int, got {value!r}")

    # -- derived views -------------------------------------------------------

    @property
    def input_triple(self) -> Tuple[int, int, int]:
        """``(Tn, Ti, Tj)`` — the intra-row (PE column) packing."""
        return (self.tn, self.ti, self.tj)

    @property
    def output_triple(self) -> Tuple[int, int, int]:
        """``(Tm, Tr, Tc)`` — the inter-row (PE row) packing."""
        return (self.tm, self.tr, self.tc)

    @property
    def row_occupancy(self) -> int:
        """PEs used within one row: ``Tn * Ti * Tj``."""
        return self.tn * self.ti * self.tj

    @property
    def column_occupancy(self) -> int:
        """PE rows used: ``Tm * Tr * Tc``."""
        return self.tm * self.tr * self.tc

    # -- feasibility (Eq. 1) ------------------------------------------------------

    def check(
        self,
        layer: ConvLayer,
        array_dim: int,
        *,
        tr_tc_bound: Optional[int] = None,
        max_rows: Optional[int] = None,
        max_cols: Optional[int] = None,
    ) -> None:
        """Raise :class:`MappingError` unless Eq. 1 holds for this layer.

        Args:
            layer: the CONV layer being mapped.
            array_dim: ``D``, the PE array dimension.
            tr_tc_bound: the ``P * K'`` successor bound on ``Tr``/``Tc``
                (``None`` for the network's last CONV layer).
            max_rows: usable PE rows (defaults to ``array_dim``); a fault
                mask's live grid tightens the inter-row packing bound.
            max_cols: usable PE columns (defaults to ``array_dim``);
                tightens the intra-row packing bound likewise.
        """
        if array_dim <= 0:
            raise MappingError(f"array_dim must be positive, got {array_dim}")
        row_limit = array_dim if max_rows is None else max_rows
        col_limit = array_dim if max_cols is None else max_cols
        if row_limit <= 0 or col_limit <= 0:
            raise MappingError(
                f"{layer.name}: no usable PE rows/columns"
                f" (rows={row_limit}, cols={col_limit})"
            )
        bounds = {
            "tm": (self.tm, layer.out_maps, "M"),
            "tn": (self.tn, layer.in_maps, "N"),
            "ti": (self.ti, layer.kernel, "K"),
            "tj": (self.tj, layer.kernel, "K"),
            "tr": (self.tr, layer.out_size, "S"),
            "tc": (self.tc, layer.out_size, "S"),
        }
        for name, (value, upper, label) in bounds.items():
            if value > upper:
                raise MappingError(
                    f"{layer.name}: {name}={value} exceeds {label}={upper}"
                )
        if tr_tc_bound is not None:
            if self.tr > tr_tc_bound or self.tc > tr_tc_bound:
                raise MappingError(
                    f"{layer.name}: Tr/Tc=({self.tr},{self.tc}) exceed the"
                    f" successor bound P*K'={tr_tc_bound}"
                )
        if self.row_occupancy > col_limit:
            raise MappingError(
                f"{layer.name}: Tn*Ti*Tj={self.row_occupancy} exceeds the"
                f" {col_limit} usable columns (D={array_dim})"
            )
        if self.column_occupancy > row_limit:
            raise MappingError(
                f"{layer.name}: Tm*Tr*Tc={self.column_occupancy} exceeds the"
                f" {row_limit} usable rows (D={array_dim})"
            )

    def is_feasible(
        self,
        layer: ConvLayer,
        array_dim: int,
        *,
        tr_tc_bound: Optional[int] = None,
        max_rows: Optional[int] = None,
        max_cols: Optional[int] = None,
    ) -> bool:
        """Eq. 1 as a predicate."""
        try:
            self.check(
                layer,
                array_dim,
                tr_tc_bound=tr_tc_bound,
                max_rows=max_rows,
                max_cols=max_cols,
            )
        except MappingError:
            return False
        return True

    # -- iteration counts --------------------------------------------------------

    def outer_iterations(self, layer: ConvLayer) -> int:
        """Sequential tile count: the Figure 4 outer-loop trip product.

        One tile executes per cycle on FlexFlow, so this is also the
        layer's compute cycle count.
        """
        return self.input_iterations(layer) * self.output_iterations(layer)

    def input_iterations(self, layer: ConvLayer) -> int:
        """``⌈N/Tn⌉ * ⌈K/Ti⌉ * ⌈K/Tj⌉`` — the intra-row sequential factor."""
        return (
            ceil_div(layer.in_maps, self.tn)
            * ceil_div(layer.kernel, self.ti)
            * ceil_div(layer.kernel, self.tj)
        )

    def output_iterations(self, layer: ConvLayer) -> int:
        """``⌈M/Tm⌉ * ⌈S/Tr⌉ * ⌈S/Tc⌉`` — the inter-row sequential factor."""
        return (
            ceil_div(layer.out_maps, self.tm)
            * ceil_div(layer.out_size, self.tr)
            * ceil_div(layer.out_size, self.tc)
        )

    def describe(self) -> str:
        return (
            f"<Tm={self.tm}, Tn={self.tn}, Tr={self.tr}, Tc={self.tc},"
            f" Ti={self.ti}, Tj={self.tj}>"
        )


def useful_values(dimension: int, limit: int) -> Tuple[int, ...]:
    """The Pareto-useful unrolling values for one loop of extent ``dimension``.

    Any factor ``T`` yields ``q = ceil(dimension / T)`` sequential steps;
    among all ``T`` giving the same ``q``, the smallest occupies the fewest
    PEs.  The useful set is therefore ``{ceil(dimension / q) : q in 1..dimension}``
    clipped to ``limit`` — at most ``~2 * sqrt(dimension)`` values, which keeps
    the mapper's search space tractable for VGG-scale layers.

    The walk visits one quotient per block of equal values: the quotients
    sharing ``t = ceil(dimension / q)`` end at ``(dimension - 1) // (t - 1)``,
    so the next block starts one past it.  It starts at the first quotient
    whose value fits ``limit``; ``tests/dse_oracle.py`` keeps the
    every-quotient loop as the reference.
    """
    if dimension <= 0 or limit <= 0:
        raise MappingError("dimension and limit must be positive")
    values = []
    quotient = -(-dimension // limit)
    while True:
        t = -(-dimension // quotient)
        values.append(t)
        if t == 1:
            break
        quotient = (dimension - 1) // (t - 1) + 1
    values.reverse()
    return tuple(values)
