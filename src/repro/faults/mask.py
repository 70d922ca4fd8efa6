"""PE availability masks and the live-subgrid remapping they induce.

A :class:`AvailabilityMask` records which PEs of a ``D x D`` array are
permanently unusable (stuck-at-dead PEs, dead rows, dead columns).  The
mask is immutable and hashable so it can ride inside a frozen
:class:`~repro.arch.config.ArchConfig` and participate in the mapping
cache keys — a masked configuration must never reuse an unmasked
configuration's memoized mapping.

**Remapping model.**  FlexFlow's controller steers logical PE rows and
columns onto physical ones: a PE row feeds one adder tree and a PE column
hangs off one vertical data bus, so the natural repair granularity is a
whole physical row or column.  Scattered dead PEs couple the two choices
(keeping row ``r`` and column ``c`` both alive is impossible when PE
``(r, c)`` is dead), which makes the exact maximum usable subgrid a
biclique problem; :func:`live_grid` uses the standard deterministic greedy
repair — retire the row or column with the most faults until the selected
subgrid is fault-free.  The resulting :class:`LiveGrid` is the contract
between the mapper (which packs parallelism into ``usable_rows x
usable_cols``) and the simulators (which address the surviving physical
rows/columns in order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Tuple

from repro.errors import ConfigurationError

Coord = Tuple[int, int]


@dataclass(frozen=True)
class AvailabilityMask:
    """Which PEs of a ``D x D`` array are usable.

    Args:
        array_dim: ``D`` — the physical PE array dimension.
        dead: set of ``(row, col)`` coordinates of unusable PEs.
    """

    array_dim: int
    dead: FrozenSet[Coord] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.array_dim, int) or isinstance(self.array_dim, bool):
            raise ConfigurationError(
                f"array_dim must be an int, got {self.array_dim!r}"
            )
        if self.array_dim <= 0:
            raise ConfigurationError(
                f"array_dim must be positive, got {self.array_dim}"
            )
        # Normalize whatever iterable of pairs we were given into a
        # canonical frozenset of int tuples (the dataclass is frozen).
        normalized = set()
        for entry in self.dead:
            try:
                row, col = entry
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"dead PE entries must be (row, col) pairs, got {entry!r}"
                ) from None
            if not (0 <= row < self.array_dim and 0 <= col < self.array_dim):
                raise ConfigurationError(
                    f"dead PE ({row},{col}) outside the"
                    f" {self.array_dim}x{self.array_dim} array"
                )
            normalized.add((int(row), int(col)))
        object.__setattr__(self, "dead", frozenset(normalized))

    # -- constructors --------------------------------------------------------

    @classmethod
    def healthy(cls, array_dim: int) -> "AvailabilityMask":
        """A mask with every PE alive."""
        return cls(array_dim=array_dim)

    @classmethod
    def from_failures(
        cls,
        array_dim: int,
        *,
        dead_pes: Iterable[Coord] = (),
        dead_rows: Iterable[int] = (),
        dead_cols: Iterable[int] = (),
    ) -> "AvailabilityMask":
        """Build a mask from individual PEs plus whole rows/columns."""
        dead = {(int(r), int(c)) for r, c in dead_pes}
        for row in dead_rows:
            if not 0 <= row < array_dim:
                raise ConfigurationError(
                    f"dead row {row} outside the {array_dim}x{array_dim} array"
                )
            dead.update((row, c) for c in range(array_dim))
        for col in dead_cols:
            if not 0 <= col < array_dim:
                raise ConfigurationError(
                    f"dead column {col} outside the {array_dim}x{array_dim} array"
                )
            dead.update((r, col) for r in range(array_dim))
        return cls(array_dim=array_dim, dead=frozenset(dead))

    # -- queries -------------------------------------------------------------

    @property
    def num_dead(self) -> int:
        return len(self.dead)

    @property
    def num_live(self) -> int:
        return self.array_dim * self.array_dim - self.num_dead

    @property
    def is_healthy(self) -> bool:
        return not self.dead

    def is_dead(self, row: int, col: int) -> bool:
        return (row, col) in self.dead

    def describe(self) -> str:
        """ASCII map of the array: ``.`` live, ``X`` dead."""
        lines = []
        for row in range(self.array_dim):
            lines.append(
                "".join(
                    "X" if (row, col) in self.dead else "."
                    for col in range(self.array_dim)
                )
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class LiveGrid:
    """The fault-free physical subgrid selected by :func:`live_grid`.

    ``rows``/``cols`` list the surviving physical indices in ascending
    order; logical row ``i`` of a mapping executes on physical row
    ``rows[i]`` (and likewise for columns).
    """

    array_dim: int
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]

    @property
    def usable_rows(self) -> int:
        return len(self.rows)

    @property
    def usable_cols(self) -> int:
        return len(self.cols)

    @property
    def usable_pes(self) -> int:
        return self.usable_rows * self.usable_cols

    def physical_row(self, logical_row: int) -> int:
        if not 0 <= logical_row < self.usable_rows:
            raise ConfigurationError(
                f"logical row {logical_row} outside {self.usable_rows}"
                " usable rows"
            )
        return self.rows[logical_row]

    def physical_col(self, logical_col: int) -> int:
        if not 0 <= logical_col < self.usable_cols:
            raise ConfigurationError(
                f"logical col {logical_col} outside {self.usable_cols}"
                " usable cols"
            )
        return self.cols[logical_col]


#: Bound of the :func:`live_grid` memo (one entry per mask).
LIVE_GRID_MEMO_SIZE = 256


@lru_cache(maxsize=LIVE_GRID_MEMO_SIZE)
def live_grid(mask: AvailabilityMask) -> LiveGrid:
    """Greedy row/column retirement until the kept subgrid is fault-free.

    Deterministic: each round retires the row or column covering the most
    remaining faults (ties prefer the side with more surviving lines, then
    the lower index), so equal masks always produce equal grids.  The
    grid is a pure function of the (hashable, immutable) mask, so it is
    memoized per process; :func:`repro.dataflow.clear_mapping_cache`
    empties the memo.
    """
    dim = mask.array_dim
    rows: List[int] = list(range(dim))
    cols: List[int] = list(range(dim))
    if mask.is_healthy:
        return LiveGrid(array_dim=dim, rows=tuple(rows), cols=tuple(cols))

    kept_rows = set(rows)
    kept_cols = set(cols)
    faults = set(mask.dead)
    while True:
        remaining = [
            (r, c) for r, c in faults if r in kept_rows and c in kept_cols
        ]
        if not remaining:
            break
        row_counts: dict = {}
        col_counts: dict = {}
        for r, c in remaining:
            row_counts[r] = row_counts.get(r, 0) + 1
            col_counts[c] = col_counts.get(c, 0) + 1
        worst_row = min(row_counts, key=lambda r: (-row_counts[r], r))
        worst_col = min(col_counts, key=lambda c: (-col_counts[c], c))
        retire_row = (
            row_counts[worst_row] > col_counts[worst_col]
            or (
                row_counts[worst_row] == col_counts[worst_col]
                and len(kept_rows) >= len(kept_cols)
            )
        )
        if retire_row:
            kept_rows.discard(worst_row)
        else:
            kept_cols.discard(worst_col)
    return LiveGrid(
        array_dim=dim,
        rows=tuple(sorted(kept_rows)),
        cols=tuple(sorted(kept_cols)),
    )
