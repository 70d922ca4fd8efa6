"""Deterministic, seedable fault injection.

:class:`FaultModel` describes *what* is broken: permanently dead PEs
(explicit coordinates, whole rows/columns, or an i.i.d. stuck-at-dead
rate) and transient local-store bit flips at a configurable per-write
rate.  Everything is a pure function of the seed:

* :meth:`FaultModel.mask_for` derives the permanent-fault
  :class:`~repro.faults.mask.AvailabilityMask` for a given array size
  from ``random.Random`` seeded with ``(seed, array_dim)`` — the same
  model produces the same mask in every process, which is what lets a
  stored fault experiment stand for a re-run in another process.
* :func:`transient_flip` decides bit flips with a *counter-based* hash of
  ``(seed, store kind, physical PE, data coordinate, push sequence)``
  rather than a sequential RNG stream, so the decision is independent of
  the order in which an engine happens to issue the writes.  This is the
  property that lets the vectorized TileEngine and the per-PE reference
  loop corrupt exactly the same words and stay bit-identical under
  transient faults.

Flips target a mantissa bit of the stored float64 word, so a corrupted
value is always finite (no NaN/inf escapes into the adder trees).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.mask import AvailabilityMask

#: Bit flips land in the low 52 bits of the float64 word (the mantissa),
#: keeping every corrupted value finite.
_MANTISSA_BITS = 52


@dataclass(frozen=True)
class FaultModel:
    """A seeded description of injected hardware faults.

    Args:
        seed: root of all derived randomness.
        dead_pe_rate: i.i.d. probability that each PE is stuck-at-dead.
        dead_rows: physical rows that are entirely dead.
        dead_cols: physical columns that are entirely dead.
        dead_pes: explicit ``(row, col)`` dead PEs.
        bitflip_rate: per-local-store-write probability of one mantissa
            bit flip in the stored word.
    """

    seed: int = 0
    dead_pe_rate: float = 0.0
    dead_rows: Tuple[int, ...] = ()
    dead_cols: Tuple[int, ...] = ()
    dead_pes: Tuple[Tuple[int, int], ...] = ()
    bitflip_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dead_pe_rate", "bitflip_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be within [0, 1], got {value}"
                )
        object.__setattr__(self, "dead_rows", tuple(sorted(set(self.dead_rows))))
        object.__setattr__(self, "dead_cols", tuple(sorted(set(self.dead_cols))))
        object.__setattr__(
            self,
            "dead_pes",
            tuple(sorted({(int(r), int(c)) for r, c in self.dead_pes})),
        )

    @property
    def has_permanent_faults(self) -> bool:
        return bool(
            self.dead_pe_rate > 0 or self.dead_rows or self.dead_cols or self.dead_pes
        )

    @property
    def has_transient_faults(self) -> bool:
        return self.bitflip_rate > 0

    @property
    def is_null(self) -> bool:
        return not (self.has_permanent_faults or self.has_transient_faults)

    def mask_for(self, array_dim: int) -> AvailabilityMask:
        """The permanent-fault availability mask for a ``D x D`` array.

        Deterministic in ``(seed, array_dim)``; explicit rows/columns/PEs
        are applied first, then the i.i.d. stuck-at sampling sweeps the
        array in row-major order.
        """
        mask = AvailabilityMask.from_failures(
            array_dim,
            dead_pes=self.dead_pes,
            dead_rows=self.dead_rows,
            dead_cols=self.dead_cols,
        )
        if self.dead_pe_rate <= 0:
            return mask
        rng = random.Random(f"flexflow-faults:{self.seed}:{array_dim}")
        sampled = set(mask.dead)
        for row in range(array_dim):
            for col in range(array_dim):
                if rng.random() < self.dead_pe_rate:
                    sampled.add((row, col))
        return AvailabilityMask(array_dim=array_dim, dead=frozenset(sampled))

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.dead_pe_rate:
            parts.append(f"dead_pe_rate={self.dead_pe_rate}")
        if self.dead_rows:
            parts.append(f"dead_rows={list(self.dead_rows)}")
        if self.dead_cols:
            parts.append(f"dead_cols={list(self.dead_cols)}")
        if self.dead_pes:
            parts.append(f"dead_pes={list(self.dead_pes)}")
        if self.bitflip_rate:
            parts.append(f"bitflip_rate={self.bitflip_rate}")
        return "FaultModel(" + ", ".join(parts) + ")"


def transient_flip(
    seed: int,
    kind: str,
    row: int,
    col: int,
    coord: int,
    sequence: int,
    rate: float,
) -> Optional[int]:
    """Bit index to flip for one local-store push, or ``None``.

    Pure function of its arguments (counter-based, not stream-based):
    ``kind`` names the store ("neuron"/"kernel"), ``row``/``col`` are the
    *physical* PE coordinates, ``coord`` the flattened data coordinate,
    ``sequence`` the store's 1-based push counter at this write.
    """
    if rate <= 0.0:
        return None
    digest = hashlib.blake2b(
        f"{seed}:{kind}:{row}:{col}:{coord}:{sequence}".encode(),
        digest_size=12,
    ).digest()
    uniform = int.from_bytes(digest[:8], "big") / 2**64
    if uniform >= rate:
        return None
    return int.from_bytes(digest[8:], "big") % _MANTISSA_BITS


def apply_flip(value: float, bit: int) -> float:
    """``value`` with mantissa ``bit`` of its float64 encoding flipped."""
    if not 0 <= bit < _MANTISSA_BITS:
        raise ConfigurationError(
            f"bit must be within [0, {_MANTISSA_BITS}), got {bit}"
        )
    word = np.float64(value).view(np.uint64)
    flipped = np.uint64(word ^ np.uint64(1 << bit))
    return float(flipped.view(np.float64))
