"""Demand-fill replay of capacity-limited circular local stores.

Every FlexFlow PE owns a neuron and a kernel local store: a circular
buffer of ``W`` words that pushes only on a miss.  No ring buffer needs to
be materialized: a word is resident iff fewer than ``W`` pushes happened
since its own last push, so residency is a pure function of a
``last_push`` sequence table and a per-store push counter.

:func:`store_replay` replays one access stream against that state.  The
stream is a ``(steps, stores)`` array of table coordinates in access
order: row ``t`` holds one access per store, and the stores own disjoint
slices of the (flat) table, so any number of stores — both stores of
every PE, or one representative store per class — replay in one call.
Each store touches a coordinate at most once per tile of ``tile_len``
rows; across tiles it revisits words freely.

Two backends compute the same result:

* ``cext`` — ``repro_store_replay``, a plain loop in access order;
* ``numpy`` — :func:`numpy_store_replay`, which resolves one tile at a
  time.  Within a tile the only sequential hazard is an intra-tile
  eviction (a word resident at tile start overwritten by the tile's own
  pushes before its use), so the misses satisfy the monotone fixed point
  ``miss(t) iff pushes_before(t) >= W - (push_count - last_push)``, with
  ``pushes_before`` a cumulative sum of the store's earlier misses.
  Iterating from the optimistic solution (no intra-tile evictions) only
  adds misses, so it terminates.

``tests/kernels/test_parity.py`` pins the two against each other.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import active_kernels, count_kernel_call

#: ``last_push`` initial value: far enough below zero that no coordinate
#: appears resident before its first push, for any realistic capacity.
NEVER = np.int64(np.iinfo(np.int64).min // 2)


def numpy_store_replay(
    table: np.ndarray,
    counts: np.ndarray,
    capacity: np.ndarray,
    coords: np.ndarray,
    active: np.ndarray,
    tile_len: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The NumPy backend of :func:`store_replay`, one tile at a time."""
    miss = np.zeros(coords.shape, dtype=bool)
    seq = np.zeros(coords.shape, dtype=np.int64)
    for start in range(0, len(coords), tile_len):
        tile = slice(start, start + tile_len)
        at, on = coords[tile], active[tile]
        last = table[at]
        slack = counts - last
        hit_ok = capacity - slack  # misses before the read that evict it
        missed = on & (hit_ok <= 0)
        while True:
            before = np.cumsum(missed, axis=0) - missed
            grown = on & (before >= hit_ok)
            if np.array_equal(grown, missed):
                break
            missed = grown
        pushed = counts + np.cumsum(missed, axis=0)
        seq[tile] = np.where(missed, pushed, last)
        miss[tile] = missed
        table[at[missed]] = pushed[missed]
        counts[:] = pushed[-1]
    seq[~active] = 0
    return miss, seq


def store_replay(
    table: np.ndarray,
    counts: np.ndarray,
    capacity: np.ndarray,
    coords: np.ndarray,
    active: np.ndarray,
    tile_len: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay one access stream; returns ``(miss, seq)``.

    Args:
        table: flat ``int64`` last-push table (``NEVER`` = never pushed),
            updated in place.
        counts: ``(stores,)`` ``int64`` push counters, updated in place.
        capacity: ``(stores,)`` store sizes in words (at least 1).
        coords: ``(steps, stores)`` table coordinates in access order;
            inactive lanes must still hold a valid coordinate (e.g. 0).
        active: ``(steps, stores)`` lanes that read their store.
        tile_len: rows per tile; ``steps`` is a multiple of it.

    ``miss`` marks the accesses that push; ``seq`` is the 1-based push each
    read sees — its own on a miss, the word's last push on a hit — and 0 on
    inactive lanes.
    """
    suite = active_kernels()
    if suite is None:
        return numpy_store_replay(
            table, counts, capacity, coords, active, tile_len
        )
    result = suite.store_replay(
        table, counts, capacity, coords, active, tile_len
    )
    count_kernel_call("store_replay", suite.backend)
    return result
