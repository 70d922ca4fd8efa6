"""Demand-fill replay of capacity-limited circular local stores.

Every FlexFlow PE owns a neuron and a kernel local store: a circular
buffer of ``W`` words that pushes only on a miss.  A word is resident iff
fewer than ``W`` pushes happened since its own last push, so only a
store's last ``W`` pushes matter.  :class:`StoreRings` keeps exactly
those: per store, a ring of the coordinates its last ``W`` pushes wrote
(push ``p`` in slot ``(p - 1) % W``) and a push counter.  Its bytes
follow the stores, never the extent of the data they cache.

:func:`store_replay` replays one access stream against that state.  The
stream is a ``(steps, stores)`` array of data coordinates in access
order: row ``t`` holds one access per store, so any number of stores —
both stores of every PE, or one representative store per class — replay
in one call.  Each store touches a coordinate at most once per tile of
``tile_len`` rows; across tiles it revisits words freely.

Two backends compute the same result:

* ``cext`` — ``repro_store_replay``, a plain loop in access order that
  indexes each ring by coordinate for O(1) lookups;
* ``numpy`` — :func:`numpy_store_replay`, which gives each ``(store,
  word)`` of the stream one compact last-push slot, seeded from the
  rings, and resolves one tile at a time.  Within a tile the only
  sequential hazard is an intra-tile eviction (a word resident at tile
  start overwritten by the tile's own pushes before its use), so the
  misses satisfy the monotone fixed point ``miss(t) iff pushes_before(t)
  >= W - (push_count - last_push)``, with ``pushes_before`` a cumulative
  sum of the store's earlier misses.  Iterating from the optimistic
  solution (no intra-tile evictions) only adds misses, so it terminates.
  The slots pushed within the last ``W`` pushes then go back into the
  rings.

``tests/kernels/test_parity.py`` pins the two against each other.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels import active_kernels, count_kernel_call

#: Compact last-push value of a word no ring holds: far enough below zero
#: that it never appears resident, for any realistic capacity.
NEVER = np.int64(np.iinfo(np.int64).min // 2)


class StoreRings:
    """The residency state of a set of circular local stores.

    Args:
        capacity: each store's size in words (at least 1).

    Store ``s`` owns ``ring[offset[s]:offset[s] + capacity[s]]``, which
    holds the coordinate of each of its last ``capacity[s]`` pushes (-1
    in a slot never written), and has pushed ``counts[s]`` times.
    """

    def __init__(self, capacity: Sequence[int]) -> None:
        self.capacity = np.array(capacity, dtype=np.int64)
        if self.capacity.ndim != 1 or self.capacity.min(initial=1) < 1:
            raise ValueError("store capacities must be a list of sizes >= 1")
        self.offset = np.cumsum(self.capacity) - self.capacity
        self.ring = np.full(int(self.capacity.sum()), -1, dtype=np.int64)
        self.counts = np.zeros(len(self.capacity), dtype=np.int64)


def numpy_store_replay(
    stores: StoreRings,
    coords: np.ndarray,
    active: np.ndarray,
    tile_len: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The NumPy backend of :func:`store_replay`, one tile at a time."""
    capacity, counts = stores.capacity, stores.counts
    n_stores = len(capacity)
    # One compact slot per (store, word) of the stream; inactive lanes
    # share key -1, which no ring holds.
    span = int(coords.max(initial=0)) + 1
    keys = np.where(active, np.arange(n_stores) * span + coords, -1)
    words, at = np.unique(keys, return_inverse=True)
    at = at.reshape(coords.shape)
    # Seed each slot with its word's push, when a ring still holds it.
    table = np.full(len(words), NEVER)
    ring = stores.ring
    held = np.flatnonzero((ring >= 0) & (ring < span))
    owner = np.searchsorted(stores.offset, held, side="right") - 1
    found = np.searchsorted(words, owner * span + ring[held])
    known = found < len(words)
    known[known] = words[found[known]] == owner[known] * span + ring[held[known]]
    held, owner = held[known], owner[known]
    count, cap = counts[owner], capacity[owner]
    table[found[known]] = count - (count - 1 - (held - stores.offset[owner])) % cap

    miss = np.zeros(coords.shape, dtype=bool)
    seq = np.zeros(coords.shape, dtype=np.int64)
    for start in range(0, len(coords), tile_len):
        tile = slice(start, start + tile_len)
        tile_at, on = at[tile], active[tile]
        last = table[tile_at]
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
        table[tile_at[missed]] = pushed[missed]
        counts[:] = pushed[-1]
    seq[~active] = 0

    # Every push among its store's last W is its word's last push, so the
    # compact slots within that window are exactly the ring slots this
    # stream rewrote.
    store, word = np.divmod(words, span)
    recent = (words >= 0) & (table > counts[store] - capacity[store])
    store, push = store[recent], table[recent]
    stores.ring[stores.offset[store] + (push - 1) % capacity[store]] = word[recent]
    return miss, seq


def store_replay(
    stores: StoreRings,
    coords: np.ndarray,
    active: np.ndarray,
    tile_len: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay one access stream; returns ``(miss, seq)``.

    Args:
        stores: the stores' rings and push counters, updated in place.
        coords: ``(steps, stores)`` non-negative data coordinates in access
            order; inactive lanes must still hold one (e.g. 0).
        active: ``(steps, stores)`` lanes that read their store.
        tile_len: rows per tile; ``steps`` is a multiple of it.

    ``miss`` marks the accesses that push; ``seq`` is the 1-based push each
    read sees — its own on a miss, the word's last push on a hit — and 0 on
    inactive lanes.
    """
    suite = active_kernels()
    if suite is None:
        return numpy_store_replay(stores, coords, active, tile_len)
    result = suite.store_replay(stores, coords, active, tile_len)
    count_kernel_call("store_replay", suite.backend)
    return result
