"""Fault impact on the rigid baselines: throughput retention models.

FlexFlow routes around faults through the mapper (smaller feasible
unrolling factors over the :class:`~repro.faults.mask.LiveGrid`), so its
degradation comes out of the real mapping search.  The three rigid
baselines have no such freedom — their dataflow hard-wires PEs into
structures that a single dead PE breaks:

* **Systolic** — each ``Ta x Ta`` array is one deep pipeline; a dead PE
  anywhere in an array breaks the shift chain, retiring the whole array.
* **2D-Mapping** — output neurons shift between row neighbours through
  per-PE FIFOs; a dead PE severs its row's shift chain, retiring the row.
* **Tiling** — each cluster is ``Tn`` multiplier lanes into one adder
  tree; a dead lane corrupts the tree sum, retiring the cluster.
* **Row-stationary** — a PE row performs one 1-D convolution with
  diagonal partial-sum accumulation; a dead PE retires its row.

The surviving structures re-execute the lost structures' share of the
work serially, so cycles scale by ``1 / retention`` — retention 0 means
the architecture is unusable under the mask.  PEs are assigned to
structures in row-major linear order (the same order the physical layout
tiles them); leftover PEs outside any structure absorb faults for free.

A retention depends only on the mask and the structure shape, so each
model is memoized per process (:data:`RETENTION_MEMO_SIZE` entries) and
evaluated once per (mask, structure), not once per layer;
:func:`repro.dataflow.clear_mapping_cache` empties the memos.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.mask import AvailabilityMask
from repro.kernels import active_kernels, count_kernel_call

#: Bound of each retention memo (one entry per mask and structure shape).
RETENTION_MEMO_SIZE = 256


def _dead_flags(mask: AvailabilityMask) -> np.ndarray:
    """Row-major boolean PE grid, True where the mask marks a PE dead."""
    flags = np.zeros(mask.array_dim * mask.array_dim, dtype=bool)
    for r, c in mask.dead:
        flags[r * mask.array_dim + c] = True
    return flags


def _surviving(flags: np.ndarray, n_struct: int, size: int) -> int:
    """Structures (row-major groups of ``size`` PEs) with no dead member.

    ``flags`` may be shorter than ``n_struct * size``: indices past its
    end model nonexistent, hence fault-free, PEs (the compiled kernel
    treats them the same way the NumPy path's zero-padding does).
    """
    suite = active_kernels()
    if suite is not None:
        alive = suite.surviving_structures(flags, n_struct, size)
        count_kernel_call("surviving_structures", suite.backend)
        return alive
    covered = n_struct * size
    if flags.size < covered:
        flags = np.pad(flags, (0, covered - flags.size))
    per_struct_dead = flags[:covered].reshape(n_struct, size).any(axis=1)
    return int((~per_struct_dead).sum())


@lru_cache(maxsize=RETENTION_MEMO_SIZE)
def systolic_retention(mask: AvailabilityMask, array_size: int) -> float:
    """Fraction of ``Ta x Ta`` systolic arrays that survive the mask."""
    if array_size <= 0:
        raise ConfigurationError(f"array_size must be positive, got {array_size}")
    pes_per_array = array_size * array_size
    num_arrays = max(1, (mask.array_dim * mask.array_dim) // pes_per_array)
    covered = num_arrays * pes_per_array
    # An array larger than the grid still counts as one structure; the
    # missing (nonexistent, hence fault-free) PEs never kill it.
    flags = _dead_flags(mask)[:covered]
    return _surviving(flags, num_arrays, pes_per_array) / num_arrays


@lru_cache(maxsize=RETENTION_MEMO_SIZE)
def row_kill_retention(mask: AvailabilityMask) -> float:
    """Fraction of physical rows with no dead PE (2D-Mapping, row-stationary)."""
    dead_rows = {r for r, _ in mask.dead}
    return (mask.array_dim - len(dead_rows)) / mask.array_dim


@lru_cache(maxsize=RETENTION_MEMO_SIZE)
def tiling_retention(mask: AvailabilityMask, tm: int, tn: int) -> float:
    """Fraction of ``Tm`` clusters (of ``Tn`` lanes) that survive the mask."""
    if tm <= 0 or tn <= 0:
        raise ConfigurationError(f"tm/tn must be positive, got ({tm},{tn})")
    # Lane indices past the physical grid absorb faults for free.
    flags = _dead_flags(mask)[: tm * tn]
    return _surviving(flags, tm, tn) / tm
