"""Fault injection and fault-aware remapping.

The subsystem has three layers:

* :mod:`repro.faults.mask` — immutable PE availability masks and the
  greedy live-subgrid remapping (:func:`live_grid`);
* :mod:`repro.faults.model` — the seedable :class:`FaultModel` (stuck-at
  dead PEs/rows/columns, transient local-store bit flips) and the
  counter-based deterministic flip hash shared by both sim engines;
* :mod:`repro.faults.impact` — throughput-retention models for the rigid
  baselines that cannot remap around dead PEs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".mask": ("AvailabilityMask", "LiveGrid", "live_grid"),
        ".model": ("FaultModel", "transient_flip", "apply_flip"),
        ".impact": (
            "systolic_retention",
            "row_kill_retention",
            "tiling_retention",
        ),
    },
)
