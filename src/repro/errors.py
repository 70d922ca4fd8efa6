"""Exception hierarchy for the FlexFlow reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of ``repro`` with one ``except`` clause while
still being able to discriminate the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class SpecificationError(ReproError):
    """A layer or network specification is malformed or inconsistent.

    Raised when a layer's declared shapes do not line up (e.g. a CONV layer
    whose input feature-map count differs from the previous layer's output
    count), or when a parameter is out of its valid domain (negative sizes,
    zero kernels, ...).
    """


class MappingError(ReproError):
    """A dataflow mapping request cannot be satisfied.

    Raised when unrolling factors violate the Eq. 1 feasibility constraints,
    when a layer cannot be mapped onto the requested PE array, or when
    inter-layer coupling constraints are contradictory.
    """


class SimulationError(ReproError):
    """A functional simulation reached an inconsistent machine state.

    Raised for events such as reading a local-store address that was never
    written, an address-generation FSM transition that the paper's state
    machine does not define, or a PE array result that fails its internal
    sanity checks.
    """


class CapacityError(ReproError):
    """On-chip storage is too small for the requested working set.

    Raised by buffer models when an IADP placement does not fit, and by
    local stores when a tile exceeds the per-PE store capacity.
    """


class CompilationError(ReproError):
    """The layer-to-instruction compiler could not produce a program.

    Raised for unsupported layer types, malformed assembly text, and
    encode/decode mismatches.
    """


class ConfigurationError(ReproError):
    """An architecture configuration is invalid.

    Raised for non-positive PE array dimensions, zero clock frequencies,
    unknown technology nodes, and similar configuration-time mistakes.
    """


class ExperimentError(ReproError):
    """A supervised computation failed.

    Raised when a worker pool computation crashes, times out, or
    exhausts its retries (the message carries the request label and
    every attempt's failure), and by the serve layer's admission and
    client errors.
    """
