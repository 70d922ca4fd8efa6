"""Compiled kernel backends for the DSE and functional-simulator hot paths.

``REPRO_KERNELS`` selects the backend:

- ``auto`` (default): the generated-C extension (``cext``) when a C
  compiler works, else pure NumPy. A failed build falls back silently
  in this mode.
- ``cext``: the C extension, or :class:`ConfigurationError` if it cannot
  be built (no C compiler).
- ``numpy``: force the pure-NumPy paths (no compiled code).

Both backends are bit-identical: the compiled kernels are integer-exact
ports of the NumPy expressions they replace, and the parity suite
(``tests/kernels/test_parity.py``) pins every kernel against its
reference whenever the machine can build the extension.

Loading is memoized per process; :func:`reset_kernels` clears the memo
so tests can flip ``REPRO_KERNELS`` mid-run. Loads emit a
``kernels:load:<backend>`` span (category ``kernels``) so compile
warm-up cost shows in traces, and every kernel invocation at a wired
call site bumps ``kernels.calls{kernel=...,backend=...}`` via
:func:`count_kernel_call`.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import REGISTRY, current_tracer

ENV_KERNELS = "REPRO_KERNELS"
VALID_BACKENDS: Tuple[str, ...] = ("auto", "cext", "numpy")

# (resolved_env_value, suite_or_None); None suite == pure-NumPy paths.
_active: Optional[Tuple[str, Optional[object]]] = None


def requested_backend() -> str:
    """The validated ``REPRO_KERNELS`` value (default ``auto``)."""
    raw = os.environ.get(ENV_KERNELS, "auto").strip().lower() or "auto"
    if raw not in VALID_BACKENDS:
        choices = ", ".join(VALID_BACKENDS)
        raise ConfigurationError(
            f"invalid {ENV_KERNELS} value {raw!r}: valid backends are"
            f" {choices} (example: {ENV_KERNELS}=cext)"
        )
    return raw


def _load_cext(strict: bool):
    from repro.kernels import cext

    tracer = current_tracer()
    try:
        with tracer.span("kernels:load:cext", category="kernels") as span:
            suite, built = cext.load()
            span.set_label("backend", "cext")
            span.set_label("freshly_built", "yes" if built else "no")
    except cext.KernelBuildError as exc:
        if strict:
            raise ConfigurationError(
                f"{ENV_KERNELS}=cext requested but the C backend cannot be"
                f" built: {exc}; use one of: {', '.join(VALID_BACKENDS)}"
            ) from exc
        return None
    REGISTRY.counter("kernels.loads", backend="cext").inc()
    if built:
        REGISTRY.counter("kernels.builds", backend="cext").inc()
    return suite


def _resolve(choice: str):
    if choice == "numpy":
        return None
    return _load_cext(strict=choice == "cext")


def active_kernels():
    """The loaded kernel suite, or ``None`` when NumPy paths should run.

    Memoized against the resolved ``REPRO_KERNELS`` value: flipping the
    environment variable takes effect on the next call without needing
    :func:`reset_kernels`.
    """
    global _active
    choice = requested_backend()
    if _active is not None and _active[0] == choice:
        return _active[1]
    suite = _resolve(choice)
    _active = (choice, suite)
    return suite


def kernel_backend() -> str:
    """The name of the backend actually in use (``numpy`` if none loaded)."""
    suite = active_kernels()
    return "numpy" if suite is None else suite.backend


def reset_kernels() -> None:
    """Drop the memoized suite (tests flip ``REPRO_KERNELS`` mid-run)."""
    global _active
    _active = None


def count_kernel_call(kernel: str, backend: str) -> None:
    """Bump the per-kernel hit counter for a wired call site."""
    REGISTRY.counter("kernels.calls", kernel=kernel, backend=backend).inc()


__all__ = [
    "ENV_KERNELS",
    "VALID_BACKENDS",
    "active_kernels",
    "count_kernel_call",
    "kernel_backend",
    "requested_backend",
    "reset_kernels",
]
