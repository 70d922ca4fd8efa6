"""Span-based structured tracing for the simulators and the mapper.

A :class:`Tracer` records a tree of :class:`Span` records.  Each span has
a name, a category, wall-clock timing, an optional *simulated-cycle*
count, a bag of integer counter deltas (``SimTrace`` snapshots diffed at
span boundaries), and free-form string labels.  Spans nest: entering a
span while another is open attaches it as a child.

Two properties shape the design:

* **Near-zero cost when disabled.**  A disabled tracer's :meth:`span`
  returns one shared no-op span (no allocation, no clock read), and
  instrumented code guards any snapshot work behind
  :attr:`Tracer.enabled` — so the default, untraced hot path pays one
  attribute check per span site, never per simulated cycle.
* **Engine parity.**  The FlexFlow simulator's two engines must emit
  *identical* span trees: :meth:`Span.parity_tree` projects a span onto
  its deterministic fields (name, category, cycles, counters, children),
  excluding wall times and labels, so the tracer doubles as a
  correctness oracle for the vectorized fast path — the same role the
  counter-equivalence tests play, one structural level up.

A module-level *current tracer* (default: disabled) lets code that has
no tracer parameter of its own — the mapper's cached search, the
experiment sweeps — participate when the CLI installs one via
:func:`use_tracer`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One traced region: timing, simulated cycles, counter deltas."""

    __slots__ = (
        "name",
        "category",
        "start_wall",
        "end_wall",
        "cycles",
        "counters",
        "labels",
        "children",
        "events",
    )

    def __init__(
        self,
        name: str,
        category: str,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.start_wall: float = 0.0
        self.end_wall: float = 0.0
        self.cycles: int = 0
        self.counters: Dict[str, int] = {}
        self.labels: Dict[str, str] = dict(labels or {})
        self.children: List["Span"] = []
        self.events: List[Dict[str, Any]] = []

    # -- recording ----------------------------------------------------------

    def set_cycles(self, cycles: int) -> None:
        self.cycles = int(cycles)

    def add_counters(self, counters: Dict[str, int]) -> None:
        """Accumulate integer counter deltas into the span."""
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def set_label(self, key: str, value: str) -> None:
        self.labels[key] = str(value)

    # -- views --------------------------------------------------------------

    @property
    def duration_wall(self) -> float:
        return self.end_wall - self.start_wall

    def parity_tree(self) -> Dict[str, Any]:
        """The deterministic projection of this span (recursively).

        Contains only fields that must match between execution engines:
        wall times, labels, and events (which carry timestamps) are
        excluded.  Two runs are span-equivalent iff their roots' parity
        trees compare equal.
        """
        return {
            "name": self.name,
            "category": self.category,
            "cycles": self.cycles,
            "counters": dict(sorted(self.counters.items())),
            "children": [child.parity_tree() for child in self.children],
        }

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, category={self.category!r},"
            f" cycles={self.cycles}, children={len(self.children)})"
        )


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def set_cycles(self, cycles: int) -> None:
        pass

    def add_counters(self, counters: Dict[str, int]) -> None:
        pass

    def set_label(self, key: str, value: str) -> None:
        pass


#: Singleton no-op span: identity-checked by the zero-overhead tests.
NULL_SPAN = _NullSpan()


@contextmanager
def _null_context() -> Iterator[_NullSpan]:
    yield NULL_SPAN


class Tracer:
    """Collects a forest of spans; disabled instances record nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def _record(self, span: Span) -> Iterator[Span]:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span.start_wall = time.perf_counter()
        try:
            yield span
        finally:
            span.end_wall = time.perf_counter()
            self._stack.pop()

    def span(
        self,
        name: str,
        category: str = "",
        labels: Optional[Dict[str, str]] = None,
    ):
        """Context manager opening a (possibly nested) span.

        Disabled tracers return a shared no-op context — callers can
        unconditionally ``with tracer.span(...) as sp`` and still skip
        expensive snapshot work behind :attr:`enabled`.
        """
        if not self.enabled:
            return _null_context()
        return self._record(Span(name, category, labels))

    def event(
        self,
        name: str,
        category: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Record an instant event on the innermost open span (or a root).

        Events carry a wall timestamp and labels only; they are excluded
        from parity trees (retry/timeout events are wall-clock dependent
        by nature).
        """
        if not self.enabled:
            return
        record = {
            "name": name,
            "category": category,
            "wall": time.perf_counter(),
            "labels": dict(labels or {}),
        }
        if self._stack:
            self._stack[-1].events.append(record)
        else:
            holder = Span(name, category, labels)
            holder.start_wall = holder.end_wall = record["wall"]
            holder.events.append(record)
            self.roots.append(holder)

    def add_span(
        self,
        name: str,
        category: str,
        *,
        start_wall: float,
        end_wall: float,
        cycles: int = 0,
        counters: Optional[Dict[str, int]] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> Optional[Span]:
        """Append a pre-timed root span (for supervisors that interleave
        many concurrent regions and cannot use the context manager)."""
        if not self.enabled:
            return None
        span = Span(name, category, labels)
        span.start_wall = start_wall
        span.end_wall = end_wall
        span.cycles = int(cycles)
        if counters:
            span.add_counters(counters)
        self.roots.append(span)
        return span

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.iter_spans()

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()


#: The default tracer: disabled, shared, never records.
NULL_TRACER = Tracer(enabled=False)

_current: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The tracer instrumented code uses when given no explicit one."""
    return _current


def use_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the current tracer; returns the previous one.

    Passing ``None`` restores the disabled default.  Callers should
    restore the previous tracer when done (see :func:`tracing`).
    """
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope with ``tracer`` (or a fresh enabled one) installed as current.

    >>> with tracing() as t:
    ...     with t.span("work", category="demo") as sp:
    ...         sp.set_cycles(3)
    >>> [root.name for root in t.roots]
    ['work']
    """
    active = tracer if tracer is not None else Tracer(enabled=True)
    previous = use_tracer(active)
    try:
        yield active
    finally:
        use_tracer(previous)


def counter_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Per-key difference of two counter snapshots (monotone counters)."""
    return {key: after[key] - before.get(key, 0) for key in after}
