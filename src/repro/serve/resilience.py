"""Admission control, circuit breaking, and drain state for the server.

The worker pool (:mod:`repro.serve.pool`) makes a single request
resilient — retries, timeouts, crash/hang recovery.  This module makes
the *service* resilient: it bounds how much work the coordinator will
accept at once, stops hammering a backend that is failing repeatedly,
and sequences a clean shutdown.  Everything here is plain event-loop
state — no locks, no threads — because the HTTP layer drives it from a
single asyncio loop.

Three mechanisms, one facade (:class:`ServeResilience`):

* **admission control** — each request kind holds at most
  :data:`MAX_PENDING` in-flight requests; one more gets a fast 503 +
  ``Retry-After`` (:class:`OverloadedError`) instead of a queue slot.
  Shed requests count into ``serve.shed{kind}`` and live pressure shows
  in the ``serve.pending{kind}`` gauge.
* **circuit breaker**, per request kind — :data:`BREAKER_THRESHOLD`
  *consecutive* failures open the circuit; while open, requests fail
  fast (:class:`CircuitOpenError`, 503 + ``Retry-After``) without
  touching the pool.  After :data:`BREAKER_RESET_S` the breaker goes
  half-open and admits exactly one probe; the probe's outcome closes or
  re-opens it.  Transitions emit tracer events and drive the
  ``serve.breaker_state{kind}`` gauge (0 closed / 1 half-open / 2 open)
  plus ``serve.breaker_transitions{kind,to}`` counters.
* **drain** — :meth:`ServeResilience.begin_drain` flips the service to
  *draining*: new requests get :class:`DrainingError` (503), `/healthz`
  turns ``draining``, and the app waits up to :data:`DRAIN_TIMEOUT_S`
  for pending work to finish before exiting (see ``ServeApp.drain``).

``/healthz`` is derived, never stored: ``draining`` wins, any open or
half-open breaker reports ``degraded`` with reasons, otherwise ``ok``.
Chaos-injection specs (:mod:`repro.chaos`) exercise every path here;
``docs/RESILIENCE.md`` documents the constants and the state machines.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import ExperimentError
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

#: Breaker states, also the ``serve.breaker_state`` gauge encoding.
CLOSED, HALF_OPEN, OPEN = "closed", "half_open", "open"
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: In-flight requests admitted per kind.  High enough that a full-size
#: sweep (``MAX_SWEEP_POINTS`` = 1024 coalesced requests) is admitted:
#: the budget bounds memory and queueing delay, it does not rate-limit
#: normal traffic.
MAX_PENDING = 1024

#: Consecutive backend failures that open a kind's circuit breaker.
BREAKER_THRESHOLD = 5

#: How long an open breaker waits before admitting a half-open probe.
BREAKER_RESET_S = 30.0

#: On SIGTERM or ``POST /drain``, how long the app waits for in-flight
#: requests before it exits.
DRAIN_TIMEOUT_S = 10.0


class OverloadedError(ExperimentError):
    """Admission control refused the request (pending budget exhausted)."""

    def __init__(self, kind: str, pending: int, budget: int,
                 retry_after_s: float):
        super().__init__(
            f"overloaded: {pending} pending {kind!r} requests"
            f" (budget {budget}); retry in {retry_after_s:.0f}s"
        )
        self.retry_after_s = retry_after_s


class CircuitOpenError(ExperimentError):
    """The breaker for this kind is open; the request failed fast."""

    def __init__(self, kind: str, retry_after_s: float):
        super().__init__(
            f"circuit open for {kind!r} requests after repeated failures;"
            f" retry in {retry_after_s:.0f}s"
        )
        self.retry_after_s = retry_after_s


class DrainingError(ExperimentError):
    """The service is shutting down and no longer accepts work."""

    def __init__(self):
        super().__init__("service is draining; no new requests accepted")
        self.retry_after_s = 1.0


class CircuitBreaker:
    """Consecutive-failure breaker for one request kind.

    The clock is injectable so tests step through open -> half-open
    without sleeping.  ``acquire()`` gates an attempt; exactly one of
    ``record_success`` / ``record_failure`` / ``abort`` must follow.
    """

    def __init__(
        self,
        kind: str,
        *,
        threshold: int = BREAKER_THRESHOLD,
        reset_s: float = BREAKER_RESET_S,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.kind = kind
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self.state = CLOSED
        self.failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._set_gauge()

    # -- state plumbing ------------------------------------------------------

    def _set_gauge(self) -> None:
        REGISTRY.gauge("serve.breaker_state", kind=self.kind).set(
            _STATE_GAUGE[self.state]
        )

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        self._set_gauge()
        REGISTRY.counter(
            "serve.breaker_transitions", kind=self.kind, to=state
        ).inc()
        current_tracer().event(
            "breaker-transition", "serve",
            {"kind": self.kind, "to": state},
        )

    def retry_after_s(self) -> float:
        return max(0.0, self._opened_at + self.reset_s - self._clock())

    # -- the attempt protocol ------------------------------------------------

    def acquire(self) -> None:
        """Admit one attempt, or raise :class:`CircuitOpenError`."""
        if self.state == OPEN:
            if self._clock() - self._opened_at < self.reset_s:
                REGISTRY.counter(
                    "serve.breaker_rejections", kind=self.kind
                ).inc()
                raise CircuitOpenError(self.kind, self.retry_after_s())
            self._transition(HALF_OPEN)
            self._probing = False
        if self.state == HALF_OPEN:
            if self._probing:  # one probe at a time; the rest fail fast
                REGISTRY.counter(
                    "serve.breaker_rejections", kind=self.kind
                ).inc()
                raise CircuitOpenError(self.kind, self.retry_after_s())
            self._probing = True

    def record_success(self) -> None:
        self.failures = 0
        self._probing = False
        self._transition(CLOSED)

    def record_failure(self) -> None:
        self._probing = False
        if self.state == HALF_OPEN:  # failed probe: straight back open
            self._opened_at = self._clock()
            self._transition(OPEN)
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self._opened_at = self._clock()
            self._transition(OPEN)

    def abort(self) -> None:
        """The attempt never finished (cancelled client): no verdict."""
        self._probing = False


class ServeResilience:
    """Admission + breakers + drain state, one per :class:`ServeApp`."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._pending: Dict[str, int] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.draining = False

    # -- admission -----------------------------------------------------------

    def pending(self, kind: str) -> int:
        return self._pending.get(kind, 0)

    def total_pending(self) -> int:
        return sum(self._pending.values())

    def enter(self, kind: str) -> None:
        """Admit one request, or raise a fast-failing 503 error."""
        if self.draining:
            raise DrainingError()
        count = self.pending(kind)
        if count >= MAX_PENDING:
            REGISTRY.counter("serve.shed", kind=kind).inc()
            current_tracer().event("request-shed", "serve", {"kind": kind})
            raise OverloadedError(kind, count, MAX_PENDING, retry_after_s=1.0)
        self._pending[kind] = count + 1
        REGISTRY.gauge("serve.pending", kind=kind).set(self._pending[kind])

    def exit(self, kind: str) -> None:
        count = max(0, self.pending(kind) - 1)
        self._pending[kind] = count
        REGISTRY.gauge("serve.pending", kind=kind).set(count)

    # -- breakers ------------------------------------------------------------

    def breaker(self, kind: str) -> CircuitBreaker:
        breaker = self._breakers.get(kind)
        if breaker is None:
            breaker = CircuitBreaker(
                kind,
                threshold=BREAKER_THRESHOLD,
                reset_s=BREAKER_RESET_S,
                clock=self._clock,
            )
            self._breakers[kind] = breaker
        return breaker

    # -- drain ---------------------------------------------------------------

    def begin_drain(self) -> None:
        if not self.draining:
            self.draining = True
            REGISTRY.counter("serve.drains").inc()
            current_tracer().event("drain-begin", "serve")

    # -- health --------------------------------------------------------------

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """``(http_status, payload)`` for `/healthz`, derived on demand."""
        reasons: List[str] = []
        if self.draining:
            status, code = "draining", 503
            reasons.append("service is draining")
        else:
            status, code = "ok", 200
        breakers: Dict[str, str] = {}
        for kind, breaker in sorted(self._breakers.items()):
            breakers[kind] = breaker.state
            if breaker.state != CLOSED:
                if status == "ok":
                    status = "degraded"
                reasons.append(f"breaker {breaker.state} for {kind!r}")
        payload: Dict[str, Any] = {"status": status}
        if reasons:
            payload["reasons"] = reasons
        if breakers:
            payload["breakers"] = breakers
        pending = {k: v for k, v in sorted(self._pending.items()) if v}
        if pending:
            payload["pending"] = pending
        return code, payload
