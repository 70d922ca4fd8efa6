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
  ``max_pending`` in-flight requests; one more gets a fast 503 +
  ``Retry-After`` (:class:`OverloadedError`) instead of a queue slot.
  Shed requests count into ``serve.shed{kind}`` and live pressure shows
  in the ``serve.pending{kind}`` gauge.
* **circuit breaker**, per request kind — ``breaker_threshold``
  *consecutive* failures open the circuit; while open, requests fail
  fast (:class:`CircuitOpenError`, 503 + ``Retry-After``) without
  touching the pool.  After ``breaker_reset_s`` the breaker goes
  half-open and admits exactly one probe; the probe's outcome closes or
  re-opens it.  Transitions emit tracer events and drive the
  ``serve.breaker_state{kind}`` gauge (0 closed / 1 half-open / 2 open)
  plus ``serve.breaker_transitions{kind,to}`` counters.
* **drain** — :meth:`ServeResilience.begin_drain` flips the service to
  *draining*: new requests get :class:`DrainingError` (503), `/healthz`
  turns ``draining``, and the app waits for pending work to finish
  before exiting (see ``ServeApp.drain``).

``/healthz`` is derived, never stored: ``draining`` wins, any open or
half-open breaker reports ``degraded`` with reasons, otherwise ``ok``.
Chaos-injection specs (:mod:`repro.chaos`) exercise every path here;
``docs/RESILIENCE.md`` documents the knobs and the state machines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import ExperimentError
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

#: Breaker states, also the ``serve.breaker_state`` gauge encoding.
CLOSED, HALF_OPEN, OPEN = "closed", "half_open", "open"
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


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


@dataclass(frozen=True)
class ResiliencePolicy:
    """The service-level knobs (`repro serve --max-pending` etc.).

    ``max_pending`` defaults high enough that a full-size sweep
    (``MAX_SWEEP_POINTS`` = 1024 coalesced requests) is admitted; it
    exists to bound memory and queueing delay, not to rate-limit normal
    traffic.  ``grace_factor`` is forwarded to the worker pool's reaper.
    """

    max_pending: int = 1024
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    drain_timeout_s: float = 10.0
    grace_factor: float = 2.0

    def __post_init__(self):
        if self.max_pending < 1:
            raise ExperimentError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.breaker_threshold < 1:
            raise ExperimentError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        # `nan <= 0` is False, so a bare sign check lets NaN through: a
        # NaN reset never holds a breaker open, a NaN drain abandons
        # in-flight requests at once, an infinite grace never reaps.
        if not (
            math.isfinite(self.breaker_reset_s) and self.breaker_reset_s > 0
        ):
            raise ExperimentError(
                "breaker_reset_s must be positive and finite,"
                f" got {self.breaker_reset_s}"
            )
        if not (
            math.isfinite(self.drain_timeout_s) and self.drain_timeout_s > 0
        ):
            raise ExperimentError(
                "drain_timeout_s must be positive and finite,"
                f" got {self.drain_timeout_s}"
            )
        if not (math.isfinite(self.grace_factor) and self.grace_factor >= 1):
            raise ExperimentError(
                f"grace_factor must be >= 1 and finite, got {self.grace_factor}"
            )


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
        threshold: int = 5,
        reset_s: float = 30.0,
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

    def __init__(
        self,
        policy: ResiliencePolicy = ResiliencePolicy(),
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy
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
        if count >= self.policy.max_pending:
            REGISTRY.counter("serve.shed", kind=kind).inc()
            current_tracer().event("request-shed", "serve", {"kind": kind})
            raise OverloadedError(
                kind, count, self.policy.max_pending, retry_after_s=1.0
            )
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
                threshold=self.policy.breaker_threshold,
                reset_s=self.policy.breaker_reset_s,
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
