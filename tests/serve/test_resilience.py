"""Unit tests for admission control, circuit breaking, and drain state.

Everything here runs against :mod:`repro.serve.resilience` directly —
no sockets, no pool.  The breaker clock is injected so the open ->
half-open -> closed walk happens without sleeping; the end-to-end
behavior (503s over HTTP, chaos-injected failures) lives in
``test_chaos.py``.
"""

import pytest

from repro.obs.metrics import REGISTRY
from repro.serve import resilience
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    DrainingError,
    OverloadedError,
    ServeResilience,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestPolicy:
    def test_defaults_valid(self, clock):
        """The service limits are constants: 1024 pending per kind, and
        a breaker that opens after 5 consecutive failures for 30 s."""
        res = ServeResilience(clock=clock)
        for _ in range(1024):
            res.enter("map")
        with pytest.raises(OverloadedError, match="budget 1024"):
            res.enter("map")
        res.enter("dse")  # a full 'map' budget does not shed 'dse'
        for kind in ["map"] * 1024 + ["dse"]:
            res.exit(kind)  # back to a zero serve.pending gauge
        breaker = res.breaker("dse")
        for _ in range(4):
            breaker.acquire()
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(29.9)
        with pytest.raises(CircuitOpenError):
            breaker.acquire()
        clock.advance(0.1)
        breaker.acquire()
        assert breaker.state == HALF_OPEN
        assert resilience.DRAIN_TIMEOUT_S == 10.0


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset_s=10.0):
        return CircuitBreaker(
            "map", threshold=threshold, reset_s=reset_s, clock=clock
        )

    def test_opens_after_consecutive_failures_only(self, clock):
        breaker = self.make(clock)
        for _ in range(2):
            breaker.acquire()
            breaker.record_failure()
        breaker.acquire()
        breaker.record_success()  # resets the consecutive count
        for _ in range(2):
            breaker.acquire()
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.acquire()
        breaker.record_failure()  # third in a row
        assert breaker.state == OPEN

    def test_open_rejects_fast_with_retry_after(self, clock):
        breaker = self.make(clock)
        for _ in range(3):
            breaker.acquire()
            breaker.record_failure()
        rejections = REGISTRY.counter("serve.breaker_rejections", kind="map")
        before = rejections.value
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.acquire()
        assert rejections.value == before + 1
        assert excinfo.value.retry_after_s == pytest.approx(6.0)

    def test_half_open_admits_exactly_one_probe(self, clock):
        breaker = self.make(clock)
        for _ in range(3):
            breaker.acquire()
            breaker.record_failure()
        clock.advance(10.0)
        breaker.acquire()  # the probe
        assert breaker.state == HALF_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.acquire()  # concurrent second caller fails fast
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.acquire()  # closed again: normal admission

    def test_failed_probe_reopens_for_a_full_reset_window(self, clock):
        breaker = self.make(clock)
        for _ in range(3):
            breaker.acquire()
            breaker.record_failure()
        clock.advance(10.0)
        breaker.acquire()
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN
        clock.advance(9.9)  # window restarts at the probe failure
        with pytest.raises(CircuitOpenError):
            breaker.acquire()
        clock.advance(0.2)
        breaker.acquire()  # next probe admitted
        assert breaker.state == HALF_OPEN

    def test_aborted_probe_frees_the_probe_slot(self, clock):
        breaker = self.make(clock)
        for _ in range(3):
            breaker.acquire()
            breaker.record_failure()
        clock.advance(10.0)
        breaker.acquire()
        breaker.abort()  # client went away: no verdict either way
        breaker.acquire()  # the slot is free for the next probe
        assert breaker.state == HALF_OPEN

    def test_transitions_emit_gauge_and_counters(self, clock):
        gauge = REGISTRY.gauge("serve.breaker_state", kind="map")
        opened = REGISTRY.counter(
            "serve.breaker_transitions", kind="map", to=OPEN
        )
        closed = REGISTRY.counter(
            "serve.breaker_transitions", kind="map", to=CLOSED
        )
        opened_before, closed_before = opened.value, closed.value
        breaker = self.make(clock)
        assert gauge.value == 0
        for _ in range(3):
            breaker.acquire()
            breaker.record_failure()
        assert gauge.value == 2
        assert opened.value == opened_before + 1
        clock.advance(10.0)
        breaker.acquire()
        assert gauge.value == 1
        breaker.record_success()
        assert gauge.value == 0
        assert closed.value == closed_before + 1


class TestAdmission:
    def test_budget_sheds_the_overflow_request(self, monkeypatch):
        monkeypatch.setattr(resilience, "MAX_PENDING", 2)
        res = ServeResilience()
        shed = REGISTRY.counter("serve.shed", kind="map")
        before = shed.value
        res.enter("map")
        res.enter("map")
        with pytest.raises(OverloadedError) as excinfo:
            res.enter("map")
        assert shed.value == before + 1
        assert excinfo.value.retry_after_s == 1.0
        res.exit("map")
        res.enter("map")  # freed slot readmits

    def test_budget_is_per_kind(self, monkeypatch):
        monkeypatch.setattr(resilience, "MAX_PENDING", 1)
        res = ServeResilience()
        res.enter("map")
        res.enter("dse")  # a full 'map' budget does not shed 'dse'
        with pytest.raises(OverloadedError):
            res.enter("map")

    def test_pending_gauge_follows_enter_exit(self):
        res = ServeResilience()
        gauge = REGISTRY.gauge("serve.pending", kind="simulate")
        res.enter("simulate")
        res.enter("simulate")
        assert gauge.value == 2
        assert res.total_pending() == 2
        res.exit("simulate")
        res.exit("simulate")
        assert gauge.value == 0


class TestDrainAndHealth:
    def test_healthy_by_default(self):
        code, payload = ServeResilience().health()
        assert (code, payload) == (200, {"status": "ok"})

    def test_open_breaker_degrades_health_but_stays_200(
        self, clock, monkeypatch
    ):
        monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 1)
        res = ServeResilience(clock=clock)
        breaker = res.breaker("dse")
        breaker.acquire()
        breaker.record_failure()
        code, payload = res.health()
        assert code == 200  # degraded is a warning, not an outage
        assert payload["status"] == "degraded"
        assert payload["breakers"] == {"dse": OPEN}
        assert any("dse" in reason for reason in payload["reasons"])

    def test_drain_rejects_new_work_and_reports_draining(self):
        res = ServeResilience()
        res.enter("map")
        res.begin_drain()
        res.begin_drain()  # idempotent
        with pytest.raises(DrainingError):
            res.enter("map")
        code, payload = res.health()
        assert code == 503
        assert payload["status"] == "draining"
        assert payload["pending"] == {"map": 1}
