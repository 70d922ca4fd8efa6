"""Chaos-injected end-to-end scenarios: the resilience layer under fire.

Each test arms ``REPRO_CHAOS`` (see :mod:`repro.chaos`) with a seeded,
budgeted schedule so the faults are deterministic, then asserts the
recovery machinery — retries, worker respawn, hung-worker reaping,
circuit breaking, admission control, cache quarantine — turns them into
successful responses (or deliberate fast 503s), never unrecovered 5xxs.
"""

import threading
import time

import pytest

from repro.cache import reset_cache_handles
from repro.chaos import CRASH_EXIT_CODE, reset_chaos_handles
from repro.errors import ExperimentError
from repro.experiments.records import RunPolicy
from repro.obs.metrics import REGISTRY
from repro.serve.pool import WorkerPool
from repro.serve.schemas import parse_request


@pytest.fixture(autouse=True)
def fresh_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
    reset_chaos_handles()
    yield
    reset_chaos_handles()


def counter_value(name, **labels):
    return REGISTRY.counter(name, **labels).value


class TestWorkerCrashRecovery:
    def test_inline_crashes_retried_to_zero_unrecovered_errors(
        self, make_server, monkeypatch
    ):
        """A crash budget of 3 (`worker_crash=1@3`) is fully absorbed by
        retries: every request answers 200, nothing surfaces as a 5xx."""
        monkeypatch.setenv("REPRO_CHAOS", "worker_crash=1@3,seed=1")
        reset_chaos_handles()
        server = make_server(RunPolicy(retries=3, backoff_s=0.01))
        injected_before = counter_value("chaos.injections",
                                        point="worker_crash")
        client = server.client()
        for dim in (4, 8, 16, 32):
            payload = client.compute("map", {"workload": "PV", "dim": dim})
            assert payload["source"] == "computed"
        client.close()
        assert (
            counter_value("chaos.injections", point="worker_crash")
            == injected_before + 3
        )
        _, health = server.client().get("/healthz")
        assert health["status"] == "ok"

    def test_spawn_worker_crash_respawns_and_recovers(
        self, tmp_path, monkeypatch
    ):
        """A real spawn worker hard-exits mid-task; the supervisor sees
        the dead pipe, fails that attempt, respawns, and the retry lands
        on a live worker."""
        monkeypatch.setenv("REPRO_CHAOS", "worker_crash=1@1,seed=1")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "chaos"))
        reset_chaos_handles()
        crashes = REGISTRY.counter("pool.worker_crashes")
        respawns = REGISTRY.counter("pool.worker_respawns")
        crashes_before, respawns_before = crashes.value, respawns.value
        pool = WorkerPool(
            RunPolicy(retries=1, backoff_s=0.01, timeout_s=60.0),
            jobs=1,
        )
        try:
            import asyncio

            envelope = asyncio.run(
                pool.run(parse_request("map", {"workload": "PV", "dim": 4}))
            )
            assert envelope["result"]["workload"] == "PV"
            assert crashes.value == crashes_before + 1
            assert respawns.value >= respawns_before + 1
        finally:
            pool.shutdown()


    def test_spawn_worker_crash_reports_exit_code(
        self, tmp_path, monkeypatch
    ):
        """A dead worker's attempt report names its exit code."""
        import asyncio

        monkeypatch.setenv("REPRO_CHAOS", "worker_crash=1@1,seed=1")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "chaos"))
        reset_chaos_handles()
        pool = WorkerPool(
            RunPolicy(retries=0, timeout_s=60.0), jobs=1
        )
        try:
            with pytest.raises(ExperimentError) as excinfo:
                asyncio.run(
                    pool.run(
                        parse_request("map", {"workload": "PV", "dim": 4})
                    )
                )
        finally:
            pool.shutdown()
        assert CRASH_EXIT_CODE == 23
        assert str(excinfo.value) == (
            "map:PV@4 failed after 1 attempt(s):\n"
            "attempt 1: [failed] worker died without a result"
            f" (exitcode {CRASH_EXIT_CODE})"
        )


class TestHungWorkerReaping:
    def test_hung_spawn_worker_reaped_within_grace(
        self, tmp_path, monkeypatch
    ):
        """One injected 30s hang against a 1s timeout: the caller times
        out, retries block on the (single) wedged worker, and only the
        reaper — at ``timeout_s * DEFAULT_GRACE_FACTOR`` (patched to 1.5)
        after the task reached the booted worker — frees the slot.  The
        request still succeeds, which *proves* the reap happened on
        schedule (un-reaped, every retry would starve and the 30s hang
        would blow the elapsed bound).  Worker boots are not charged to
        either clock, so a slow spawn on a loaded host does not add
        reaps."""
        monkeypatch.setenv(
            "REPRO_CHAOS", "worker_hang=1@1,hang_s=30,seed=1"
        )
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "chaos"))
        monkeypatch.setattr("repro.serve.pool.DEFAULT_GRACE_FACTOR", 1.5)
        reset_chaos_handles()
        reaps = REGISTRY.counter("pool.worker_reaps")
        reaps_before = reaps.value
        pool = WorkerPool(
            RunPolicy(retries=4, backoff_s=0.05, timeout_s=1.0), jobs=1
        )
        try:
            import asyncio

            started = time.monotonic()
            envelope = asyncio.run(
                pool.run(parse_request("map", {"workload": "PV", "dim": 4}))
            )
            elapsed = time.monotonic() - started
            assert envelope["result"]["workload"] == "PV"
            assert reaps.value == reaps_before + 1
            # Generous bound: two spawn boots + the 1s timeout + the reap
            # at 1.5s + the retry's compute.  Far below the injected 30s
            # hang.
            assert elapsed < 20.0
        finally:
            pool.shutdown()


class TestCircuitBreaker:
    def test_breaker_opens_degrades_health_and_recovers(
        self, make_server, monkeypatch
    ):
        healthy = threading.Event()

        def entry(kind, spec):
            if not healthy.is_set():
                raise RuntimeError("backend down")
            return {"result": {"fixed": True}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", entry)
        monkeypatch.setattr("repro.serve.resilience.BREAKER_THRESHOLD", 2)
        monkeypatch.setattr("repro.serve.resilience.BREAKER_RESET_S", 0.3)
        server = make_server(RunPolicy(retries=0))
        rejections_before = counter_value(
            "serve.breaker_rejections", kind="map"
        )
        client = server.client()
        for dim in (4, 8):  # two consecutive failures open the breaker
            status, _ = client.post("/v1/map", {"workload": "PV", "dim": dim})
            assert status == 500
        status, body = client.post("/v1/map", {"workload": "PV", "dim": 16})
        assert status == 503
        assert "circuit open" in body["error"]
        assert int(client.last_headers["retry-after"]) >= 1
        assert (
            counter_value("serve.breaker_rejections", kind="map")
            == rejections_before + 1
        )
        status, health = client.get("/healthz")
        assert status == 200  # degraded warns; it is not an outage
        assert health["status"] == "degraded"
        assert health["breakers"]["map"] == "open"

        healthy.set()
        time.sleep(0.35)  # past BREAKER_RESET_S: next request is the probe
        payload = client.compute("map", {"workload": "PV", "dim": 16})
        assert payload["result"] == {"fixed": True}
        status, health = client.get("/healthz")
        assert health["status"] == "ok"
        assert health["breakers"]["map"] == "closed"
        client.close()


class TestAdmissionControl:
    def test_pending_budget_sheds_overflow_with_retry_after(
        self, make_server, monkeypatch
    ):
        release = threading.Event()

        def slow(kind, spec):
            release.wait(10.0)
            return {"result": {}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", slow)
        monkeypatch.setattr("repro.serve.resilience.MAX_PENDING", 1)
        server = make_server(RunPolicy(retries=0))
        shed_before = counter_value("serve.shed", kind="map")
        occupied = []

        def occupy():
            client = server.client()
            occupied.append(
                client.compute("map", {"workload": "PV", "dim": 4})
            )
            client.close()

        thread = threading.Thread(target=occupy)
        thread.start()
        deadline = time.monotonic() + 5.0
        while REGISTRY.gauge("serve.pending", kind="map").value < 1:
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.01)

        client = server.client()
        status, body = client.post("/v1/map", {"workload": "PV", "dim": 8})
        assert status == 503
        assert "overloaded" in body["error"]
        assert client.last_headers["retry-after"] == "1"
        assert counter_value("serve.shed", kind="map") == shed_before + 1

        release.set()
        thread.join(timeout=10)
        assert occupied and occupied[0]["source"] == "computed"
        # The freed slot readmits: the shed request now succeeds.
        payload = client.compute("map", {"workload": "PV", "dim": 8})
        assert payload["source"] in ("computed", "cache")
        client.close()


class TestCacheSelfHealing:
    def test_corrupt_entry_quarantined_and_recomputed(
        self, server, serve_cache, monkeypatch
    ):
        """`cache_corrupt=1@1` truncates the just-published entry on
        disk.  The next read detects it, moves it to the quarantine (for
        post mortems — never deleted), and recomputes: the client sees
        two clean 200s, not a decode error."""
        from repro.cache import active_cache

        monkeypatch.setenv("REPRO_CHAOS", "cache_corrupt=1@1,seed=1")
        reset_chaos_handles()
        quarantined_before = counter_value(
            "cache.quarantined", section="serve"
        )
        client = server.client()
        body = {"workload": "PV", "dim": 4}
        first = client.compute("map", body)
        assert first["source"] == "computed"
        # The serve publish is write-behind: wait for the flush thread to
        # land the (corrupted) entry on disk, then drop the in-process
        # handles so the next probe really reads that disk entry.
        active_cache().drain()
        reset_cache_handles()
        second = client.compute("map", body)
        assert second["source"] == "computed"  # not "cache": it was bad
        assert second["result"] == first["result"]
        assert (
            counter_value("cache.quarantined", section="serve")
            == quarantined_before + 1
        )
        moved = list((serve_cache / ".quarantine" / "serve").iterdir())
        assert len(moved) == 1 and moved[0].suffix == ".json"
        client.close()
        # Third time's fully healthy: the recompute re-published cleanly.
        # Land that write-behind publish before the disk re-read, as above.
        active_cache().drain()
        reset_cache_handles()
        client = server.client()
        third = client.compute("map", body)
        assert third["source"] == "cache"
        client.close()
