"""End-to-end HTTP tests against an in-process serve instance."""

import json
import threading
import time

import pytest

from repro.obs.metrics import REGISTRY
from repro.serve.loadtest import metric_total


def snapshot_delta(before, name):
    return metric_total(REGISTRY.snapshot(), name) - metric_total(before, name)


class TestEndpoints:
    def test_healthz(self, server):
        status, body = server.client().get("/healthz")
        assert (status, body) == (200, {"status": "ok"})

    def test_metrics_exposes_serve_counters(self, server):
        client = server.client()
        client.compute("map", {"workload": "PV", "dim": 4})
        status, body = client.get("/metrics")
        assert status == 200
        assert metric_total(body["metrics"], "serve.requests") >= 1
        assert metric_total(body["metrics"], "serve.responses") >= 1

    def test_unknown_route_404(self, server):
        status, body = server.client().get("/v2/map")
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_405(self, server):
        status, _ = server.client().get("/v1/map")
        assert status == 405
        status, _ = server.client().post("/healthz", {})
        assert status == 405

    def test_invalid_json_400(self, server):
        client = server.client()
        conn = client._connection()
        conn.request(
            "POST", "/v1/map", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in body["error"]

    def test_validation_error_400(self, server):
        status, body = server.client().post(
            "/v1/simulate", {"workload": "ResNet"}
        )
        assert status == 400
        assert "unknown workload" in body["error"]
        status, body = server.client().post(
            "/v1/dse", {"workload": "PV", "dims": [8, 8, 16]}
        )
        assert (status, body["error"]) == (400, "'dims' lists 8 more than once")
        # The CLI's spelling of a served field is not the served one.
        status, body = server.client().post(
            "/v1/dse_per_layer",
            {"workload": "PV", "dim": 8, "reconfig_cost": 0},
        )
        assert (status, body["error"]) == (
            400,
            "unknown field 'reconfig_cost' in a dse_per_layer body;"
            " valid fields: workload, network, dim, reconfig_scale",
        )

    def test_keep_alive_serves_sequential_requests(self, server):
        client = server.client()
        conn_before = client._connection()
        for _ in range(3):
            payload = client.compute("map", {"workload": "PV", "dim": 4})
            assert payload["result"]["workload"] == "PV"
        assert client._connection() is conn_before  # same TCP connection


class TestComputeFlow:
    def test_computed_then_cached(self, server):
        client = server.client()
        first = client.compute("simulate", {"workload": "LeNet-5", "dim": 8})
        assert first["source"] == "computed"
        assert first["result"]["total_cycles"] > 0
        second = client.compute("simulate", {"workload": "LeNet-5", "dim": 8})
        assert second["source"] == "cache"
        assert second["result"] == first["result"]
        assert second["key"] == first["key"]

    def test_served_map_matches_library(self, server):
        from repro.dataflow import map_network
        from repro.nn import get_workload

        payload = server.client().compute("map", {"workload": "PV", "dim": 8})
        direct = map_network(get_workload("PV"), 8)
        assert payload["result"]["overall_utilization"] == pytest.approx(
            direct.overall_utilization
        )
        assert payload["result"]["total_cycles"] == direct.total_cycles

    def test_served_dse_per_layer_matches_library(self, server):
        from repro.dse import solve_per_layer
        from repro.nn import get_workload

        payload = server.client().compute(
            "dse_per_layer", {"workload": "PV", "dim": 8}
        )
        direct = solve_per_layer(get_workload("PV"), 8)
        assert payload["result"]["total_cycles"] == direct.total_cycles
        assert payload["result"]["families"] == list(direct.families)
        assert len(payload["result"]["layers"]) == len(direct.choices)

    def test_backend_failure_maps_to_500(self, server, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.pool.pool_entry",
            lambda kind, spec: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        status, body = server.client().post(
            "/v1/map", {"workload": "PV", "dim": 4}
        )
        assert status == 500
        assert "boom" in body["error"]

    def test_sweep_batches_points(self, server):
        status, body = server.client().post(
            "/v1/sweep",
            {"points": [
                {"workload": "PV", "dim": 4},
                {"kind": "map", "workload": "PV", "dim": 4},
                {"workload": "PV", "dim": 4},  # duplicate -> shared work
            ]},
        )
        assert status == 200
        assert body["errors"] == 0
        assert len(body["points"]) == 3
        assert {p["kind"] for p in body["points"]} == {"simulate", "map"}
        # The duplicate point shares the first point's key.
        assert body["points"][0]["key"] == body["points"][2]["key"]

    def test_sweep_with_invalid_point_is_rejected_whole(self, server):
        status, body = server.client().post(
            "/v1/sweep",
            {"points": [{"workload": "PV"}, {"workload": "nope"}]},
        )
        assert status == 400
        assert "points[1]" in body["error"]


class TestCoalescing:
    def test_identical_concurrent_requests_compute_once(
        self, server, monkeypatch
    ):
        """N identical concurrent cold requests -> ONE backend computation."""

        def slow_entry(kind, spec):
            time.sleep(0.25)  # hold the leader so every waiter attaches
            return {"result": {"slow": True}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", slow_entry)
        before = REGISTRY.snapshot()
        fanout = 6
        barrier = threading.Barrier(fanout)
        payloads, errors = [], []

        def one():
            try:
                client = server.client()
                barrier.wait(timeout=10)
                payloads.append(
                    client.compute("dse", {"workload": "PV", "dims": [4, 8]})
                )
                client.close()
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=one) for _ in range(fanout)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(payloads) == fanout
        assert snapshot_delta(before, "serve.backend_computations") == 1
        assert snapshot_delta(before, "serve.coalesced") == fanout - 1
        sources = sorted(p["source"] for p in payloads)
        assert sources == ["coalesced"] * (fanout - 1) + ["computed"]
        assert all(p["result"] == {"slow": True} for p in payloads)


class TestStreaming:
    def test_sse_progress_then_result(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        conn.request(
            "POST", "/v1/map?stream=1",
            body=json.dumps({"workload": "PV", "dim": 4}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        blocks = response.read().decode().strip().split("\n\n")
        events = []
        for block in blocks:
            lines = block.split("\n")
            name = lines[0].removeprefix("event: ")
            data = json.loads(lines[1].removeprefix("data: "))
            events.append((name, data))
        conn.close()
        names = [name for name, _ in events]
        assert names[-1] == "result"
        assert "progress" in names[:-1]
        # Progress carries the pool's attempt event and the worker spans.
        progress_names = [d.get("name") for n, d in events if n == "progress"]
        assert "attempt" in progress_names
        final = events[-1][1]
        assert final["source"] == "computed"
        assert final["result"]["workload"] == "PV"

    def test_sse_error_event_on_failure(self, server, monkeypatch):
        import http.client

        monkeypatch.setattr(
            "repro.serve.pool.pool_entry",
            lambda kind, spec: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        conn.request(
            "POST", "/v1/map?stream=1",
            body=json.dumps({"workload": "PV", "dim": 4}).encode(),
            headers={"Content-Type": "application/json"},
        )
        raw = conn.getresponse().read().decode()
        conn.close()
        last = raw.strip().split("\n\n")[-1]
        assert last.startswith("event: error")
        assert "boom" in last


class TestStreamDisconnect:
    def test_client_disconnect_keeps_leader_and_waiters_alive(
        self, make_server, monkeypatch
    ):
        """An SSE subscriber dropping mid-stream must not cancel the
        leader computation: a coalesced (non-streaming) waiter on the
        same key still gets the result, and the server just counts a
        ``serve.stream_disconnects``."""
        import http.client

        from repro.experiments.records import RunPolicy

        calls = []

        def flaky(kind, spec):
            calls.append(1)
            if len(calls) < 9:  # ~0.4s of retry churn = progress writes
                raise RuntimeError("transient")
            return {"result": {"done": True}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", flaky)
        server = make_server(
            RunPolicy(retries=12, backoff_s=0.05, max_backoff_s=0.05)
        )
        before = REGISTRY.snapshot()
        body = json.dumps({"workload": "PV", "dim": 4}).encode()

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        conn.request(
            "POST", "/v1/map?stream=1", body=body,
            headers={"Content-Type": "application/json"},
        )
        time.sleep(0.05)  # the SSE request becomes the coalescing leader
        results, errors = [], []

        def waiter():
            client = server.client()
            try:
                results.append(
                    client.compute("map", {"workload": "PV", "dim": 4})
                )
            except Exception as exc:
                errors.append(exc)
            finally:
                client.close()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        conn.close()  # drop the stream while attempts are still churning
        thread.join(timeout=30)

        assert not errors, f"waiter was poisoned: {errors[0]}"
        assert results[0]["source"] == "coalesced"
        assert results[0]["result"] == {"done": True}
        assert snapshot_delta(before, "serve.backend_computations") == 1
        deadline = time.monotonic() + 5.0
        while snapshot_delta(before, "serve.stream_disconnects") < 1:
            assert time.monotonic() < deadline, "disconnect never noticed"
            time.sleep(0.02)


class TestDrain:
    def test_drain_endpoint_refuses_new_work_then_settles(self, server):
        client = server.client()
        status, body = client.post("/drain", {})
        assert (status, body) == (200, {"status": "draining"})
        fresh = server.client()
        status, body = fresh.post("/v1/map", {"workload": "PV", "dim": 4})
        assert status == 503
        assert "draining" in body["error"]
        assert fresh.last_headers.get("retry-after") == "1"
        status, health = fresh.get("/healthz")
        assert status == 503
        assert health["status"] == "draining"
        deadline = time.monotonic() + 5.0
        while not server.app.drained.is_set():
            assert time.monotonic() < deadline, "drain never completed"
            time.sleep(0.02)
        fresh.close()
        client.close()

    def test_drain_abandons_in_flight_work_at_the_deadline(
        self, make_server, monkeypatch, capsys
    ):
        """The drain waits ``DRAIN_TIMEOUT_S`` for in-flight requests,
        then exits and reports the ones it abandoned."""
        from repro.experiments.records import RunPolicy

        release = threading.Event()

        def stuck(kind, spec):
            release.wait(10.0)
            return {"result": {}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", stuck)
        monkeypatch.setattr("repro.serve.resilience.DRAIN_TIMEOUT_S", 0.3)
        server = make_server(RunPolicy(retries=0))
        waiter = threading.Thread(
            target=lambda: server.client().post(
                "/v1/map", {"workload": "PV", "dim": 4}
            )
        )
        waiter.start()
        try:
            deadline = time.monotonic() + 5.0
            while server.app.resilience.total_pending() < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            client = server.client()
            started = time.monotonic()
            assert client.post("/drain", {})[0] == 200
            while not server.app.drained.is_set():
                assert time.monotonic() - started < 5.0, "drain never ended"
                time.sleep(0.02)
            assert time.monotonic() - started >= 0.3
            client.close()
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert "1 request(s) abandoned" in capsys.readouterr().err


class TestSubprocessBoot:
    def test_cli_serve_boots_and_answers(self, serve_cache):
        """The real ``repro serve`` subprocess: boot, compute, shut down."""
        import os
        from pathlib import Path

        import repro
        from repro.serve.loadtest import start_server

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env.update(
            REPRO_CACHE="on", REPRO_CACHE_DIR=str(serve_cache),
            PYTHONPATH=src_dir + os.pathsep + env.get("PYTHONPATH", ""),
        )
        proc, client = start_server(jobs=0, env=env)
        try:
            assert client.healthz()
            payload = client.compute("map", {"workload": "PV", "dim": 4})
            assert payload["source"] == "computed"
            status, body = client.get("/metrics")
            assert status == 200
            assert metric_total(body["metrics"], "serve.requests") >= 1
        finally:
            client.close()
            proc.terminate()
            assert proc.wait(timeout=30) is not None

    def test_sigterm_drains_gracefully_and_exits_zero(self, serve_cache):
        """``kill <pid>`` = graceful drain: the server reports the drain
        on stderr and exits 0, not killed mid-flight."""
        import os
        import signal
        from pathlib import Path

        import repro
        from repro.serve.loadtest import start_server

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env.update(
            REPRO_CACHE="on", REPRO_CACHE_DIR=str(serve_cache),
            PYTHONPATH=src_dir + os.pathsep + env.get("PYTHONPATH", ""),
        )
        proc, client = start_server(jobs=0, env=env)
        try:
            payload = client.compute("map", {"workload": "PV", "dim": 4})
            assert payload["source"] == "computed"
            client.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            output = proc.stdout.read()
            assert "drain complete" in output
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()
