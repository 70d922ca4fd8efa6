"""Worker-pool supervision: retries, timeouts, non-blocking backoff."""

import asyncio
import threading
import time

import pytest

from repro.cache import ResultCache
from repro.errors import ExperimentError
from repro.experiments.records import RunPolicy
from repro.obs.metrics import REGISTRY
from repro.serve.pool import WorkerPool
from repro.serve.schemas import parse_request


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def inline_pool():
    def make(**policy_kwargs):
        pool = WorkerPool(RunPolicy(**policy_kwargs), jobs=0)
        pools.append(pool)
        return pool

    pools = []
    yield make
    for pool in pools:
        pool.shutdown()


MAP_PV = parse_request("map", {"workload": "PV", "dim": 4})


class TestWorkerPool:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="jobs must be >= 0"):
            WorkerPool(jobs=-1)

    def test_inline_success_returns_envelope(self, inline_pool):
        from repro.dataflow import clear_mapping_cache

        clear_mapping_cache()  # a memo hit would produce no spans
        envelope = run(inline_pool().run(MAP_PV))
        assert envelope["result"]["workload"] == "PV"
        assert envelope["result"]["dim"] == 4
        assert isinstance(envelope["spans"], list) and envelope["spans"]
        assert all(record["type"] in ("span", "event")
                   for record in envelope["spans"])

    def test_flaky_computation_retried_to_success(
        self, inline_pool, monkeypatch
    ):
        attempts = []

        def flaky(kind, spec):
            attempts.append(kind)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return {"result": {"ok": True}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", flaky)
        pool = inline_pool(retries=2, backoff_s=0.001)
        events = []
        envelope = run(pool.run(MAP_PV, events.append))
        assert envelope["result"] == {"ok": True}
        assert len(attempts) == 3
        names = [event["name"] for event in events]
        assert names.count("attempt") == 3
        assert names.count("retry-scheduled") == 2

    def test_exhausted_retries_raise_with_history(
        self, inline_pool, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.serve.pool.pool_entry",
            lambda kind, spec: (_ for _ in ()).throw(RuntimeError("nope")),
        )
        pool = inline_pool(retries=1, backoff_s=0.001)
        with pytest.raises(ExperimentError) as excinfo:
            run(pool.run(MAP_PV))
        message = str(excinfo.value)
        assert "failed after 2 attempt(s)" in message
        assert "attempt 1: [failed] nope" in message
        assert "attempt 2: [failed] nope" in message

    def test_timeout_bounds_the_wait(self, inline_pool, monkeypatch):
        def slow(kind, spec):
            time.sleep(0.5)
            return {"result": {}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", slow)
        pool = inline_pool(timeout_s=0.05, retries=0)
        started = time.monotonic()
        with pytest.raises(ExperimentError, match=r"\[timeout\]"):
            run(pool.run(MAP_PV))
        assert time.monotonic() - started < 0.45

    def test_backoff_does_not_block_other_requests(
        self, inline_pool, monkeypatch
    ):
        """While one request sits in backoff, others are served.

        The failing request retries after 0.3 s; the fast request must
        complete during that window, not after it.
        """
        calls = []

        def sometimes(kind, spec):
            calls.append(spec)
            if spec.get("workload") == "PV" and len(calls) == 1:
                raise RuntimeError("first attempt fails")
            return {"result": {"workload": spec.get("workload")}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", sometimes)
        pool = inline_pool(retries=1, backoff_s=0.3)
        fast = parse_request("map", {"workload": "FR", "dim": 4})

        async def scenario():
            started = time.monotonic()
            flaky_task = asyncio.ensure_future(pool.run(MAP_PV))
            await asyncio.sleep(0.02)  # let the flaky attempt fail first
            await pool.run(fast)
            fast_done = time.monotonic() - started
            await flaky_task
            flaky_done = time.monotonic() - started
            return fast_done, flaky_done

        fast_done, flaky_done = run(scenario())
        assert fast_done < 0.25, "fast request waited out the backoff"
        assert flaky_done >= 0.3


class TestSupervision:
    def test_pool_workers_gauge_tracks_lifecycle(
        self, inline_pool, monkeypatch
    ):
        """The gauge follows spawn, shutdown, and lazy recreation."""
        monkeypatch.setattr(
            "repro.serve.pool.pool_entry",
            lambda kind, spec: {"result": {}, "spans": []},
        )
        gauge = REGISTRY.gauge("pool.workers")
        pool = inline_pool(retries=0)
        run(pool.run(MAP_PV))
        assert gauge.value == 1
        pool.shutdown()
        assert gauge.value == 0
        run(pool.run(MAP_PV))  # the next request recreates the pool
        assert gauge.value == 1

    def test_hung_inline_worker_reaped_and_replaced(
        self, inline_pool, monkeypatch
    ):
        """A wedged inline worker is abandoned within
        ``DEFAULT_GRACE_FACTOR * timeout_s`` and a fresh thread takes
        over its slot — the
        ``jobs=0`` wedging fix.  Its eventual result is dropped as late,
        never delivered."""
        release = threading.Event()
        calls = []

        def sticky(kind, spec):
            calls.append(kind)
            if len(calls) == 1:
                release.wait(5.0)  # wedge until the test lets go
            return {"result": {"call": len(calls)}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", sticky)
        pool = inline_pool(timeout_s=0.1, retries=0)
        reaps = REGISTRY.counter("pool.worker_reaps")
        respawns = REGISTRY.counter("pool.worker_respawns")
        late = REGISTRY.counter("pool.late_results")
        reaps_before, respawns_before = reaps.value, respawns.value
        late_before = late.value

        async def scenario():
            with pytest.raises(ExperimentError, match=r"\[timeout\]"):
                await pool.run(MAP_PV)
            # The worker is still wedged; the reaper fires at
            # timeout_s * DEFAULT_GRACE_FACTOR = 0.2 s after dispatch.
            deadline = time.monotonic() + 2.0
            while reaps.value == reaps_before:
                if time.monotonic() > deadline:
                    pytest.fail("hung worker was never reaped")
                await asyncio.sleep(0.02)
            # The replacement worker serves the next request even though
            # the abandoned thread is still blocked.
            envelope = await pool.run(MAP_PV)
            assert envelope["result"]["call"] == 2
            # Let the abandoned thread finish: its reply must be dropped.
            release.set()
            deadline = time.monotonic() + 2.0
            while late.value == late_before:
                if time.monotonic() > deadline:
                    pytest.fail("abandoned result was never counted late")
                await asyncio.sleep(0.02)

        run(scenario())
        assert reaps.value == reaps_before + 1
        assert respawns.value >= respawns_before + 1
        assert pool.worker_count == 1
        assert REGISTRY.gauge("pool.workers").value == 1


class TestBootNotCharged:
    """A task's timeout and reaper deadline start once its worker has
    booted, so a slow worker start is not taken for a hung task."""

    def test_slow_inline_boot_not_charged_to_the_timeout(
        self, inline_pool, monkeypatch
    ):
        from repro.serve import pool as pool_module

        warm = pool_module._warm_message

        def slow_warm():
            time.sleep(0.3)
            return warm()

        monkeypatch.setattr("repro.serve.pool._warm_message", slow_warm)
        timeouts = REGISTRY.counter("pool.timeouts", kind="map")
        reaps = REGISTRY.counter("pool.worker_reaps")
        timeouts_before, reaps_before = timeouts.value, reaps.value
        pool = inline_pool(timeout_s=0.05, retries=0)
        envelope = run(pool.run(MAP_PV))
        assert envelope["result"]["workload"] == "PV"
        assert timeouts.value == timeouts_before
        assert reaps.value == reaps_before

    def test_spawn_boot_not_charged_to_the_timeout(self, monkeypatch):
        """A spawn worker's start (a process, the package import) takes
        far longer than this timeout; the map it then runs does not."""
        monkeypatch.setattr("repro.serve.pool.DEFAULT_GRACE_FACTOR", 1.0)
        timeouts = REGISTRY.counter("pool.timeouts", kind="map")
        reaps = REGISTRY.counter("pool.worker_reaps")
        timeouts_before, reaps_before = timeouts.value, reaps.value
        pool = WorkerPool(RunPolicy(retries=0, timeout_s=0.2), jobs=1)
        try:
            envelope = run(pool.run(MAP_PV))
        finally:
            pool.shutdown()
        assert envelope["result"]["workload"] == "PV"
        assert timeouts.value == timeouts_before
        assert reaps.value == reaps_before

    def test_hung_boot_reaped_at_the_boot_timeout(
        self, inline_pool, monkeypatch
    ):
        release = threading.Event()

        def hung_warm():
            release.wait(5.0)
            return (None, "warm", None)

        monkeypatch.setattr("repro.serve.pool._warm_message", hung_warm)
        monkeypatch.setattr("repro.serve.pool.BOOT_TIMEOUT_S", 0.2)
        reaps = REGISTRY.counter("pool.worker_reaps")
        reaps_before = reaps.value
        pool = inline_pool(timeout_s=0.05, retries=0)
        started = time.monotonic()
        try:
            with pytest.raises(
                ExperimentError, match=r"\[timeout\] worker did not boot"
            ):
                run(pool.run(MAP_PV))
        finally:
            release.set()
        assert reaps.value == reaps_before + 1
        assert 0.2 <= time.monotonic() - started < 3.0


class TestEagerWarmup:
    def test_inline_worker_reports_warm_gauge(self, inline_pool):
        """Worker start eagerly loads the kernel backend and reports the
        load time via the ``pool.worker_warm_ms`` gauge, so the first
        cold request never pays the kernel (JIT) load."""
        gauge = REGISTRY.gauge("pool.worker_warm_ms")
        gauge.set(-1.0)
        pool = inline_pool(retries=0)
        envelope = run(pool.run(MAP_PV))
        assert envelope["result"]["workload"] == "PV"
        # The warm message is posted before the worker's first reply, so
        # by the time the reply landed the gauge has the load time.
        assert gauge.value >= 0.0

    def test_spawn_worker_reports_warm_gauge(self):
        gauge = REGISTRY.gauge("pool.worker_warm_ms")
        gauge.set(-1.0)
        pool = WorkerPool(
            RunPolicy(retries=0, timeout_s=60.0), jobs=1
        )
        try:
            envelope = run(pool.run(MAP_PV))
            assert envelope["result"]["workload"] == "PV"
            deadline = time.monotonic() + 10.0
            while gauge.value < 0.0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert gauge.value >= 0.0
        finally:
            pool.shutdown()


class TestWorkerPreload:
    def test_spawn_worker_tasks_import_no_repro_module(self):
        """A spawn worker imports every module a request kind runs
        before it reports ``warm``, so no task, the first included, pays
        an import inside its timeout; and it never imports asyncio,
        which only the coordinator runs."""
        from repro.experiments.records import ARCH_ORDER
        from repro.serve.batcher import fuse_requests
        from tests.serve.module_probe import probe_entry

        dse = [
            parse_request("dse", {"workload": "LeNet-5", "dims": dims})
            for dims in ([4, 8], [8, 16])
        ]
        requests = [
            parse_request("dse", {"workload": "PV", "dims": [4, 8]}),
            MAP_PV,
            *(
                parse_request("simulate", {"workload": "PV", "dim": 8, "arch": arch})
                for arch in ARCH_ORDER
            ),
            parse_request("dse_per_layer", {"workload": "PV", "dim": 8}),
            fuse_requests(dse),
        ]
        pool = WorkerPool(
            RunPolicy(retries=0, timeout_s=120.0), jobs=1, entry=probe_entry
        )

        async def serially():
            return [await pool.run(request) for request in requests]

        try:
            envelopes = run(serially())
        finally:
            pool.shutdown()
        assert {
            request.label: envelope["imported"]
            for request, envelope in zip(requests, envelopes)
        } == {request.label: [] for request in requests}
        assert not any(envelope["asyncio"] for envelope in envelopes)


class TestGracefulShutdown:
    def test_shutdown_lands_worker_cache_publishes(
        self, serve_cache, monkeypatch
    ):
        """A write-behind entry a spawn worker queued is on disk once
        shutdown() returns, with no drain() in this process: shutdown()
        stops the idle worker with the sentinel rather than a SIGKILL, so
        the worker's exit drains its flush queue.  The chaos ``slow_io``
        point holds the worker's disk write past its reply."""
        from repro.cache import hash_payload
        from repro.chaos import reset_chaos_handles
        from repro.serve.schemas import ComputeRequest
        from tests.serve.module_probe import publish_entry

        monkeypatch.setenv("REPRO_CHAOS", "slow_io=1@1,slow_io_s=0.5")
        reset_chaos_handles()
        key = hash_payload("unit", {"n": 1})
        request = ComputeRequest(
            "publish", {"key": key}, key=key, label="publish"
        )
        pool = WorkerPool(
            RunPolicy(retries=0, timeout_s=120.0), jobs=1,
            entry=publish_entry,
        )
        try:
            run(pool.run(request))
        finally:
            pool.shutdown()
        monkeypatch.delenv("REPRO_CHAOS")
        reset_chaos_handles()
        assert ResultCache(serve_cache).get("serve", key) == {
            "kind": "publish"
        }

    def test_shutdown_leaves_no_worker_alive(self):
        """Idle workers exit on the sentinel and are reaped before
        shutdown() returns."""
        import multiprocessing

        pool = WorkerPool(RunPolicy(timeout_s=60.0), jobs=2)
        run(pool.run(MAP_PV))
        pool.shutdown()
        assert multiprocessing.active_children() == []
        assert REGISTRY.gauge("pool.workers").value == 0
