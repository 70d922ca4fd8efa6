"""Load-test client and harness for the serve front-end.

Three layers, each usable on its own:

* :class:`ServeClient` — a tiny blocking HTTP client (stdlib
  ``http.client``) for one connection; tests, the CI smoke job, and the
  benchmark all talk to the service through it;
* :func:`start_server` — boot ``repro serve`` as a subprocess on an
  ephemeral port and wait for readiness;
* :func:`run_load_test` — the measurement protocol behind the committed
  ``serve`` numbers in ``BENCH_headline.json``:

  1. **dedup** — N identical concurrent cold requests; the
     ``serve.backend_computations`` counter delta proves exactly one
     backend computation ran, the ``serve.coalesced`` delta is the
     dedup hit count;
  2. **cold** — distinct uncached requests, timed individually;
  3. **warm** — the same requests replayed; the phase records its reply
     sources and its ``serve.backend_computations`` delta, and
     ``benchmarks/capture_baseline.py --check`` requires every reply
     from the cache and no backend computation.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError

#: The ready line ``repro serve`` prints once bound.
_READY_RE = re.compile(r"serving on http://([0-9.]+):(\d+)")


class ServeClient:
    """One keep-alive connection to a serve instance."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8787, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Response headers of the last completed request (lower-cased
        #: names) — how callers read ``retry-after`` off a 503.
        self.last_headers: Dict[str, str] = {}
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, Any]:
        """One request; returns ``(status, decoded JSON body)``."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            conn = self._connection()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            # One reconnect: the server may have idled out the keep-alive.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        self.last_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        try:
            decoded = json.loads(raw) if raw else None
        except ValueError:
            decoded = {"raw": raw.decode("utf-8", "replace")}
        return response.status, decoded

    def get(self, path: str) -> Tuple[int, Any]:
        return self.request("GET", path)

    def post(self, path: str, body: Any) -> Tuple[int, Any]:
        return self.request("POST", path, body)

    def healthz(self) -> bool:
        try:
            status, body = self.get("/healthz")
        except OSError:
            return False
        return status == 200 and isinstance(body, dict)

    def metrics(self) -> Dict[str, Any]:
        status, body = self.get("/metrics")
        if status != 200:
            raise ExperimentError(f"/metrics answered {status}: {body}")
        return body["metrics"]

    def health(self) -> Dict[str, Any]:
        """The `/healthz` payload (``{"status": ...}``), best-effort."""
        try:
            _, body = self.get("/healthz")
        except OSError:
            return {"status": "unreachable"}
        return body if isinstance(body, dict) else {"status": "?"}

    def compute(self, kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
        status, payload = self.post(f"/v1/{kind}", body)
        if status != 200:
            raise ExperimentError(f"/v1/{kind} answered {status}: {payload}")
        return payload

    def compute_raw(self, kind: str, encoded: bytes) -> bytes:
        """One compute request from pre-encoded body bytes, JSON codec
        free on the client: the warm-latency protocol times the server
        tiers, so the client's constant ``json.dumps``/``loads`` cost is
        kept out of the loop (identically for every leg)."""
        conn = self._connection()
        headers = {"Content-Type": "application/json"}
        try:
            conn.request("POST", f"/v1/{kind}", body=encoded, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            conn = self._connection()
            conn.request("POST", f"/v1/{kind}", body=encoded, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        if response.status != 200:
            raise ExperimentError(
                f"/v1/{kind} answered {response.status}: {raw[:200]!r}"
            )
        return raw

    def compute_with_retry(
        self,
        kind: str,
        body: Dict[str, Any],
        *,
        max_tries: int = 8,
        backoff_s: float = 0.1,
    ) -> Tuple[Dict[str, Any], int]:
        """``compute()`` that retries deliberate 503s (shed/breaker-open).

        A well-behaved client's loop: honor ``Retry-After`` (capped at
        1s so harness runs stay fast), give up on any other error.
        Returns ``(payload, retries_used)``.
        """
        last: Tuple[int, Any] = (0, None)
        for attempt in range(max_tries):
            status, payload = self.post(f"/v1/{kind}", body)
            if status == 200:
                return payload, attempt
            last = (status, payload)
            if status != 503:
                break
            try:
                retry_after = float(self.last_headers.get("retry-after", 0))
            except ValueError:
                retry_after = 0.0
            time.sleep(min(max(backoff_s, retry_after), 1.0))
        raise ExperimentError(
            f"/v1/{kind} answered {last[0]} after {max_tries} tries: {last[1]}"
        )


def metric_total(snapshot: Dict[str, Any], name: str) -> float:
    """Sum one metric across its label variants in a registry snapshot."""
    total = 0.0
    for series, value in snapshot.items():
        if series == name or series.startswith(name + "{"):
            total += value
    return total


def start_server(
    *,
    jobs: int = 2,
    extra_args: Sequence[str] = (),
    env: Optional[Dict[str, str]] = None,
    ready_timeout_s: float = 60.0,
) -> Tuple[subprocess.Popen, ServeClient]:
    """Boot ``repro serve`` on an ephemeral port; wait for readiness.

    Returns the process and a connected client.  The caller owns the
    process (``proc.terminate()`` when done).
    """
    run_env = dict(os.environ if env is None else env)
    run_env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--jobs", str(jobs), *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=run_env,
    )
    deadline = time.monotonic() + ready_timeout_s
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _READY_RE.search(line)
        if match:
            client = ServeClient(match.group(1), int(match.group(2)))
            for _ in range(200):
                if client.healthz():
                    return proc, client
                time.sleep(0.05)
            break
    proc.terminate()
    out = line + (proc.stdout.read() or "")
    raise ExperimentError(f"serve did not become ready; output:\n{out}")


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (numpy's default method).

    The previous rounded-index picker was biased on small samples — p95
    of 10 points landed on an actual observation (the 9th or 10th)
    instead of interpolating between them, overstating tail latency by
    up to half an inter-sample gap.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = min(max(fraction, 0.0), 1.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


#: Backwards-compatible alias (the harness predates the public name).
_percentile = percentile


def _timed_phase(
    client: ServeClient,
    requests: List[Tuple[str, Dict[str, Any]]],
    *,
    concurrency: int = 4,
) -> Dict[str, Any]:
    """Drive ``requests`` through ``concurrency`` worker threads.

    Cold and warm phases run at the *same* concurrency, so the
    throughput ratio compares the service paths, not the client shape.
    """
    latencies: List[float] = []
    sources: Dict[str, int] = {}
    errors: List[str] = []
    lock = threading.Lock()
    shards = [requests[i::concurrency] for i in range(concurrency)]

    def drive(shard: List[Tuple[str, Dict[str, Any]]]) -> None:
        worker = ServeClient(client.host, client.port, timeout=client.timeout)
        local_lat, local_src = [], {}
        try:
            for kind, body in shard:
                t0 = time.perf_counter()
                payload = worker.compute(kind, body)
                local_lat.append((time.perf_counter() - t0) * 1000.0)
                source = payload.get("source", "?")
                local_src[source] = local_src.get(source, 0) + 1
        except Exception as exc:  # collected, surfaced after the join
            with lock:
                errors.append(str(exc))
        finally:
            worker.close()
        with lock:
            latencies.extend(local_lat)
            for source, count in local_src.items():
                sources[source] = sources.get(source, 0) + count

    started = time.perf_counter()
    threads = [
        threading.Thread(target=drive, args=(shard,))
        for shard in shards if shard
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise ExperimentError(
            f"load phase: {len(errors)} worker(s) failed; first: {errors[0]}"
        )
    return {
        "requests": len(requests),
        "concurrency": concurrency,
        "seconds": elapsed,
        "rps": len(requests) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "p99_ms": percentile(latencies, 0.99),
        "sources": sources,
    }


def run_load_test(
    client: ServeClient,
    *,
    fanout: int = 16,
    warm_rounds: int = 20,
) -> Dict[str, Any]:
    """The full measurement protocol against a freshly booted server.

    The server must start with an empty ``serve`` cache section for the
    cold numbers to mean anything (:func:`start_server` with a
    ``REPRO_CACHE_DIR`` pointing at a fresh directory).
    """
    # -- phase 1: dedup — N identical concurrent cold requests ------------
    before = client.metrics()
    dedup_body = {"workload": "AlexNet", "dims": [8, 16, 32]}
    barrier = threading.Barrier(fanout)
    failures: List[str] = []

    def one_request() -> None:
        worker = ServeClient(client.host, client.port, timeout=client.timeout)
        try:
            barrier.wait(timeout=30)
            worker.compute("dse", dedup_body)
        except Exception as exc:  # collected, asserted below
            failures.append(str(exc))
        finally:
            worker.close()

    threads = [threading.Thread(target=one_request) for _ in range(fanout)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise ExperimentError(
            f"dedup phase: {len(failures)} of {fanout} requests failed;"
            f" first: {failures[0]}"
        )
    after = client.metrics()

    def delta(name: str) -> float:
        return metric_total(after, name) - metric_total(before, name)

    dedup = {
        "fanout": fanout,
        "backend_computations": delta("serve.backend_computations"),
        "coalesced": delta("serve.coalesced"),
        "dedup_hit_rate": delta("serve.coalesced") / fanout,
    }

    # -- phase 2/3: cold vs warm throughput -------------------------------
    # Cold points are wide array-scale sweeps (32 dims each, offset per
    # workload so every key is distinct); warm replays the same points.
    points: List[Tuple[str, Dict[str, Any]]] = []
    for offset, workload in enumerate(
        ("VGG-11", "AlexNet", "HG", "FR", "LeNet-5", "PV")
    ):
        dims = [offset + 1 + 8 * step for step in range(32)]
        points.append(("dse", {"workload": workload, "dims": dims}))
    cold = _timed_phase(client, points)
    warm_before = client.metrics()
    warm = _timed_phase(client, points * warm_rounds)
    snapshot = client.metrics()
    warm["backend_computations"] = metric_total(
        snapshot, "serve.backend_computations"
    ) - metric_total(warm_before, "serve.backend_computations")
    return {
        "dedup": dedup,
        "cold": cold,
        "warm": warm,
        "warm_over_cold_throughput": (
            warm["rps"] / cold["rps"] if cold["rps"] > 0 else 0.0
        ),
        "responses_5xx": metric_total(snapshot, "serve.responses{code=500}"),
    }


# -- the serving fast path protocol -------------------------------------------
#
# Three phases behind the ``serve_fastpath`` section of
# ``BENCH_headline.json`` (each boots its own server so knobs and cache
# state are controlled):
#
# 1. **fused** — N *compatible* cold DSE requests (same workload,
#    different dims) fired concurrently against a batching server with a
#    generous window must collapse to exactly ONE backend dispatch, and
#    every per-point payload must be byte-identical to what a
#    batching-off server computes for the same request;
# 2. **warm_memory** — one warmed disk store measured through two
#    servers: ``REPRO_CACHE_MEM_MB=0`` (every hit pays the disk read)
#    vs the memory tier + hot response path.  The p50 ratio is the
#    memory-tier headline;
# 3. **batched_cold** — a mixed burst (several workloads x several
#    overlapping-dims requests each) against batching-off vs batching-on
#    servers; fusing the redundant concurrent work is the throughput
#    headline.


def _concurrent_burst(
    client: ServeClient, requests: List[Tuple[str, Dict[str, Any]]]
) -> Tuple[float, List[Dict[str, Any]]]:
    """Fire every request at once (one thread each); keep response order.

    Returns ``(elapsed_seconds, payloads)``.  Raises on any failure.
    """
    payloads: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    errors: List[str] = []
    barrier = threading.Barrier(len(requests))

    def one(index: int, kind: str, body: Dict[str, Any]) -> None:
        worker = ServeClient(client.host, client.port, timeout=client.timeout)
        try:
            barrier.wait(timeout=60)
            payloads[index] = worker.compute(kind, body)
        except Exception as exc:
            errors.append(str(exc))
        finally:
            worker.close()

    threads = [
        threading.Thread(target=one, args=(index, kind, body))
        for index, (kind, body) in enumerate(requests)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise ExperimentError(
            f"burst: {len(errors)} request(s) failed; first: {errors[0]}"
        )
    return elapsed, payloads  # type: ignore[return-value]


def _fastpath_fused_phase(jobs: int, fanout: int) -> Dict[str, Any]:
    """Phase 1: the fused-dispatch floor plus singleton byte-parity."""
    requests = [
        ("dse", {"workload": "AlexNet", "dims": [4 + i, 5 + i, 6 + i]})
        for i in range(fanout)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-fastpath-") as tmp:
        env = dict(os.environ)
        env.update(REPRO_CACHE="on", REPRO_CACHE_DIR=tmp, REPRO_CHAOS="off")
        proc, client = start_server(
            jobs=jobs,
            extra_args=[
                "--batch-window-ms", "500", "--batch-max", str(fanout),
            ],
            env=env,
        )
        try:
            before = client.metrics()
            _, batched = _concurrent_burst(client, requests)
            after = client.metrics()
        finally:
            client.close()
            proc.terminate()
            proc.wait(timeout=30)

    # The reference leg: the same requests against a batching-off server
    # with its own cold cache; per-point payloads must match byte-wise.
    with tempfile.TemporaryDirectory(prefix="repro-fastpath-ref-") as tmp:
        env = dict(os.environ)
        env.update(REPRO_CACHE="on", REPRO_CACHE_DIR=tmp, REPRO_CHAOS="off")
        proc, client = start_server(
            jobs=jobs, extra_args=["--batch-window-ms", "0"], env=env
        )
        try:
            singleton = [
                client.compute(kind, body) for kind, body in requests
            ]
        finally:
            client.close()
            proc.terminate()
            proc.wait(timeout=30)

    matches = sum(
        json.dumps(b["result"]) == json.dumps(s["result"])
        for b, s in zip(batched, singleton)
    )

    def delta(name: str) -> float:
        return metric_total(after, name) - metric_total(before, name)

    return {
        "fanout": fanout,
        "backend_computations": delta("serve.backend_computations"),
        "batched": delta("serve.batched"),
        "batch_failovers": delta("serve.batch_failovers"),
        "singleton_matches": matches,
        "responses_5xx": delta("serve.responses{code=500}"),
    }


def _fastpath_warm_phase(jobs: int, warm_rounds: int) -> Dict[str, Any]:
    """Phase 2: warm p50 through the disk tier vs the memory tier.

    One disk store is warmed once, then measured through two servers:
    ``REPRO_CACHE_MEM_MB=0`` (every warm hit pays the disk entry read)
    and the default memory tier (plus the pre-encoded hot response
    path).  Requests are timed serially over pre-encoded body bytes —
    the client's constant JSON codec and thread-scheduling costs would
    otherwise dilute the tier comparison identically on both legs.

    Before timing, each leg replays the point set once and counts the
    replies not served from the cache (``<leg>_uncached_replays``); a
    non-zero count is a failed invariant for the caller to report, not
    an exception that would cut the run short.
    """
    points: List[Tuple[str, Dict[str, Any]]] = []
    for offset, workload in enumerate(
        ("VGG-11", "AlexNet", "HG", "FR", "LeNet-5", "PV")
    ):
        dims = [offset + 1 + 8 * step for step in range(32)]
        points.append(("dse", {"workload": workload, "dims": dims}))
    encoded = [
        (kind, json.dumps(body).encode("utf-8")) for kind, body in points
    ]

    with tempfile.TemporaryDirectory(prefix="repro-fastpath-warm-") as tmp:
        legs: Dict[str, Dict[str, Any]] = {}
        uncached: Dict[str, int] = {}
        hot_hits = 0.0
        for leg, mem_mb in (("disk", "0"), ("memory", "")):
            env = dict(os.environ)
            env.update(
                REPRO_CACHE="on", REPRO_CACHE_DIR=tmp, REPRO_CHAOS="off"
            )
            if mem_mb:
                env["REPRO_CACHE_MEM_MB"] = mem_mb
            else:
                env.pop("REPRO_CACHE_MEM_MB", None)
            proc, client = start_server(jobs=jobs, env=env)
            try:
                # Populate (the disk store on the first leg, the memory
                # tier and hot responses on the second), then count the
                # replays that were not cache-served before timing.
                for kind, body in points:
                    client.compute(kind, body)
                uncached[leg] = sum(
                    client.compute(kind, body).get("source")
                    not in ("cache", "coalesced")
                    for kind, body in points
                )
                latencies: List[float] = []
                started = time.perf_counter()
                for _ in range(warm_rounds):
                    for kind, raw in encoded:
                        t0 = time.perf_counter()
                        client.compute_raw(kind, raw)
                        latencies.append((time.perf_counter() - t0) * 1000.0)
                elapsed = time.perf_counter() - started
                legs[leg] = {
                    "p50_ms": percentile(latencies, 0.50),
                    "p95_ms": percentile(latencies, 0.95),
                    "rps": len(latencies) / elapsed if elapsed > 0 else 0.0,
                }
                if leg == "memory":
                    hot_hits = metric_total(
                        client.metrics(), "serve.hot_path"
                    )
            finally:
                client.close()
                proc.terminate()
                proc.wait(timeout=30)
    disk_p50 = legs["disk"]["p50_ms"]
    mem_p50 = legs["memory"]["p50_ms"]
    return {
        "disk_p50_ms": disk_p50,
        "memory_p50_ms": mem_p50,
        "mem_over_disk_p50": mem_p50 / disk_p50 if disk_p50 > 0 else 0.0,
        "disk_rps": legs["disk"]["rps"],
        "memory_rps": legs["memory"]["rps"],
        "hot_path_hits": hot_hits,
        "replays": len(points),
        "disk_uncached_replays": uncached["disk"],
        "memory_uncached_replays": uncached["memory"],
    }


def _fastpath_cold_phase(members: int = 8) -> Dict[str, Any]:
    """Phase 3: one compatible cold burst, batching off vs on.

    The burst is ``members`` compatible DSE requests over one heavy
    workload, each asking for the same 31 shared dims plus one distinct
    dim.  The pool runs with ``jobs == members``, so in the unbatched
    leg each request runs on its own worker and evaluates all 32 of its
    dims: workers share no results (each memoizes its mapping searches
    in-process and publishes nothing).  The batched leg fuses the burst
    into one dispatch that evaluates the 39-dim union once, on one
    worker.  The redundant work is exactly what cross-request batching
    exists to collapse, but the throughput ratio also depends on the
    host: the unbatched leg's ``members * 32`` dim evaluations spread
    over every core the workers can use, while the fused dispatch runs
    on one, so the ratio falls as cores are added and rises when the
    server is pinned to fewer.  Each leg also pays a fixed cost per
    request (pool IPC, encoding, the coordinator's ``serve`` publish),
    which the unbatched leg pays ``members`` times.

    Each leg warms one-time process costs (imports, memoized accelerator
    state in every worker) with untimed single-dim requests on dims the
    burst does not use.
    """
    shared = [2 + 3 * step for step in range(31)]
    requests = [
        ("dse", {"workload": "VGG-11", "dims": shared + [200 + member]})
        for member in range(members)
    ]
    absorb = [
        ("dse", {"workload": "VGG-11", "dims": [240 + worker]})
        for worker in range(members)
    ]

    timings: Dict[str, float] = {}
    dispatches: Dict[str, float] = {}
    for leg, window_ms in (("unbatched", "0"), ("batched", "150")):
        with tempfile.TemporaryDirectory(prefix="repro-fastpath-cold-") as tmp:
            env = dict(os.environ)
            env.update(
                REPRO_CACHE="on", REPRO_CACHE_DIR=tmp, REPRO_CHAOS="off"
            )
            proc, client = start_server(
                jobs=members,
                extra_args=[
                    "--batch-window-ms", window_ms,
                    "--batch-max", str(members),
                ],
                env=env,
            )
            try:
                for kind, body in absorb:
                    client.compute(kind, body)
                before = client.metrics()
                elapsed, _ = _concurrent_burst(client, requests)
                after = client.metrics()
                timings[leg] = elapsed
                dispatches[leg] = metric_total(
                    after, "serve.backend_computations"
                ) - metric_total(before, "serve.backend_computations")
            finally:
                client.close()
                proc.terminate()
                proc.wait(timeout=30)
    unbatched_rps = len(requests) / timings["unbatched"]
    batched_rps = len(requests) / timings["batched"]
    return {
        "requests": len(requests),
        "unbatched_seconds": timings["unbatched"],
        "batched_seconds": timings["batched"],
        "unbatched_dispatches": dispatches["unbatched"],
        "batched_dispatches": dispatches["batched"],
        "unbatched_rps": unbatched_rps,
        "batched_rps": batched_rps,
        "batched_over_unbatched_throughput": (
            batched_rps / unbatched_rps if unbatched_rps > 0 else 0.0
        ),
    }


def run_fastpath_test(
    *, jobs: int = 2, fanout: int = 16, warm_rounds: int = 20
) -> Dict[str, Any]:
    """The full serving-fast-path protocol (fused, warm memory, cold)."""
    return {
        "fused": _fastpath_fused_phase(jobs, fanout),
        "warm_memory": _fastpath_warm_phase(jobs, warm_rounds),
        "batched_cold": _fastpath_cold_phase(),
    }
