"""Boot fresh serve instances, run a load-test protocol, print JSON.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py [--check]
    PYTHONPATH=src python benchmarks/bench_serve.py --fastpath [--check]

Every server leg boots ``repro serve`` as a subprocess through
:func:`serving`, on its own result store, so every run starts cold.  The
two protocols also feed the ``serve`` and ``serve_fastpath`` sections of
``BENCH_headline.json`` (``capture_baseline.py``).

:func:`run_load_test` (the default) drives one server:

1. **dedup** — N identical concurrent cold requests; the
   ``serve.backend_computations`` counter delta proves exactly one
   backend computation ran, the ``serve.coalesced`` delta is the dedup
   hit count;
2. **cold** — distinct uncached requests, timed individually;
3. **warm** — the same requests replayed; the phase records its reply
   sources and its ``serve.backend_computations`` delta.

``--check`` turns the run into the CI smoke gate: it exits non-zero
unless

* the dedup phase proves coalescing — N identical concurrent cold
  requests cost exactly ONE backend computation, dedup hit-rate > 0
  (read from the service's own ``/metrics`` counters);
* the warm phase was served entirely from the cache;
* the service answered zero 5xx responses.

The warm/cold throughput *ratio* is recorded here but not gated:
``capture_baseline.py --check`` gates the warm leg on its counts.

``--fastpath`` runs :func:`run_fastpath_test` instead, three phases
that each boot their own servers so settings and cache state are
controlled:

1. **fused** — N *compatible* cold DSE requests (same workload,
   different dims) fired concurrently against a batching server with a
   generous window must collapse to exactly ONE backend dispatch, and
   every per-point payload must be byte-identical to what a
   batching-off server computes for the same request;
2. **warm_memory** — one warmed disk store measured through two
   servers: ``REPRO_CACHE_MEM_MB=0`` (every hit pays the disk read) vs
   the memory tier + hot response path.  The p50 ratio is the
   memory-tier headline;
3. **batched_cold** — a compatible burst (several overlapping-dims
   requests over one workload) against batching-off vs batching-on
   servers; fusing the redundant concurrent work is the throughput
   headline.

With ``--check`` it exits non-zero unless

* N compatible concurrent cold requests fused into exactly ONE backend
  dispatch, with every per-point payload byte-identical to the
  batching-off singleton answer;
* the warm p50 through the memory tier is at most half the disk-tier
  warm p50;
* the batched cold burst beats the unbatched one by at least 3x
  throughput;
* zero 5xx responses anywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.serve.loadtest import (
    ServeClient,
    metric_total,
    percentile,
    start_server,
)

#: ``--fastpath --check`` floors; ``capture_baseline.py --check`` guards
#: the same numbers against the committed baseline.
FASTPATH_MAX_WARM_RATIO = 0.5
FASTPATH_MIN_COLD_SPEEDUP = 3.0

#: Wide array-scale sweeps, one per Table 1 workload: 32 dims each,
#: offset per workload so every key is distinct.  The load test's cold
#: and warm phases and the fast path's warm phase replay them.
WIDE_POINTS: List[Tuple[str, Dict[str, Any]]] = [
    ("dse", {"workload": workload,
             "dims": [offset + 1 + 8 * step for step in range(32)]})
    for offset, workload in enumerate(
        ("VGG-11", "AlexNet", "HG", "FR", "LeNet-5", "PV")
    )
]

#: The fast-path legs measure the service without fault injection,
#: whatever the calling environment arms.
_NO_CHAOS = {"REPRO_CHAOS": "off"}


@contextlib.contextmanager
def serving(
    jobs: int = 2,
    extra_args: Sequence[str] = (),
    *,
    store: Optional[str] = None,
    env: Optional[Mapping[str, Optional[str]]] = None,
) -> Iterator[ServeClient]:
    """One server leg: boot ``repro serve``, yield its client, stop it.

    The server reads and writes the result store at ``store``, or at a
    fresh temporary directory that is removed with the leg.  ``env``
    overrides the inherited environment; a ``None`` value unsets the
    variable.
    """
    with contextlib.ExitStack() as stack:
        if store is None:
            store = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-bench-serve-")
            )
        run_env = dict(os.environ, REPRO_CACHE="on", REPRO_CACHE_DIR=store)
        for name, value in (env or {}).items():
            if value is None:
                run_env.pop(name, None)
            else:
                run_env[name] = value
        proc, client = start_server(
            jobs=jobs, extra_args=extra_args, env=run_env
        )
        try:
            yield client
        finally:
            client.close()
            proc.terminate()
            proc.wait(timeout=30)


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
    *, jobs: int = 2, fanout: int = 16, warm_rounds: int = 20
) -> Dict[str, Any]:
    """The dedup / cold / warm protocol against one freshly booted server."""
    identical = [("dse", {"workload": "AlexNet", "dims": [8, 16, 32]})] * fanout
    with serving(jobs) as client:
        before = client.metrics()
        _concurrent_burst(client, identical)
        after = client.metrics()
        # Cold points are distinct uncached sweeps; warm replays them.
        cold = _timed_phase(client, WIDE_POINTS)
        warm_before = client.metrics()
        warm = _timed_phase(client, WIDE_POINTS * warm_rounds)
        snapshot = client.metrics()

    def delta(name: str) -> float:
        return metric_total(after, name) - metric_total(before, name)

    dedup = {
        "fanout": fanout,
        "backend_computations": delta("serve.backend_computations"),
        "coalesced": delta("serve.coalesced"),
        "dedup_hit_rate": delta("serve.coalesced") / fanout,
    }
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


def _fastpath_fused_phase(jobs: int, fanout: int) -> Dict[str, Any]:
    """Phase 1: the fused-dispatch floor plus singleton byte-parity."""
    requests = [
        ("dse", {"workload": "AlexNet", "dims": [4 + i, 5 + i, 6 + i]})
        for i in range(fanout)
    ]
    batching = ["--batch-window-ms", "500", "--batch-max", str(fanout)]
    with serving(jobs, batching, env=_NO_CHAOS) as client:
        before = client.metrics()
        _, batched = _concurrent_burst(client, requests)
        after = client.metrics()

    # The reference leg: the same requests against a batching-off server
    # with its own cold cache; per-point payloads must match byte-wise.
    with serving(jobs, ["--batch-window-ms", "0"], env=_NO_CHAOS) as client:
        singleton = [client.compute(kind, body) for kind, body in requests]

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
    encoded = [
        (kind, json.dumps(body).encode("utf-8")) for kind, body in WIDE_POINTS
    ]
    legs: Dict[str, Dict[str, Any]] = {}
    uncached: Dict[str, int] = {}
    hot_hits = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-fastpath-warm-") as store:
        for leg, mem_mb in (("disk", "0"), ("memory", None)):
            env = {**_NO_CHAOS, "REPRO_CACHE_MEM_MB": mem_mb}
            with serving(jobs, store=store, env=env) as client:
                # Populate (the disk store on the first leg, the memory
                # tier and hot responses on the second), then count the
                # replays that were not cache-served before timing.
                for kind, body in WIDE_POINTS:
                    client.compute(kind, body)
                uncached[leg] = sum(
                    client.compute(kind, body).get("source")
                    not in ("cache", "coalesced")
                    for kind, body in WIDE_POINTS
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
    disk_p50 = legs["disk"]["p50_ms"]
    mem_p50 = legs["memory"]["p50_ms"]
    return {
        "disk_p50_ms": disk_p50,
        "memory_p50_ms": mem_p50,
        "mem_over_disk_p50": mem_p50 / disk_p50 if disk_p50 > 0 else 0.0,
        "disk_rps": legs["disk"]["rps"],
        "memory_rps": legs["memory"]["rps"],
        "hot_path_hits": hot_hits,
        "replays": len(WIDE_POINTS),
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
        batching = ["--batch-window-ms", window_ms, "--batch-max", str(members)]
        with serving(members, batching, env=_NO_CHAOS) as client:
            for kind, body in absorb:
                client.compute(kind, body)
            before = client.metrics()
            elapsed, _ = _concurrent_burst(client, requests)
            after = client.metrics()
        timings[leg] = elapsed
        dispatches[leg] = metric_total(
            after, "serve.backend_computations"
        ) - metric_total(before, "serve.backend_computations")
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


def check_fastpath(report: dict, fanout: int) -> list:
    """The fast-path acceptance floors; returns failure strings."""
    failures = []
    fused = report["fused"]
    if fused["backend_computations"] != 1:
        failures.append(
            f"{fanout} compatible concurrent requests cost"
            f" {fused['backend_computations']} backend dispatches, not 1"
        )
    if fused["singleton_matches"] != fanout:
        failures.append(
            f"only {fused['singleton_matches']}/{fanout} batched payloads"
            " matched the singleton answers byte-wise"
        )
    if fused["responses_5xx"] != 0:
        failures.append(f"{fused['responses_5xx']} 5xx in the fused phase")
    warm = report["warm_memory"]
    for leg in ("disk", "memory"):
        uncached = warm[f"{leg}_uncached_replays"]
        if uncached:
            failures.append(
                f"{uncached}/{warm['replays']} warm replays on the {leg} leg"
                " were not served from the cache"
            )
    if warm["mem_over_disk_p50"] > FASTPATH_MAX_WARM_RATIO:
        failures.append(
            f"memory-tier warm p50 is {warm['mem_over_disk_p50']:.2f}x the"
            f" disk tier's (need <= {FASTPATH_MAX_WARM_RATIO})"
        )
    cold = report["batched_cold"]
    if cold["batched_over_unbatched_throughput"] < FASTPATH_MIN_COLD_SPEEDUP:
        failures.append(
            "batched cold throughput is only"
            f" {cold['batched_over_unbatched_throughput']:.2f}x unbatched"
            f" (need >= {FASTPATH_MIN_COLD_SPEEDUP})"
        )
    return failures


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fanout", type=int, default=16,
        help="identical concurrent requests in the dedup phase (default 16)",
    )
    parser.add_argument(
        "--warm-rounds", type=int, default=20,
        help="replays of the cold point set in the warm phase (default 20)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="server worker processes (default 2)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless dedup/cache/5xx invariants hold",
    )
    parser.add_argument(
        "--fastpath", action="store_true",
        help="run the serving-fast-path protocol (batching + memory tier)"
        " instead of the coalesce/warm load test",
    )
    args = parser.parse_args(argv[1:])

    if args.fastpath:
        report = run_fastpath_test(
            jobs=args.jobs, fanout=args.fanout, warm_rounds=args.warm_rounds
        )
        print(json.dumps(report, indent=2))
        if not args.check:
            return 0
        failures = check_fastpath(report, args.fanout)
        if failures:
            for failure in failures:
                print(f"fastpath check FAILED: {failure}", file=sys.stderr)
            return 1
        warm = report["warm_memory"]
        cold = report["batched_cold"]
        print(
            "fastpath check passed: fused"
            f" {args.fanout}->1 dispatch, warm mem/disk p50"
            f" {warm['mem_over_disk_p50']:.2f}, batched cold"
            f" {cold['batched_over_unbatched_throughput']:.1f}x, zero 5xx",
            file=sys.stderr,
        )
        return 0

    report = run_load_test(
        jobs=args.jobs, fanout=args.fanout, warm_rounds=args.warm_rounds
    )
    print(json.dumps(report, indent=2))
    if not args.check:
        return 0

    failures = []
    dedup = report["dedup"]
    if dedup["backend_computations"] != 1:
        failures.append(
            f"{args.fanout} identical concurrent requests cost"
            f" {dedup['backend_computations']} backend computations, not 1"
        )
    if dedup["dedup_hit_rate"] <= 0:
        failures.append("dedup hit-rate is 0: no request was coalesced")
    warm_sources = report["warm"]["sources"]
    if warm_sources.get("cache", 0) != report["warm"]["requests"]:
        failures.append(f"warm phase not fully cached: {warm_sources}")
    if report["responses_5xx"] != 0:
        failures.append(f"{report['responses_5xx']} 5xx responses")
    if failures:
        for failure in failures:
            print(f"serve check FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"serve check passed: dedup {dedup['dedup_hit_rate']:.2f},"
        f" warm/cold {report['warm_over_cold_throughput']:.1f}x, zero 5xx",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
