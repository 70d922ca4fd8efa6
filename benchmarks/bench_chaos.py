"""Chaos drill against a live serve instance: crashes on, SLOs held.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--check]

The server subprocess boots through :func:`bench_serve.serving` with
``REPRO_CHAOS`` arming a 20% (default) ``worker_crash`` rate, so
roughly one in five backend computations hard-kills its spawn worker
mid-task.  The drill then drives distinct
requests through a small thread fleet of well-behaved clients
(``compute_with_retry``: 503s are retried honoring ``Retry-After``,
anything else is a failure), fires a burst of *compatible* cold DSE
requests with batching pinned on (so the fused dispatch — and its
leader's failover path — runs on the crash-armed pool), drops a few SSE
streams mid-flight (the ``client_disconnect`` injection point), and
finally waits for `/healthz` to settle back to ``ok``.

``--check`` turns the drill into the CI resilience gate: it exits
non-zero unless

* **zero unrecovered 5xx** — every request eventually answered 200
  (retryable kinds only; all serve kinds are pure, hence retryable);
* **chaos actually fired** — the server observed at least one worker
  crash and respawned it (a drill without faults proves nothing);
* **shedding stayed bounded** — deliberate 503s are capped by the
  clients' retry budget, never unbounded;
* **p99 within budget** — crash-recovery latency (backoff + worker
  respawn) stays under a generous wall-clock ceiling;
* **the service healed** — final health is ``ok``, no breaker left open.

The report is committed as the ``chaos`` section of
``BENCH_headline.json`` (see ``capture_baseline.py``), where the same
invariants are re-checked against fresh measurements.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.chaos import ChaosController, ChaosRule
from repro.serve.loadtest import ServeClient, metric_total, percentile

from bench_serve import serving

#: The drill's workload mix: distinct cheap map points (kept small so a
#: crash costs a retry, not a long recompute).
_WORKLOADS = ("PV", "FR", "LeNet-5", "AlexNet", "HG", "VGG-11")

#: Wall-clock ceiling for the p99 request latency under chaos.  This is
#: an SLO smoke bound (is recovery *bounded*?), not a perf measurement:
#: the worst admitted chain is a handful of capped backoffs plus one
#: worker respawn, far below this even on a slow CI box.
DEFAULT_P99_BUDGET_MS = 10_000.0


def _drill_points(count: int) -> List[Tuple[str, Dict[str, Any]]]:
    points = []
    for index in range(count):
        workload = _WORKLOADS[index % len(_WORKLOADS)]
        dim = 4 + 2 * (index // len(_WORKLOADS))
        points.append(("map", {"workload": workload, "dim": dim}))
    return points


def _drop_stream(host: str, port: int, body: Dict[str, Any]) -> None:
    """Open an SSE computation and hang up mid-stream (rude client)."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST", "/v1/dse?stream=1",
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        time.sleep(0.05)  # let the server start computing/streaming
    finally:
        conn.close()


def run_drill(
    *,
    crash_rate: float = 0.2,
    requests: int = 40,
    concurrency: int = 4,
    seed: int = 7,
    jobs: int = 2,
    stream_drops: int = 5,
    p99_budget_ms: float = DEFAULT_P99_BUDGET_MS,
) -> Dict[str, Any]:
    max_tries = 8
    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as tmp:
        chaos_env = {
            "REPRO_CHAOS": f"worker_crash={crash_rate},seed={seed}",
            "REPRO_CHAOS_STATE": str(Path(tmp) / "chaos"),
        }
        with serving(
            jobs,
            [
                "--timeout", "60", "--retries", "5",
                "--backoff", "0.05", "--max-backoff", "0.8",
                # Batching stays ON under chaos so the drill covers the
                # batch-leader failover path, not just singleton retries.
                "--batch-window-ms", "50", "--batch-max", "16",
            ],
            store=str(Path(tmp) / "store"),
            env=chaos_env,
        ) as client:
            before = client.metrics()

            # -- phase 1: the crash storm --------------------------------
            points = _drill_points(requests)
            shards = [points[i::concurrency] for i in range(concurrency)]
            latencies: List[float] = []
            client_retries = [0]
            unrecovered: List[str] = []
            lock = threading.Lock()

            def drive(shard: List[Tuple[str, Dict[str, Any]]]) -> None:
                worker = ServeClient(client.host, client.port, timeout=120)
                try:
                    for kind, body in shard:
                        t0 = time.perf_counter()
                        try:
                            _, retries = worker.compute_with_retry(
                                kind, body, max_tries=max_tries
                            )
                        except Exception as exc:
                            with lock:
                                unrecovered.append(str(exc))
                            continue
                        elapsed_ms = (time.perf_counter() - t0) * 1000.0
                        with lock:
                            latencies.append(elapsed_ms)
                            client_retries[0] += retries
                finally:
                    worker.close()

            threads = [
                threading.Thread(target=drive, args=(shard,))
                for shard in shards if shard
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            # -- phase 1b: batched burst under fire ----------------------
            # Compatible cold dse requests fired together so the
            # BatchScheduler fuses them; the fused dispatch runs on the
            # same crash-armed pool, so a batch-leader crash exercises
            # pool-level retries and (if those drain) the per-waiter
            # failover.  Every waiter must still answer 200.
            burst = [
                {"workload": "AlexNet", "dims": [4 + member, 6 + member]}
                for member in range(concurrency * 2)
            ]
            barrier = threading.Barrier(len(burst))

            def batched_drive(body: Dict[str, Any]) -> None:
                worker = ServeClient(client.host, client.port, timeout=120)
                try:
                    barrier.wait(timeout=30)
                    t0 = time.perf_counter()
                    try:
                        _, retries = worker.compute_with_retry(
                            "dse", body, max_tries=max_tries
                        )
                    except Exception as exc:
                        with lock:
                            unrecovered.append(str(exc))
                        return
                    elapsed_ms = (time.perf_counter() - t0) * 1000.0
                    with lock:
                        latencies.append(elapsed_ms)
                        client_retries[0] += retries
                finally:
                    worker.close()

            burst_threads = [
                threading.Thread(target=batched_drive, args=(body,))
                for body in burst
            ]
            for thread in burst_threads:
                thread.start()
            for thread in burst_threads:
                thread.join()

            # -- phase 2: rude clients drop streams mid-flight -----------
            # The injection point lives in the harness (the server never
            # hangs up on itself); a seeded budget drives the drops.
            disconnector = ChaosController(
                {"client_disconnect": ChaosRule(rate=1.0, limit=stream_drops)},
                seed=seed, salt=0,
            )
            drops = 0
            while disconnector.should_fire("client_disconnect"):
                _drop_stream(
                    client.host, client.port,
                    {"workload": _WORKLOADS[drops % len(_WORKLOADS)],
                     "dims": [4, 8, 16]},
                )
                drops += 1

            # -- phase 3: the service heals ------------------------------
            deadline = time.monotonic() + 10.0
            final_health = client.health().get("status", "?")
            while final_health != "ok" and time.monotonic() < deadline:
                time.sleep(0.2)
                final_health = client.health().get("status", "?")
            after = client.metrics()

    def delta(name: str) -> float:
        return metric_total(after, name) - metric_total(before, name)

    return {
        "protocol": {
            "crash_rate": crash_rate,
            "requests": requests,
            "concurrency": concurrency,
            "seed": seed,
            "jobs": jobs,
            "client_max_tries": max_tries,
        },
        "answered_ok": len(latencies),
        "unrecovered_5xx": len(unrecovered),
        "first_unrecovered": unrecovered[0] if unrecovered else None,
        "client_retries": client_retries[0],
        "shed": delta("serve.shed"),
        "shed_bound": (requests + len(burst)) * (max_tries - 1),
        "batched_requests": delta("serve.batched"),
        "batch_failovers": delta("serve.batch_failovers"),
        "p50_ms": round(percentile(latencies, 0.50), 1),
        "p99_ms": round(percentile(latencies, 0.99), 1),
        "p99_budget_ms": p99_budget_ms,
        "worker_crashes": delta("pool.worker_crashes"),
        "worker_respawns": delta("pool.worker_respawns"),
        "worker_reaps": delta("pool.worker_reaps"),
        "stream_drops": drops,
        "stream_disconnects": delta("serve.stream_disconnects"),
        "responses_503": delta("serve.responses{code=503}"),
        "final_health": final_health,
    }


def check_report(report: Dict[str, Any]) -> List[str]:
    """The resilience invariants; empty list = the drill passed."""
    failures = []
    if report["unrecovered_5xx"] != 0:
        failures.append(
            f"{report['unrecovered_5xx']} request(s) never recovered"
            f" (first: {report['first_unrecovered']})"
        )
    if report["worker_crashes"] < 1:
        failures.append(
            "chaos never fired: zero worker crashes observed"
            " — the drill proved nothing"
        )
    if report.get("batched_requests", 0) < 2:
        failures.append(
            "batching never engaged under chaos: the drill did not"
            " exercise the batch-leader failover path"
        )
    if report["worker_respawns"] < report["worker_crashes"]:
        failures.append(
            f"{report['worker_crashes']} crashes but only"
            f" {report['worker_respawns']} respawns: the pool leaked slots"
        )
    if report["shed"] > report["shed_bound"]:
        failures.append(
            f"shed {report['shed']} requests, above the client retry"
            f" budget {report['shed_bound']}"
        )
    if report["p99_ms"] > report["p99_budget_ms"]:
        failures.append(
            f"p99 {report['p99_ms']}ms above the"
            f" {report['p99_budget_ms']}ms recovery budget"
        )
    if report["final_health"] != "ok":
        failures.append(
            f"service never healed: final health {report['final_health']!r}"
        )
    return failures


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--crash-rate", type=float, default=0.2,
        help="worker_crash injection rate (default 0.2)",
    )
    parser.add_argument(
        "--requests", type=int, default=40,
        help="distinct requests in the crash storm (default 40)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=4,
        help="client threads (default 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="chaos schedule seed (default 7)"
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="server worker processes (default 2)",
    )
    parser.add_argument(
        "--p99-budget-ms", type=float, default=DEFAULT_P99_BUDGET_MS,
        help=f"p99 latency ceiling (default {DEFAULT_P99_BUDGET_MS:.0f})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the resilience invariants hold",
    )
    args = parser.parse_args(argv[1:])

    report = run_drill(
        crash_rate=args.crash_rate,
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        jobs=args.jobs,
        p99_budget_ms=args.p99_budget_ms,
    )
    print(json.dumps(report, indent=2))
    if not args.check:
        return 0
    failures = check_report(report)
    if failures:
        for failure in failures:
            print(f"chaos check FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"chaos check passed: {report['worker_crashes']:.0f} crashes"
        f" absorbed, zero unrecovered 5xx, p99 {report['p99_ms']}ms,"
        f" health {report['final_health']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
