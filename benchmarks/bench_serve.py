"""Boot a fresh serve instance, run the load-test protocol, print JSON.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py [--check]

The server subprocess gets its own temporary cache directory, so every
run starts cold.  ``--check`` turns the run into the CI smoke gate: it
exits non-zero unless

* the dedup phase proves coalescing — N identical concurrent cold
  requests cost exactly ONE backend computation, dedup hit-rate > 0
  (read from the service's own ``/metrics`` counters);
* the warm phase was served entirely from the cache;
* the service answered zero 5xx responses.

The warm/cold throughput *ratio* is recorded here but guarded by
``capture_baseline.py --check`` against the committed baseline, where
machine-independent ratio comparison lives.

``--fastpath`` runs the serving-fast-path protocol instead
(:func:`repro.serve.loadtest.run_fastpath_test`: fused dispatch floor,
memory-tier warm latency, batched vs unbatched cold throughput — each
phase boots its own servers).  With ``--check`` it exits non-zero unless

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
import json
import os
import sys
import tempfile

from repro.serve.loadtest import run_fastpath_test, run_load_test, start_server

#: ``--fastpath --check`` floors; ``capture_baseline.py --check`` guards
#: the same numbers against the committed baseline.
FASTPATH_MAX_WARM_RATIO = 0.5
FASTPATH_MIN_COLD_SPEEDUP = 3.0


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

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        env = dict(os.environ)
        env.update(REPRO_CACHE="on", REPRO_CACHE_DIR=tmp)
        proc, client = start_server(jobs=args.jobs, env=env)
        try:
            report = run_load_test(
                client, fanout=args.fanout, warm_rounds=args.warm_rounds
            )
        finally:
            client.close()
            proc.terminate()
            proc.wait(timeout=30)

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
