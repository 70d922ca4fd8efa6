"""serve-mix: ``repro serve`` at default settings, driven over loopback.

Each round boots a server with an empty result store through
``repro.serve.loadtest.start_server`` (boot until ``/healthz`` answers is
a ``setup_s`` sample).  One client process drives it over 2 keep-alive
connections in a closed loop: each step sends one request per
connection at the same moment and waits for both replies.  Request
bodies are generated from the seed and encoded before they are sent;
networks are inline ``.net`` text.  Every block of six steps holds, in
seeded order:

* 2 ``batch`` steps: cold ``dse`` requests on one network with different
  dims (the batcher can fuse them);
* 1 ``coalesce`` step: two identical cold ``dse`` requests (coalescer);
* 1 ``single`` step: cold ``dse_per_layer`` requests on two networks
  (the unbatched singleton path);
* 2 ``repeat`` steps: bodies already answered in this round (memory
  tier and hot-response replay).

A reply fails unless it is 200, its result equals the first reply for
the same body, and every reply served from the store is byte-equal to
the first such reply; a repeat must come from the store, and a per-layer
plan must satisfy ``total_cycles <= best_fixed_cycles``.  A seeded
sample of replies must equal ``execute_request`` run in-process.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import random
import shutil
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import common
from common import describe, median

ROUNDS = 5
TRACED_ROUNDS = 4  # alternating untraced and traced
STEP_BLOCK = ("batch", "batch", "coalesce", "single", "repeat", "repeat")
DSE_DIMS = tuple(range(4, 132, 2))
PLAN_DIMS = (8, 16, 32)
SAMPLED = 6


def _encode(body: Dict[str, Any]) -> bytes:
    return json.dumps(body).encode("utf-8")


def synth_networks(seed: int) -> Iterator[str]:
    """Seeded synthetic CNNs as ``.net`` text, with the generator
    settings pushed toward real CNNs (4-8 CONV layers, inputs up to 128,
    up to 512 maps, kernels up to 11)."""
    from repro.nn.netdesc import to_description
    from repro.nn.synth import SynthSpec, random_network

    spec = SynthSpec(min_conv_layers=4, max_conv_layers=8, min_input_size=32,
                     max_input_size=128, max_maps=512, max_kernel=11)
    for index in itertools.count():
        yield to_description(random_network(
            seed * 1_000_003 + index, spec, name=f"synth-{seed}-{index}"))


def steps(seed: int) -> Iterator[Tuple[str, Any]]:
    """The seeded step list: ``(step kind, requests or repeat picks)``."""
    rng = random.Random(seed)
    networks = synth_networks(seed)
    while True:
        block = list(STEP_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "repeat":
                yield kind, (rng.random(), rng.random())
            elif kind == "single":
                yield kind, tuple(
                    ("dse_per_layer", _encode(
                        {"network": next(networks),
                         "dim": rng.choice(PLAN_DIMS)}))
                    for _ in range(2))
            else:
                network = next(networks)
                dims = rng.sample(DSE_DIMS, 8)
                first = ("dse", _encode({"network": network,
                                         "dims": sorted(dims[:4])}))
                second = first if kind == "coalesce" else (
                    "dse", _encode({"network": network,
                                    "dims": sorted(dims[4:])}))
                yield kind, (first, second)


class Connection(threading.Thread):
    """One keep-alive connection; sends what arrives in its inbox."""

    def __init__(self, host: str, port: int) -> None:
        from repro.serve.loadtest import ServeClient

        super().__init__(daemon=True)
        self.client = ServeClient(host, port)
        self.inbox: "queue.Queue" = queue.Queue()
        self.outbox: "queue.Queue" = queue.Queue()

    def run(self) -> None:
        from repro.errors import ExperimentError

        try:
            while True:
                item = self.inbox.get()
                if item is None:
                    return
                started = time.perf_counter()
                try:
                    raw, error = self.client.compute_raw(*item), None
                except (ExperimentError, OSError,
                        http.client.HTTPException) as exc:
                    raw, error = None, str(exc)
                self.outbox.put(
                    (raw, error, (time.perf_counter() - started) * 1e3))
        finally:
            self.client.close()


class Checker:
    """Per-body reply checks across one round."""

    def __init__(self) -> None:
        self.first: Dict[Tuple[str, bytes], str] = {}
        self.first_stored: Dict[Tuple[str, bytes], bytes] = {}
        self.errors: List[str] = []

    def check(self, item: Tuple[str, bytes], raw, error, repeat: bool) -> bool:
        if raw is None:
            self.errors.append(error)
            return False
        reply = json.loads(raw)
        plan = reply["result"]
        if item[0] == "dse_per_layer" and (
                plan["total_cycles"] > plan["best_fixed"]["cycles"]):
            self.errors.append("per-layer plan lost to a fixed dataflow")
            return False
        result = json.dumps(plan, sort_keys=True)
        if self.first.setdefault(item, result) != result:
            self.errors.append(f"result changed for {item[0]}")
            return False
        if reply["source"] == "cache":
            if self.first_stored.setdefault(item, raw) != raw:
                self.errors.append(f"stored reply bytes changed for {item[0]}")
                return False
        elif repeat:
            self.errors.append(f"repeat served from {reply['source']}")
            return False
        return True


def boot(store: Path, spans: Path = None):
    """Start ``repro serve`` on ``store``; return (proc, client, setup_s).

    With ``spans``, the server loads ``hook/sitecustomize.py`` and writes
    its span summary there at exit."""
    from repro.serve.loadtest import start_server

    env = common.child_env(store, REPRO_CACHE="on")
    if spans is not None:
        env["PYTHONPATH"] = f"{common.HERE / 'hook'}{os.pathsep}{common.SRC}"
        env["PERFBENCH_SPANS"] = str(spans)
    started = time.perf_counter()
    proc, client = start_server(env=env)
    return proc, client, time.perf_counter() - started


def stop(proc, client) -> None:
    """Graceful drain (a traced server writes its spans), then wait."""
    client.close()
    proc.terminate()
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def serve_round(plan: Iterator, seconds: float, store: Path,
            spans: Path = None) -> Dict[str, Any]:
    """Boot a server, drive the closed loop for ``seconds``, stop it."""
    from repro.serve.loadtest import metric_total

    proc, client, setup = boot(store, spans)
    connections = [Connection(client.host, client.port) for _ in range(2)]
    for connection in connections:
        connection.start()
    checker = Checker()
    history: List[Tuple[str, bytes]] = []
    cold: List[float] = []
    warm: List[float] = []
    calib: List[float] = []
    failed = requests = 0
    calib_s = 0.0
    try:
        before = client.metrics()
        started = time.perf_counter()
        next_calib = started
        while time.perf_counter() - started < seconds:
            kind, payload = next(plan)
            repeat = kind == "repeat"
            if repeat:
                if len(history) < 2:
                    continue
                pair = [history[int(u * len(history))] for u in payload]
            else:
                pair = list(payload)
            for connection, item in zip(connections, pair):
                connection.inbox.put(item)
            replies = [connection.outbox.get(timeout=120)
                       for connection in connections]
            for item, (raw, error, ms) in zip(pair, replies):
                requests += 1
                (warm if repeat else cold).append(ms)
                if not checker.check(item, raw, error, repeat):
                    failed += 1
                elif not repeat and item not in history:
                    history.append(item)
            if time.perf_counter() >= next_calib:
                probe = time.perf_counter()
                calib.append(common.host_calib_ms())
                calib_s += time.perf_counter() - probe
                next_calib = time.perf_counter() + 0.5
        busy_s = time.perf_counter() - started - calib_s
        after = client.metrics()
        rss = common.vm_hwm_mb(proc.pid)
    finally:
        for connection in connections:
            connection.inbox.put(None)
        for connection in connections:
            connection.join(timeout=30)
        stop(proc, client)

    def delta(name: str) -> float:
        return metric_total(after, name) - metric_total(before, name)

    served = delta("serve.requests")
    return {
        "setup": setup, "cold": cold, "warm": warm, "calib": calib,
        "busy_s": busy_s, "rss": rss, "requests": requests,
        "failed": failed, "errors": checker.errors, "first": checker.first,
        "counters": {name: delta(name) for name in
                     ("serve.backend_computations", "serve.batched",
                      "serve.coalesced", "serve.hot_path", "cache.lookups",
                      "cache.memo_hits")},
        "served": served,
        "trace": json.loads(spans.read_text()) if spans is not None else None,
    }


def sample_check(rounds: List[Dict[str, Any]], seed: int, count: int):
    """Recompute sampled cold bodies in-process; return (mismatches, ms)."""
    os.environ.update(REPRO_CACHE="off", REPRO_CHAOS="off",
                      REPRO_CACHE_DIR=str(common.KERNEL_STORE))
    from repro.serve.compute import execute_request
    from repro.serve.schemas import parse_request

    bodies = sorted({item: result for s in rounds
                     for item, result in s["first"].items()}.items())
    rng = random.Random(seed)
    chosen = rng.sample(bodies, min(count, len(bodies)))
    mismatches, timings = 0, []
    for position, ((kind, body), served) in enumerate(chosen):
        request = parse_request(kind, json.loads(body))
        if position == 0:  # untimed warm-up: imports and kernel load
            execute_request(request.kind, request.spec)
        started = time.perf_counter()
        result = execute_request(request.kind, request.spec)
        timings.append((time.perf_counter() - started) * 1e3)
        mismatches += json.dumps(result, sort_keys=True) != served
    return mismatches, timings


def run(*, seconds: float, seed: int, trace: bool, quick: bool,
        run_dir: Path) -> common.Outcome:
    plan = steps(seed)
    count = (2 if trace else 1) if quick else (
        TRACED_ROUNDS if trace else ROUNDS)
    share = 1.5 if quick else seconds / count
    spans_dir = common.WORK / "trace" / "serve-mix"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    results = []
    setup: List[float] = []
    for index in range(count):
        traced = trace and index % 2 == 1
        results.append(serve_round(
            plan, share, common.fresh_store(run_dir / "store"),
            spans_dir / f"round-{index}.json" if traced else None))
        if not traced:
            setup.append(results[-1]["setup"])
            if not trace:  # one more boot: more setup_s samples per run
                proc, client, boot_s = boot(
                    common.fresh_store(run_dir / "store"))
                stop(proc, client)
                setup.append(boot_s)
    mismatches, inproc = sample_check(results, seed, 2 if quick else SAMPLED)

    plain = [s for s in results if s["trace"] is None]
    traced = [s for s in results if s["trace"] is not None]
    attempted = sum(s["requests"] for s in results)
    failed = sum(s["failed"] for s in results) + mismatches
    cold = [ms for s in plain for ms in s["cold"]]
    warm = [ms for s in plain for ms in s["warm"]]
    calib = [ms for s in results for ms in s["calib"]]
    detail = [f"serve-mix: {count} server rounds, {attempted} requests over"
              f" 2 connections, host.calib_ms p50={median(calib):.3f}",
              describe("setup_s", setup, "s"),
              describe("cold_ms", cold, "ms"),
              describe("warm_ms", warm, "ms"),
              describe("in-process execute_request ms (sampled bodies)",
                       inproc, "ms")]

    def total(counter: str) -> float:
        return sum(s["counters"][counter] for s in results)

    served = sum(s["served"] for s in results)
    share_values = {
        name: total(counter) / served for name, counter in (
            ("serve.dispatches_per_request", "serve.backend_computations"),
            ("serve.batched_share", "serve.batched"),
            ("serve.coalesced_share", "serve.coalesced"),
            ("serve.hot_share", "serve.hot_path"),
        )
    }
    detail.append("  server counters per request: " + ", ".join(
        f"{name}={value:.3f}" for name, value in share_values.items()))
    for s in results:
        detail += [f"  error: {e}" for e in s["errors"][:3]]
    if not trace:
        return common.Outcome(failed == 0, attempted, failed, {
            "setup_s": median(setup),
            "cold_p50_ms": median(cold),
            "warm_p50_ms": median(warm),
            "throughput_per_s": sum(s["requests"] for s in plain)
            / sum(s["busy_s"] for s in plain),
            "peak_rss_mb": median([s["rss"] for s in plain]),
        }, detail)

    summaries = [s["trace"] for s in traced]
    requests = sum(s["requests"] for s in traced)
    client_ms = sum(sum(s["cold"]) + sum(s["warm"]) for s in traced)
    covered = sum(sum(t["toplevel_ms"].values()) for t in summaries)
    traced_cold = [ms for s in traced for ms in s["cold"]]
    layers = common.merge_layers(summaries)
    values = common.layer_metrics(layers, requests, {
        **share_values,
        "cache.mem_hit_ratio": total("cache.memo_hits")
        / max(total("cache.lookups"), 1.0),
        "trace.overhead": median(traced_cold) / median(cold),
        "trace.unattributed_share": (client_ms - covered) / client_ms,
        "host.calib_ms": median(calib),
    })
    pool = layers.get("serve.pool", [0, 0.0, 0.0])
    detail += [
        describe("traced cold_ms", traced_cold, "ms"),
        f"largest unattributed gap: {(client_ms - covered) / requests:.2f} ms"
        " per request is client-measured latency outside every"
        " ServeApp.serve_request span (HTTP parsing and writing, the event"
        " loop, the hot-response path, loopback)",
        f"served cold p50 {median(cold):.2f} ms against in-process"
        f" execute_request p50 {median(inproc):.2f} ms: serve.pool self time"
        f" is {pool[1] / max(pool[0], 1):.2f} ms per pool dispatch (worker"
        " IPC plus compute; the workers carry no wrappers)",
        "per-layer values are per request",
    ]
    return common.Outcome(failed == 0, attempted, failed, values, detail)
