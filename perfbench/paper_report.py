"""paper-report: ``generate_report()`` over all 26 experiments, store on.

Each op runs in a fresh interpreter (``worker.py``; its start-up is a
``setup_s`` sample): one cold report plus ``drain()`` into an empty
result store, then ``WARM_READS`` warm reports read back through a fresh
store handle with an empty memory tier and no mapping memo, as a re-run
of ``repro report`` would.  Every report text must hash to the pinned
digest.  The op list is the same for every seed.

Traced runs alternate untraced and traced interpreters; the traced ones
wrap every layer and must produce the same report digest.
"""

from __future__ import annotations

import json
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import common
from common import BenchError, describe, median

#: SHA-256 of the report text; identical cold, warm and across processes.
REPORT_SHA256 = "80a691b1660efc233b54a3790f22ab5608707a84b5d8126899c5b752ebf551ab"
WARM_READS = 20


class Child:
    """A fresh ``worker.py`` interpreter.

    ``setup_s`` is the time from launch until the child reports ready
    (imports done, kernels loaded).  :meth:`call` sends one JSON command
    and returns the child's one-line JSON reply.
    """

    def __init__(self, env: Dict[str, str]) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=common.ROOT,
        )
        try:
            line = self._readline(120.0)
            if line.strip() != "ready":
                raise BenchError(f"worker did not start: {line!r}")
        except BenchError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError("worker timed out")
        return self.proc.stdout.readline()

    def call(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = self._readline(150.0)
        if not line:
            raise BenchError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def run(*, seconds: float, seed: int, trace: bool, quick: bool,
        run_dir: Path) -> common.Outcome:
    del seed  # the report is fixed; nothing to generate
    spans_dir = common.WORK / "trace" / "paper-report"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    minimum = (2 if trace else 1) if quick else (4 if trace else 3)
    warm_reads = 2 if quick else WARM_READS
    deadline = time.perf_counter() + seconds

    setup: List[float] = []
    cold: List[float] = []
    warm: List[float] = []
    rss: List[float] = []
    calib: List[float] = []
    traced_cold: List[float] = []
    traced: List[Dict[str, Any]] = []
    attempted = failed = 0
    index = 0
    while index < minimum or time.perf_counter() < deadline:
        with_trace = trace and index % 2 == 1
        calib.append(common.host_calib_ms())
        extra = {"REPRO_CACHE": "on"}
        if with_trace:
            extra.update(PERFBENCH_TRACE="1",
                         PERFBENCH_SPANS=str(spans_dir / f"child-{index}.jsonl"))
        store = common.fresh_store(run_dir / f"store-{index}")
        child = Child(common.child_env(store, **extra))
        try:
            reply = child.call({"warm": warm_reads})
        finally:
            child.close()
        index += 1
        digests = reply["digests"]
        attempted += len(digests)
        failed += sum(digest != REPORT_SHA256 for digest in digests)
        if with_trace:
            traced_cold.append(reply["cold_ms"])
            traced.append(reply)
            continue
        setup.append(child.setup_s)
        cold.append(reply["cold_ms"])
        warm += reply["warm_ms"]
        rss.append(reply["rss_mb"])

    detail = [f"paper-report: {index} fresh interpreters, {attempted} reports,"
              f" host.calib_ms p50={median(calib):.3f}",
              describe("setup_s", setup, "s"),
              describe("cold_ms", cold, "ms"),
              describe("warm_ms", warm, "ms")]
    if not trace:
        busy_s = (sum(cold) + sum(warm)) / 1e3
        return common.Outcome(failed == 0, attempted, failed, {
            "setup_s": median(setup),
            "cold_p50_ms": median(cold),
            "warm_p50_ms": median(warm),
            "throughput_per_s": (len(cold) + len(warm)) / busy_s,
            "peak_rss_mb": median(rss),
        }, detail)

    summaries = [reply["trace"] for reply in traced]
    op_ms = sum(reply["op_ms"] for reply in traced)
    covered = sum(reply["toplevel_ms"] for reply in traced)
    gap = median([reply["cold_ms"] - reply["cold_toplevel_ms"]
                  for reply in traced])
    cnn: Dict[str, float] = {}
    for summary in summaries:
        for key, ms in summary["cnn"].items():
            cnn[key] = cnn.get(key, 0.0) + ms
    values = common.layer_metrics(common.merge_layers(summaries), len(traced), {
        "mapper.memo_hit_ratio": median([r["memo_hit_ratio"] for r in traced]),
        "cache.mem_hit_ratio": median([r["mem_hit_ratio"] for r in traced]),
        "trace.overhead": median(traced_cold) / median(cold),
        "trace.unattributed_share": (op_ms - covered) / op_ms,
        "host.calib_ms": median(calib),
    })
    detail += [
        describe("traced cold_ms", traced_cold, "ms"),
        f"largest unattributed gap: {gap:.1f} ms of each cold report falls"
        " inside generate_report() plus drain() but outside every"
        " run_experiment() and drain() span",
        "per-layer values are per op = one interpreter's cold report plus"
        f" its {warm_reads} warm re-reads",
        *common.cnn_table(cnn, len(traced)),
    ]
    return common.Outcome(failed == 0, attempted, failed, values, detail)
