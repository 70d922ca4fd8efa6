"""Child interpreter for the paper-report workload.

Usage: ``python perfbench/worker.py`` with ``PYTHONPATH`` naming the
program source and ``REPRO_CACHE_DIR`` an empty result store.  The child
imports the report and every experiment, loads the compiled kernels,
prints ``ready``, then answers one JSON command per stdin line with one
JSON line.  With ``PERFBENCH_TRACE=1`` it wraps every layer (see
``tracing.py``) before reporting ready, adds the span summary to each
reply and, with ``PERFBENCH_SPANS``, writes the spans to that file.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ms(started: float) -> float:
    return (time.perf_counter() - started) * 1e3


def report_command(cmd, log):
    """One cold report into the empty store, then ``warm`` re-reads."""
    from repro.cache import store
    from repro.dataflow import mapper
    from repro.experiments import report
    from repro.obs.metrics import REGISTRY

    if log is not None:
        log.op = 0
    started = time.perf_counter()
    text = report.generate_report()
    store.active_cache().drain()
    cold = _ms(started)
    memo = common.memo_ratio(mapper.mapping_cache_info())
    digests = [_sha(text)]
    warm = []
    for op in range(1, cmd["warm"] + 1):
        # A re-run of `repro report`: fresh store handle (empty memory
        # tier) and no mapping memo.
        store.reset_cache_handles()
        mapper.clear_mapping_cache()
        if log is not None:
            log.op = op
        started = time.perf_counter()
        text = report.generate_report()
        warm.append(_ms(started))
        digests.append(_sha(text))
    reply = {"cold_ms": cold, "warm_ms": warm, "digests": digests}
    if log is not None:
        summary = tracing.summarize(log)
        reply.update(
            trace=summary, op_ms=cold + sum(warm),
            toplevel_ms=sum(summary["toplevel_ms"].values()),
            cold_toplevel_ms=summary["toplevel_ms"].get("0", 0.0),
            mem_hit_ratio=common.mem_hit_ratio(REGISTRY.snapshot()),
            memo_hit_ratio=memo,
        )
    return reply


def main() -> int:
    import repro.experiments.report  # noqa: F401  (imports every experiment)
    import repro.kernels

    repro.kernels.active_kernels()
    log = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        log = tracing.SpanLog()
        tracing.install(log)
    print("ready", flush=True)
    for line in sys.stdin:
        reply = report_command(json.loads(line), log)
        reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if log is not None and os.environ.get("PERFBENCH_SPANS"):
            tracing.dump(log, os.environ["PERFBENCH_SPANS"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
