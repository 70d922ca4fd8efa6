"""DSE-as-a-service: an asyncio HTTP front-end over the toolkit.

``repro serve`` exposes the mapper, the accelerator simulators, and the
array-scale DSE sweep behind a small stdlib-only HTTP API (see
``docs/SERVING.md``).  The moving parts:

* :mod:`repro.serve.schemas` — JSON request validation and the
  content-addressed request keys (the same SHA-256 scheme as
  :mod:`repro.cache.keys`, so a served request and a CLI run share
  cache entries);
* :mod:`repro.serve.compute` — the pure execution functions worker
  processes run;
* :mod:`repro.serve.coalescer` — dedup of identical in-flight requests
  onto a single backend computation;
* :mod:`repro.serve.pool` — the supervised ``spawn`` worker pool (also
  the resilient experiment runner's executor) under
  :class:`~repro.experiments.runner.RunPolicy` (timeout / retries /
  non-blocking backoff);
* :mod:`repro.serve.app` — the asyncio HTTP server: ``/v1/map``,
  ``/v1/simulate``, ``/v1/dse``, ``/v1/sweep``, ``/metrics``,
  ``/healthz``, and SSE progress streaming;
* :mod:`repro.serve.loadtest` — the client and load-test harness behind
  ``benchmarks/bench_serve.py`` and the committed ``serve`` numbers.
"""

from repro.serve.app import ServeApp
from repro.serve.coalescer import Coalescer
from repro.serve.pool import WorkerPool
from repro.serve.schemas import ComputeRequest, parse_request

__all__ = [
    "Coalescer",
    "ComputeRequest",
    "ServeApp",
    "WorkerPool",
    "parse_request",
]
