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
* :mod:`repro.serve.batcher` — cross-request batching: compatible cold
  requests inside a window fuse into one pool dispatch (off by
  default);
* :mod:`repro.serve.resilience` — admission control, per-kind circuit
  breakers and drain state, with their limits as module constants;
* :mod:`repro.serve.pool` — the supervised ``spawn`` worker pool under
  :class:`~repro.experiments.records.RunPolicy` (timeout / retries /
  non-blocking backoff);
* :mod:`repro.serve.worker` — the worker side of the pool: the loop a
  spawn worker runs, without asyncio;
* :mod:`repro.serve.app` — the asyncio HTTP server: ``/v1/map``,
  ``/v1/simulate``, ``/v1/dse``, ``/v1/dse_per_layer``, ``/v1/sweep``,
  ``/metrics``, ``/healthz``, ``/drain``, and SSE progress streaming;
* :mod:`repro.serve.loadtest` — the blocking client, the subprocess
  boot helper and the metric readouts that tests, CI, perfbench and
  the protocols in ``benchmarks/bench_serve.py`` use.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".coalescer": ("Coalescer",),
        ".schemas": ("ComputeRequest", "parse_request"),
        ".app": ("ServeApp",),
        ".pool": ("WorkerPool",),
    },
)
