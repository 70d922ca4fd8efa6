"""Observability: structured tracing, metrics, and trace exporters.

Three leaf modules (no simulator imports, so the simulators can import
them freely):

* :mod:`repro.obs.tracer` — nested spans with wall time, simulated
  cycles, and counter deltas; near-zero cost when disabled; parity
  trees for engine equivalence checks.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with label
  sets, recorded into a process-wide registry.
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace.json`` and flat
  JSON/CSV metric dumps.

Plus one orchestration module, imported lazily to avoid a cycle with
:mod:`repro.sim`:

* :mod:`repro.obs.profile` — runs workloads/experiments under a tracer
  and builds the per-layer, per-phase breakdown tables behind
  ``repro trace`` and ``repro profile``.

See ``docs/OBSERVABILITY.md`` for the user guide.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".tracer": (
            "Span",
            "Tracer",
            "NULL_SPAN",
            "NULL_TRACER",
            "counter_delta",
            "current_tracer",
            "tracing",
            "use_tracer",
        ),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "REGISTRY",
        ),
        ".export": (
            "TRACE_SCHEMA_VERSION",
            "metrics_to_csv",
            "metrics_to_json",
            "parity_report",
            "span_to_dict",
            "to_chrome_trace",
            "validate_chrome_trace",
            "write_chrome_trace",
        ),
    },
)
