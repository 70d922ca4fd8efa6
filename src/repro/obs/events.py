"""Span and event records as plain dicts, for streaming progress.

The span :class:`~repro.obs.tracer.Tracer` collects a tree and is read
*after* a run finishes — right for profiling, wrong for a server that
must stream progress while a request is still computing.  The serve
layer therefore reports progress as flat, JSON-serializable records:

* :func:`event_record` is one instant event; the worker pool and the
  app emit these (attempts, retries, cache hits) onto a request's SSE
  stream as they happen.
* :func:`span_record` is one closed span.
* :func:`condense_spans` flattens a finished tracer into bounded span
  records — what a worker process ships back with its result so remote
  computations still report where their time went.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.tracer import Span, Tracer


def event_record(
    name: str,
    category: str = "",
    labels: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """One instant event as a flat, JSON-serializable progress record."""
    return {
        "type": "event",
        "name": name,
        "category": category,
        "labels": dict(labels or {}),
    }


def span_record(span: Span) -> Dict[str, Any]:
    """One closed span as a flat, JSON-serializable progress record."""
    return {
        "type": "span",
        "name": span.name,
        "category": span.category,
        "cycles": span.cycles,
        "duration_ms": round(span.duration_wall * 1e3, 3),
        "counters": dict(sorted(span.counters.items())),
        "labels": dict(span.labels),
    }


def condense_spans(tracer: Tracer, limit: int = 64) -> List[Dict[str, Any]]:
    """Depth-first span summaries of a finished tracer, size-bounded.

    Worker processes return this with their result so the coordinator can
    stream a post-hoc trace for computations it did not run in-process.
    A final marker record reports how many spans the bound dropped.
    """
    records: List[Dict[str, Any]] = []
    dropped = 0
    for span in tracer.iter_spans():
        if len(records) < limit:
            records.append(span_record(span))
        else:
            dropped += 1
    if dropped:
        records.append(
            {"type": "event", "name": "spans-truncated",
             "category": "obs", "labels": {"dropped": str(dropped)}}
        )
    return records
