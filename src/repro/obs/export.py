"""Exporters: Chrome/Perfetto trace files.

The span tracer's output becomes a ``trace.json`` in the Chrome trace
event format (the JSON array-of-events flavour wrapped in an object with
``traceEvents``), which https://ui.perfetto.dev and ``chrome://tracing``
open directly.  Every span maps to one complete (``"ph": "X"``) event
whose ``args`` carry the simulated cycles and counter deltas; tracer
events map to instant (``"ph": "i"``) events.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.obs.tracer import Span, Tracer

#: Trace-file schema version (recorded in ``otherData``).
TRACE_SCHEMA_VERSION = 1


def _to_us(seconds: float, origin: float) -> float:
    return round((seconds - origin) * 1e6, 3)


def _span_events(
    span: Span, origin: float, pid: int, tid: int
) -> List[Dict[str, Any]]:
    args: Dict[str, Any] = {"cycles": span.cycles}
    args.update(span.counters)
    args.update(span.labels)
    events: List[Dict[str, Any]] = [
        {
            "name": span.name,
            "cat": span.category or "default",
            "ph": "X",
            "ts": _to_us(span.start_wall, origin),
            "dur": max(_to_us(span.end_wall, origin) - _to_us(span.start_wall, origin), 0.0),
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    ]
    for event in span.events:
        events.append(
            {
                "name": event["name"],
                "cat": event["category"] or "default",
                "ph": "i",
                "ts": _to_us(event["wall"], origin),
                "pid": pid,
                "tid": tid,
                "s": "t",
                "args": dict(event["labels"]),
            }
        )
    for child in span.children:
        events.extend(_span_events(child, origin, pid, tid))
    return events


def to_chrome_trace(
    tracer: Tracer, *, process_name: str = "repro"
) -> Dict[str, Any]:
    """The tracer's forest as a Chrome trace event document (a dict)."""
    roots = tracer.roots
    origin = min((s.start_wall for s in roots), default=0.0)
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid, root in enumerate(roots):
        events.extend(_span_events(root, origin, pid=0, tid=tid))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "schema": TRACE_SCHEMA_VERSION,
        },
    }


def write_chrome_trace(
    tracer: Tracer, path: str, *, process_name: str = "repro"
) -> None:
    """Serialize :func:`to_chrome_trace` to ``path`` as JSON."""
    document = to_chrome_trace(tracer, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def parity_report(tracer: Tracer) -> List[Dict[str, Any]]:
    """Deterministic span forest: the engine-parity comparison object."""
    return [root.parity_tree() for root in tracer.roots]


def validate_chrome_trace(document: Any) -> List[str]:
    """Structural checks against the Chrome trace event format.

    Returns a list of problems (empty = valid).  Used by the schema test
    that guards the acceptance criterion "loads in Perfetto".
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document must be a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, Sequence) or isinstance(events, (str, bytes)):
        return ["traceEvents must be an array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        phase = event.get("ph")
        if phase == "X":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: complete event needs numeric ts")
            if not isinstance(event.get("dur"), (int, float)):
                problems.append(f"{where}: complete event needs numeric dur")
            elif event["dur"] < 0:
                problems.append(f"{where}: negative dur")
        elif phase == "i":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: instant event needs numeric ts")
        elif phase != "M":
            problems.append(f"{where}: unexpected phase {phase!r}")
    return problems
