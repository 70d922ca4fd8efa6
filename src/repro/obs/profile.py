"""Workload tracing and experiment profiling (the ``repro trace`` /
``repro profile`` engine room).

:func:`trace_workload` runs every CONV layer of a workload through the
FlexFlow functional simulator under an enabled tracer and reduces the
span forest to a per-layer, per-phase breakdown table —
load/compute/drain cycles, buffer traffic, PE occupancy.  The breakdown
is built *only* from parity fields (names, cycles, counters), so the
table does not depend on which simulator path ran a layer: the tile
engine and the per-PE loop print byte-identical tables, which is the
CLI face of the tracer-as-correctness-oracle property.  Each ``conv:``
span's ``engine`` label names the path.

:func:`profile_experiment` runs one registered experiment with a tracer
and a fresh metrics registry installed, capturing mapper search spans
and cache statistics alongside wall time.

This module imports the simulators, so :mod:`repro.obs` deliberately
does not import it at package level (the simulators import
``repro.obs.tracer``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.arch.config import ArchConfig
from repro.dataflow.mapper import map_network
from repro.errors import SpecificationError
from repro.nn.network import Network
from repro.nn.reference import make_inputs, make_kernels
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import Span, Tracer, tracing
from repro.sim.flexflow_sim import FlexFlowFunctionalSim


@dataclass
class WorkloadTrace:
    """Outcome of tracing one workload: the span forest + breakdown rows."""

    network_name: str
    array_dim: int
    tracer: Tracer
    rows: List[Dict[str, Any]]


def trace_workload(
    network: Network,
    *,
    array_dim: int = 16,
    tracer: Optional[Tracer] = None,
) -> WorkloadTrace:
    """Simulate every CONV layer under a tracer; build the breakdown.

    The network mapping is computed *before* the first span opens, so
    the span forest contains only simulator spans — mapper spans depend
    on the process-wide mapping cache (a hit skips the search), which
    would break run-to-run parity.
    """
    if not network.conv_layers:
        raise SpecificationError(
            f"network {network.name!r} has no CONV layers to trace"
        )
    mapping = map_network(network, array_dim).by_layer_name()
    config = ArchConfig().scaled_to(array_dim)
    active = tracer if tracer is not None else Tracer(enabled=True)
    for layer in network.conv_layers:
        sim = FlexFlowFunctionalSim(
            config,
            factors=mapping[layer.name].factors,
            tracer=active,
        )
        sim.run_layer(layer, make_inputs(layer), make_kernels(layer))
    return WorkloadTrace(
        network_name=network.name,
        array_dim=array_dim,
        tracer=active,
        rows=breakdown_rows(active, array_dim),
    )


def _phase_cycles(layer_span: Span) -> Dict[str, int]:
    phases = {"load": 0, "compute": 0, "drain": 0}
    for child in layer_span.children:
        if child.name.startswith("phase:"):
            phases[child.name.split(":", 1)[1]] = child.cycles
    return phases


def breakdown_rows(
    tracer: Tracer, array_dim: int
) -> List[Dict[str, Any]]:
    """Per-layer, per-phase rows from a simulator span forest.

    Reads only parity fields; one row per ``conv:*`` root span, in
    recording order.
    """
    rows: List[Dict[str, Any]] = []
    for root in tracer.roots:
        if not root.name.startswith("conv:"):
            continue
        phases = _phase_cycles(root)
        counters = root.counters
        compute = phases["compute"] or root.cycles
        pes = array_dim * array_dim
        occupancy = (
            counters.get("mac_ops", 0) / (compute * pes) if compute else 0.0
        )
        rows.append(
            {
                "layer": root.name.split(":", 1)[1],
                "load": phases["load"],
                "compute": phases["compute"],
                "drain": phases["drain"],
                "bus_words": counters.get("bus_transfers", 0),
                "nbuf_rd": counters.get("neuron_buffer_reads", 0),
                "nbuf_wr": counters.get("neuron_buffer_writes", 0),
                "kbuf_rd": counters.get("kernel_buffer_reads", 0),
                "ls_rd": counters.get("local_store_reads", 0),
                "ls_wr": counters.get("local_store_writes", 0),
                "occupancy": occupancy,
            }
        )
    return rows


def format_breakdown(trace: WorkloadTrace) -> str:
    """The ``repro trace`` table: aligned text, path-independent."""
    columns = [
        "layer", "load", "compute", "drain", "bus_words",
        "nbuf_rd", "nbuf_wr", "kbuf_rd", "ls_rd", "ls_wr", "occupancy",
    ]

    def fmt(row: Dict[str, Any], col: str) -> str:
        value = row[col]
        if col == "occupancy":
            return f"{value:.3f}"
        return str(value)

    cells = [[fmt(row, col) for col in columns] for row in trace.rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = [
        f"{trace.network_name} on a {trace.array_dim}x{trace.array_dim}"
        " array:",
        "  ".join(col.rjust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    lines.extend(
        "  ".join(row[i].rjust(widths[i]) for i in range(len(columns)))
        for row in cells
    )
    totals = _totals(trace.rows)
    lines.append(
        f"total: {totals['cycles']} pipeline cycles"
        f" ({totals['load']} load, {totals['compute']} compute,"
        f" {totals['drain']} drain),"
        f" mean occupancy {totals['occupancy']:.3f}"
    )
    return "\n".join(lines)


def _totals(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    load = sum(row["load"] for row in rows)
    compute = sum(row["compute"] for row in rows)
    drain = sum(row["drain"] for row in rows)
    occ = (
        sum(row["occupancy"] for row in rows) / len(rows) if rows else 0.0
    )
    return {
        "load": load,
        "compute": compute,
        "drain": drain,
        "cycles": load + compute + drain,
        "occupancy": occ,
    }


# -- experiment profiling -----------------------------------------------------


def profile_experiment(
    experiment_id: str, *, tracer: Optional[Tracer] = None
) -> Tuple[Any, Tracer]:
    """Run one experiment with tracing installed; returns (result, tracer).

    The process-wide metrics registry is reset first, so the snapshot
    afterwards describes this run alone (mapper cache hits/misses,
    candidate counts).  Mapper spans nest under the ``profile:`` root.
    """
    from repro.experiments import run_experiment

    REGISTRY.reset()
    active = tracer if tracer is not None else Tracer(enabled=True)
    with tracing(active):
        with active.span(
            f"profile:{experiment_id}", category="experiment"
        ):
            result = run_experiment(experiment_id)
    return result, active


def format_profile(
    experiment_id: str, tracer: Tracer, *, max_spans: int = 12
) -> str:
    """The ``repro profile`` report: hot spans + metrics snapshot."""
    lines = [f"profile of experiment {experiment_id!r}:"]
    spans = sorted(
        tracer.iter_spans(), key=lambda s: s.duration_wall, reverse=True
    )
    total = sum(root.duration_wall for root in tracer.roots)
    lines.append(f"wall time: {total * 1e3:.1f} ms across {len(spans)} span(s)")
    lines.append("hottest spans (wall ms, category, name):")
    for span in spans[:max_spans]:
        lines.append(
            f"  {span.duration_wall * 1e3:9.2f}  {span.category:<12}"
            f" {span.name}"
        )
    snapshot = REGISTRY.snapshot()
    if snapshot:
        lines.append("metrics:")
        for name, value in snapshot.items():
            if isinstance(value, dict):
                value = (
                    f"count={value['count']:g} mean={value['mean']:.1f}"
                    f" min={value['min']:g} max={value['max']:g}"
                )
            lines.append(f"  {name} = {value}")
    lines.append(_mapping_cache_line())
    return "\n".join(lines)


def _mapping_cache_line() -> str:
    """One-line in-process mapping cache summary for ``repro profile``:
    the two mapping memos and the network-result memo on top of them."""
    from repro.dataflow.mapper import mapping_cache_info

    info = mapping_cache_info()
    parts = []
    for name in ("map_layer", "map_network", "simulate_network"):
        memo = info[name]
        parts.append(
            f"{name} {memo.hits}/{memo.hits + memo.misses} hits"
            f" ({memo.currsize}/{memo.maxsize} entries)"
        )
    return "mapping cache: " + ", ".join(parts)
