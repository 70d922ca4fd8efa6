"""Shared experiment harness: runners, result records, table formatting.

Every experiment module exposes ``run(...) -> ExperimentResult``; the
result carries the regenerated rows (list of dicts) plus enough metadata
for EXPERIMENTS.md and the benchmark harness to print paper-style tables.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.accelerators import make_accelerator
from repro.accelerators.base import NetworkResult
from repro.arch.config import ArchConfig
from repro.errors import ConfigurationError
from repro.nn.network import Network
from repro.nn.workloads import get_workload
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

#: Canonical architecture order used across all experiments.
ARCH_ORDER = ("systolic", "mapping2d", "tiling", "flexflow")

#: Display names matching the paper's figures.
ARCH_LABELS = {
    "systolic": "Systolic",
    "mapping2d": "2D-Mapping",
    "tiling": "Tiling",
    "flexflow": "FlexFlow",
    "pipeline": "Pipelined-Systolic",
}


@dataclass(frozen=True)
class ExperimentResult:
    """A regenerated table/figure: identifier, rows, and notes."""

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]]
    notes: str = ""

    def columns(self) -> List[str]:
        if not self.rows:
            return []
        # Preserve the first row's key order; later rows may add none.
        return list(self.rows[0].keys())

    def format_table(self, float_digits: int = 3) -> str:
        """Render rows as an aligned text table (the bench output)."""
        columns = self.columns()
        if not columns:
            return f"{self.experiment_id}: (no rows)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.{float_digits}f}"
            return str(value)

        cells = [[fmt(row.get(col, "")) for col in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(row[idx]) for row in cells))
            for idx, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        divider = "  ".join("-" * widths[i] for i in range(len(columns)))
        body = "\n".join(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(columns)))
            for row in cells
        )
        lines = [f"== {self.experiment_id}: {self.title} ==", header, divider, body]
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def run_all_architectures(
    network: Network,
    config: Optional[ArchConfig] = None,
    kinds: Sequence[str] = ARCH_ORDER,
) -> Dict[str, NetworkResult]:
    """Simulate a network on each architecture at one configuration."""
    config = config or ArchConfig()
    return {
        kind: make_accelerator(
            kind, config, workload_name=network.name
        ).simulate_network(network)
        for kind in kinds
    }


#: A sweep design point: ``(key, kind, network, config)``.  ``key`` is the
#: caller's row identifier; the other three say what to evaluate.
SweepPoint = Tuple[Any, str, Network, Optional[ArchConfig]]


@contextmanager
def sweep_span(label: str, **counters: int):
    """A tracer span wrapping one batched sweep evaluation.

    Yields the span so callers can add counters discovered mid-sweep;
    the ``configs_evaluated``-style counts passed here are recorded up
    front.
    """
    tracer = current_tracer()
    with tracer.span(f"sweep:{label}", category="sweep") as span:
        if tracer.enabled and counters:
            span.add_counters(dict(counters))
        yield span


def evaluate_sweep(
    label: str, points: Sequence[SweepPoint]
) -> Dict[Any, NetworkResult]:
    """Evaluate a batch of ``(kind, network, config)`` design points.

    This is the shared entry for sweep-shaped experiments (`dse`,
    `fig19`, `sensitivity`, ...).  The heavy lifting is batched
    underneath: every FlexFlow point funnels through the vectorized
    candidate-scoring mapper, whose searches hit the per-process mapping
    memo, and each distinct ``(kind, config, workload)`` accelerator
    instance is constructed once.  Nothing here touches the persistent
    result store: the points' cycles and counts are closed forms, and
    :meth:`~repro.accelerators.base.Accelerator.simulate_network`
    memoizes each point's result per process, so a point another sweep
    already walked costs a key hash.  The whole batch runs under one
    ``sweep:{label}`` span reporting configs-evaluated counts.
    """
    results: Dict[Any, NetworkResult] = {}
    with sweep_span(label, configs_evaluated=len(points)) as span:
        accelerators: Dict[Tuple[str, Optional[ArchConfig], str], Any] = {}
        for key, kind, network, config in points:
            acc_key = (kind, config, network.name)
            accelerator = accelerators.get(acc_key)
            if accelerator is None:
                accelerator = make_accelerator(
                    kind, config, workload_name=network.name
                )
                accelerators[acc_key] = accelerator
            results[key] = accelerator.simulate_network(network)
        if current_tracer().enabled:
            span.add_counters({"accelerators": len(accelerators)})
    REGISTRY.counter("experiments.sweep_points", sweep=label).inc(len(points))
    return results


def run_matrix(
    workload_names: Sequence[str],
    config: Optional[ArchConfig] = None,
    kinds: Sequence[str] = ARCH_ORDER,
) -> Dict[str, Dict[str, NetworkResult]]:
    """workload -> architecture -> result, for the Figure 15-18 sweeps."""
    if not workload_names:
        raise ConfigurationError("workload_names must be non-empty")
    return {
        name: run_all_architectures(get_workload(name), config, kinds)
        for name in workload_names
    }
