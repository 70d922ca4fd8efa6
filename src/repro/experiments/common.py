"""Shared experiment harness: the runners over the architecture models.

Every experiment module exposes ``run(...) -> ExperimentResult``; the
result carries the regenerated rows (list of dicts) plus enough metadata
for EXPERIMENTS.md and the benchmark harness to print paper-style tables.
The record itself, with ``ARCH_ORDER`` and ``ARCH_LABELS``, is defined in
:mod:`repro.experiments.records` (no model imports) and re-exported here
for the experiment modules.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.accelerators import make_accelerator
from repro.accelerators.base import NetworkResult
from repro.arch.config import ArchConfig
from repro.errors import ConfigurationError
from repro.experiments.records import (  # noqa: F401  (re-exported)
    ARCH_LABELS,
    ARCH_ORDER,
    ExperimentResult,
)
from repro.nn.network import Network
from repro.nn.workloads import get_workload
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer


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
