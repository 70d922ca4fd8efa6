"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry of each stack layer (mapper,
kernels, batched traces, per-layer DSE, accelerators, experiments, the
result store, the functional simulators and the serve front-end) with a
recorder, replacing every module attribute that still names the original,
so each caller's own lookup reaches the wrapper.  Nothing under ``src/``
changes.

A span records its name, start, end, parent span and op id; the parent is
the innermost open span of the same thread or asyncio task.  Spans stay in
memory until :func:`summarize` (and optionally :func:`dump`) at the end of
a run.  A layer's self time is its span's duration minus the durations of
the wrapped spans nested directly inside it.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Experiment ids in the registry's order (one ``experiments.<id>.ms``
#: metric each).
EXPERIMENT_IDS = (
    "fig01", "table03", "table04", "area", "fig15", "fig16", "fig17",
    "fig18", "table06", "fig19", "table07", "intercon", "ablation_styles",
    "ablation_coupling", "ablation_localstore", "bandwidth", "dse",
    "dse_per_layer", "fc", "aspect", "layers", "verify", "sensitivity",
    "headline", "motivation", "fault_degradation",
)

KERNELS = (
    "enumerate_triples", "pair_cycles", "flexflow_store_sums",
    "surviving_structures", "map_network_dp",
)

SIMULATORS = {
    "sim.systolic": ("repro.sim.systolic_sim", "SystolicFunctionalSim"),
    "sim.tiling": ("repro.sim.tiling_sim", "TilingFunctionalSim"),
    "sim.mapping2d": ("repro.sim.mapping2d_sim", "Mapping2DFunctionalSim"),
    "sim.flexflow": ("repro.sim.flexflow_sim", "FlexFlowFunctionalSim"),
}

#: Spans whose label is the CNN layer they work on.
CNN_LAYER_SPANS = ("mapper.map_layer", "accelerators.simulate_layer",
                   *SIMULATORS)

# Record fields (a list, so close() can fill in place).
NAME, START, END, PARENT, OP, COUNT, LABEL, CHILD_S, INDEX = range(9)


class SpanLog:
    """In-memory span store; one per process.

    ``op`` is the op id stamped on new spans.  A caller that runs ops one
    after another sets it per op; while it is ``None`` (a server), each
    root span starts a new op id that its descendants share, so the spans
    of one request carry one id.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def open(self, name: str, label: Any) -> tuple:
        parent = self._current.get()
        index = next(self._ids)
        if self.op is not None:
            op = self.op
        else:
            op = index if parent is None else parent[OP]
        record = [name, time.perf_counter(), None, parent, op, 0, label,
                  0.0, index]
        self.spans.append(record)
        return record, self._current.set(record)

    def close(self, record: list, token, count: float) -> None:
        record[END] = time.perf_counter()
        record[COUNT] = count
        parent = record[PARENT]
        if parent is not None:
            parent[CHILD_S] += record[END] - record[START]
        self._current.reset(token)


def _wrapper(log: SpanLog, fn: Callable, name_of: Callable, count_of=None,
             label_of=None) -> Callable:
    """``fn`` wrapped in a span; ``count_of(args, result)`` is summed per
    layer, ``label_of(args)`` names the CNN layer or network involved."""
    if inspect.iscoroutinefunction(fn):
        async def wrapper(*args, **kwargs):
            record, token = log.open(
                name_of(args), label_of(args) if label_of else None
            )
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                log.close(record, token,
                          count_of(args, result) if count_of else 1)
    else:
        def wrapper(*args, **kwargs):
            record, token = log.open(
                name_of(args), label_of(args) if label_of else None
            )
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                log.close(record, token,
                          count_of(args, result) if count_of else 1)
    return functools.wraps(fn)(wrapper)


def _patch(log: SpanLog, module_name: str, attr: str, name: str, **kw) -> None:
    """Wrap ``module.attr`` and every repro module attribute naming it."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = _wrapper(log, original, kw.pop("name_of", lambda a: name), **kw)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch_method(log: SpanLog, module_name: str, cls: str, attr: str,
                  name: str, **kw) -> None:
    owner = getattr(importlib.import_module(module_name), cls)
    wrapped = _wrapper(log, owner.__dict__[attr], lambda a: name, **kw)
    setattr(owner, attr, wrapped)


def _hit(args, result) -> int:
    return 0 if result is None else 1


def install(log: SpanLog, *, serve: bool = False) -> None:
    """Wrap every traced layer entry in this process."""
    for module in (
        "repro.experiments", "repro.experiments.report", "repro.dse",
        "repro.sim", "repro.accelerators", "repro.cache", "repro.kernels",
    ):
        importlib.import_module(module)
    if serve:
        importlib.import_module("repro.serve.app")
        importlib.import_module("repro.cli")

    for name, (module, cls) in SIMULATORS.items():
        _patch_method(log, module, cls, "run_layer", name,
                      count_of=lambda a, r: a[1].macs,
                      label_of=lambda a: a[1].name)
    _patch(log, "repro.dataflow.mapper", "map_network", "mapper.map_network",
           label_of=lambda a: a[0].name)
    _patch(log, "repro.dataflow.mapper", "map_layer", "mapper.map_layer",
           label_of=lambda a: a[0].name)
    for fn in ("batch_flexflow_traces", "batch_systolic_traces",
               "batch_mapping2d_traces", "batch_tiling_traces"):
        _patch(log, "repro.sim.batch", fn, "sim.batch",
               count_of=lambda a, r: len(r) if r is not None else 0)
    _patch(log, "repro.dse.perlayer", "solve_per_layer", "dse.solve_per_layer")
    _patch_method(log, "repro.accelerators.base", "Accelerator",
                  "simulate_network", "accelerators.simulate_network",
                  label_of=lambda a: a[1].name)
    from repro.accelerators.base import Accelerator

    pending = list(Accelerator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if "simulate_layer" in cls.__dict__:
            _patch_method(log, cls.__module__, cls.__name__, "simulate_layer",
                          "accelerators.simulate_layer",
                          label_of=lambda a: a[1].name)
    _patch(log, "repro.experiments", "run_experiment", "",
           name_of=lambda a: f"experiments.{a[0]}")
    _patch(log, "repro.experiments.common", "evaluate_sweep",
           "experiments.sweep", count_of=lambda a, r: len(a[1]))
    _patch_method(log, "repro.cache.store", "ResultCache", "get", "cache.get",
                  count_of=_hit)
    _patch_method(log, "repro.cache.store", "ResultCache", "put", "cache.put")
    _patch_method(log, "repro.cache.store", "ResultCache", "drain",
                  "cache.drain")

    import repro.kernels

    suite = repro.kernels.active_kernels()
    if suite is not None:
        for kernel in KERNELS:
            setattr(suite, kernel, _wrapper(
                log, getattr(suite, kernel),
                functools.partial(lambda k, a: f"kernels.{k}", kernel),
            ))

    if serve:
        for module, cls, attr, name in (
            ("repro.serve.app", "ServeApp", "serve_request", "serve.request"),
            ("repro.serve.coalescer", "Coalescer", "get_or_compute",
             "serve.coalesce"),
            ("repro.serve.batcher", "BatchScheduler", "submit", "serve.batch"),
            ("repro.serve.pool", "WorkerPool", "run", "serve.pool"),
        ):
            _patch_method(log, module, cls, attr, name)


def summarize(log: SpanLog, op_seconds: Optional[Dict[int, float]] = None
              ) -> Dict[str, Any]:
    """Per-layer totals, top-level coverage per op and the CNN-layer table.

    ``layers[name] = [calls, self_ms, count]``; ``toplevel_ms[op]`` is the
    time covered by spans with no wrapped parent; ``cnn[network|layer]`` is
    mapper plus simulator self time grouped by the CNN layer it worked on.
    """
    layers: Dict[str, list] = {}
    toplevel: Dict[int, float] = {}
    cnn: Dict[str, float] = {}
    for record in log.spans:
        if record[END] is None:
            continue
        duration = record[END] - record[START]
        self_ms = max(0.0, duration - record[CHILD_S]) * 1e3
        entry = layers.setdefault(record[NAME], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += self_ms
        entry[2] += record[COUNT]
        if record[PARENT] is None:
            toplevel[record[OP]] = toplevel.get(record[OP], 0.0) + duration * 1e3
        if record[NAME] in CNN_LAYER_SPANS:
            key = f"{_network_of(record)}|{record[LABEL]}"
            cnn[key] = cnn.get(key, 0.0) + self_ms
        elif record[NAME] == "mapper.map_network":
            key = f"{record[LABEL]}|(whole network)"
            cnn[key] = cnn.get(key, 0.0) + self_ms
    return {
        "layers": layers,
        "toplevel_ms": {str(op): ms for op, ms in toplevel.items()},
        "cnn": cnn,
    }


def _network_of(record: list) -> str:
    parent = record[PARENT]
    while parent is not None:
        if parent[NAME] in ("mapper.map_network",
                            "accelerators.simulate_network"):
            return str(parent[LABEL])
        parent = parent[PARENT]
    return "-"


def dump(log: SpanLog, path: str, limit: int = 200_000) -> None:
    """Write spans as JSON lines: ``[id, name, start, end, parent, op]``."""
    with open(path, "w") as handle:
        for record in log.spans[:limit]:
            parent = record[PARENT]
            handle.write(json.dumps([
                record[INDEX], record[NAME], record[START], record[END],
                None if parent is None else parent[INDEX], record[OP],
            ]) + "\n")
