"""One module per paper table/figure, each exposing ``run() -> ExperimentResult``.

:data:`EXPERIMENT_MODULES` is the registry: one table of experiment ids
-> module names, in the paper's presentation order.  Reading the table
loads nothing.  The modules load, all of them, when the registry is
first read (``ALL_EXPERIMENTS``, :func:`experiment_registry`,
:func:`run_experiment`), and importing :mod:`repro.experiments.report`
reads it.

This module is also the in-process path: the registry read, the
persistent-store lookup (:func:`run_module_cached` and the experiment
key) and :func:`run_batch`, the one place that picks between running a
batch here and the supervised runner (:mod:`repro.experiments.runner`),
which it imports only for a supervised batch.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from functools import lru_cache
from types import ModuleType
from typing import Any, Dict, List, Optional, Sequence

from repro._lazy import lazy_exports
from repro.errors import ConfigurationError
from repro.experiments.records import (
    ARCH_LABELS,
    ARCH_ORDER,
    ExperimentResult,
    RunOutcome,
    RunPolicy,
    result_from_dict,
    result_to_dict,
)

#: experiment id -> module under ``repro.experiments``, in the paper's
#: presentation order.
EXPERIMENT_MODULES = {
    "fig01": "fig01_nominal_vs_achievable",
    "table03": "table03_utilization_mismatch",
    "table04": "table04_unrolling_factors",
    "area": "area_table",
    "fig15": "fig15_utilization",
    "fig16": "fig16_performance",
    "fig17": "fig17_data_volume",
    "fig18": "fig18_power_energy",
    "table06": "table06_power_breakdown",
    "fig19": "fig19_scalability",
    "table07": "table07_accelerator_comparison",
    "intercon": "interconnect_power",
    # Ablations of DESIGN.md's called-out design choices (not in the paper).
    "ablation_styles": "ablation_styles",
    "ablation_coupling": "ablation_coupling",
    "ablation_localstore": "ablation_localstore",
    "bandwidth": "bandwidth_study",
    "dse": "dse_array_scale",
    "dse_per_layer": "dse_per_layer",
    "fc": "fc_study",
    "aspect": "aspect_ratio_study",
    "layers": "layer_breakdown",
    "verify": "verification",
    "sensitivity": "sensitivity",
    "headline": "headline_claims",
    "motivation": "motivation",
    "fault_degradation": "fig_fault_degradation",
}

#: Environment variable naming extra experiments: ``"module:attribute"``
#: where the attribute is a ``dict`` of id -> module-like (has ``run()``).
#: It crosses the ``spawn`` boundary with the environment, which is how
#: the test suite injects deliberately crashing/hanging experiments into
#: real worker processes.
PLUGIN_ENV = "REPRO_EXPERIMENTS_PLUGIN"


def _builtin_experiments() -> Dict[str, ModuleType]:
    """``ALL_EXPERIMENTS``: id -> module, every module imported on the
    first call."""
    registry = globals().get("ALL_EXPERIMENTS")
    if registry is None:
        registry = {
            eid: importlib.import_module(f"{__name__}.{module}")
            for eid, module in EXPERIMENT_MODULES.items()
        }
        globals()["ALL_EXPERIMENTS"] = registry
    return registry


def experiment_registry() -> Dict[str, Any]:
    """All runnable experiments: the built-in registry plus env plugins."""
    registry: Dict[str, Any] = dict(_builtin_experiments())
    spec = os.environ.get(PLUGIN_ENV)
    if spec:
        try:
            module_name, _, attr = spec.partition(":")
            if not attr:
                raise ValueError("expected 'module:attribute'")
            extra = getattr(importlib.import_module(module_name), attr)
            registry.update(extra)
        except Exception as exc:
            raise ConfigurationError(
                f"cannot load {PLUGIN_ENV}={spec!r}: {exc}"
            ) from exc
    return registry


def _check_known(ids: Sequence[str]) -> None:
    """Fail fast, before any work starts, on ids no registry knows."""
    registry = experiment_registry()
    unknown = [eid for eid in ids if eid not in registry]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment ids: {', '.join(unknown)}"
        )


@lru_cache(maxsize=1024)
def _experiment_cache_key(experiment_id: str, module: Any) -> Optional[str]:
    """Cache key for one experiment, salted with its module file's hash.

    The source hash makes editing an experiment module invalidate its own
    entries immediately (no manual salt bump needed); changes elsewhere in
    the library rely on :data:`repro.cache.CACHE_SCHEMA_VERSION`.  The
    hash is over the file's bytes, which for a source file is the digest
    ``inspect.getsource`` text gave, without its tokenizer pass.  Objects
    without a ``.py`` file (e.g. test-plugin namespaces) return ``None``
    and are never cached.  Memoized per ``(id, module)`` — the source
    cannot change under a running process.
    """
    from repro.cache import hash_payload

    path = getattr(module, "__file__", None)
    if not path or not path.endswith(".py"):
        return None
    try:
        with open(path, "rb") as handle:
            source = handle.read()
    except OSError:
        return None
    return hash_payload(
        "experiment",
        {"id": experiment_id, "source_sha": hashlib.sha256(source).hexdigest()},
    )


def run_module_cached(experiment_id: str, module: Any) -> ExperimentResult:
    """``module.run()`` behind the persistent result cache.

    Both the in-process path (:func:`run_experiment`) and the pool
    workers (:func:`repro.experiments.runner.experiment_entry`) go
    through here, so a warm store turns a whole report into a series of
    JSON reads.  The experiment entry is the only thing a run publishes,
    and it is on disk when the call returns: the mapping searches and
    closed forms inside ``module.run()`` are recomputed (and memoized per
    process) on a miss.
    """
    from repro.cache import active_cache

    cache = active_cache()
    key = (
        _experiment_cache_key(experiment_id, module)
        if cache is not None
        else None
    )
    if cache is not None and key is not None:
        stored = cache.get("experiment", key)
        if stored is not None:
            try:
                return result_from_dict(stored)
            except (KeyError, TypeError, ValueError):
                pass  # malformed entry: recompute and overwrite
    result = module.run()
    if cache is not None and key is not None:
        cache.put("experiment", key, result_to_dict(result))
    return result


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by its id (e.g. ``"fig16"``)."""
    module = experiment_registry().get(experiment_id)
    if module is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known:"
            f" {', '.join(EXPERIMENT_MODULES)}"
        )
    return run_module_cached(experiment_id, module)


def run_batch(
    experiment_ids: Sequence[str], policy: RunPolicy
) -> List[RunOutcome]:
    """Run a batch on the executor its policy calls for.

    A policy with no timeout, retries or run directory runs the
    experiments in this process, one :func:`run_experiment` call each,
    each entry on disk before the next experiment starts, and a failure
    raises.  Any other policy goes through
    :func:`repro.experiments.runner.run_resilient`.  Outcomes come back
    in input order.
    """
    if (
        policy.timeout_s is not None
        or policy.retries
        or policy.run_dir is not None
    ):
        from repro.experiments.runner import run_resilient

        return run_resilient(experiment_ids, policy)
    ids = list(experiment_ids)
    _check_known(ids)
    return [RunOutcome(eid, "ok", result=run_experiment(eid)) for eid in ids]


def run_experiments(
    experiment_ids,
    *,
    timeout_s=None,
    retries: int = 0,
    run_dir=None,
):
    """Run several experiments; results come back in input order.

    :func:`run_batch` picks the executor: with no resilience option the
    batch runs in-process; otherwise it runs on one supervised pool
    worker (:func:`repro.experiments.runner.run_resilient`), with a
    wall-clock timeout per attempt, retries with capped exponential
    backoff, and checkpoints to ``run_dir`` (resumable).  Unknown ids
    raise before any experiment runs; a terminal failure raises
    :class:`~repro.errors.ExperimentError` after the rest of the batch
    finishes — use :func:`repro.experiments.runner.run_resilient`
    directly for partial results.

    Args:
        experiment_ids: ids from :data:`ALL_EXPERIMENTS`.
        timeout_s: per-experiment wall-clock limit in seconds.
        retries: extra attempts for failed/timed-out experiments.
        run_dir: checkpoint directory for resumable batches.

    Returns:
        ``List[ExperimentResult]`` in the order of ``experiment_ids``.
    """
    from repro.experiments.runner import require_all_ok

    policy = RunPolicy(timeout_s=timeout_s, retries=retries, run_dir=run_dir)
    return require_all_ok(run_batch(experiment_ids, policy))


_names, _export, __dir__ = lazy_exports(
    __name__, {".common": ("run_all_architectures", "run_matrix")}
)


def __getattr__(name: str) -> Any:
    if name == "ALL_EXPERIMENTS":
        return _builtin_experiments()
    return _export(name)


__all__ = [
    "ALL_EXPERIMENTS",
    "EXPERIMENT_MODULES",
    "experiment_registry",
    "run_experiment",
    "run_batch",
    "run_experiments",
    "ExperimentResult",
    "ARCH_ORDER",
    "ARCH_LABELS",
    *_names,
]
