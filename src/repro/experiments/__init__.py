"""One module per paper table/figure, each exposing ``run() -> ExperimentResult``.

:data:`EXPERIMENT_MODULES` is the registry: one table of experiment ids
-> module names, in the paper's presentation order.  Reading the table
loads nothing.  The modules load, all of them, when the registry is
first read (``ALL_EXPERIMENTS``, :func:`experiment_registry`,
:func:`run_experiment`), and importing :mod:`repro.experiments.report`
reads it.

This module is also the one way an experiment runs: the registry read,
the persistent-store lookup (:func:`run_module_cached` and the
experiment key) and :func:`run_batch`, which runs a batch in this
process.
"""

from __future__ import annotations

import hashlib
import importlib
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence

from repro._lazy import lazy_exports
from repro.errors import ConfigurationError
from repro.experiments.records import (
    ARCH_LABELS,
    ARCH_ORDER,
    ExperimentResult,
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


def experiment_registry() -> Dict[str, Any]:
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


def _unknown_ids_error(unknown: Sequence[str]) -> ConfigurationError:
    return ConfigurationError(
        f"unknown experiment ids: {', '.join(unknown)};"
        f" known: {', '.join(experiment_registry())}"
    )


def _check_known(ids: Sequence[str]) -> None:
    """Fail fast, before any work starts, on ids the registry does not
    know and on an id named twice (its table would print twice)."""
    registry = experiment_registry()
    unknown = [eid for eid in ids if eid not in registry]
    if unknown:
        raise _unknown_ids_error(unknown)
    seen = set()
    for eid in ids:
        if eid in seen:
            raise ConfigurationError(
                "duplicate experiment ids in one batch:"
                f" {eid!r} appears more than once"
            )
        seen.add(eid)


@lru_cache(maxsize=1024)
def _experiment_cache_key(experiment_id: str, module: Any) -> Optional[str]:
    """Cache key for one experiment, salted with its module file's hash.

    The source hash makes editing an experiment module invalidate its own
    entries immediately (no manual salt bump needed); changes elsewhere in
    the library rely on :data:`repro.cache.CACHE_SCHEMA_VERSION`.  The
    hash is over the file's bytes, which for a source file is the digest
    ``inspect.getsource`` text gave, without its tokenizer pass.  Objects
    without a ``.py`` file (e.g. a test's stand-in class) return ``None``
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

    A warm store turns a whole report into a series of JSON reads.  The
    experiment entry is the only thing a run publishes, and it is on
    disk when the call returns: the mapping searches and closed forms
    inside ``module.run()`` are recomputed (and memoized per process) on
    a miss.  A malformed entry reads as a miss, and the run overwrites
    it.
    """
    from repro.cache import active_cache

    cache = active_cache()
    key = None
    if cache is not None:
        key = _experiment_cache_key(experiment_id, module)
    if key is not None:
        stored = cache.get("experiment", key)
        if stored is not None:
            try:
                return result_from_dict(stored)
            except (KeyError, TypeError, ValueError):
                pass
    result = module.run()
    if key is not None:
        cache.put("experiment", key, result_to_dict(result))
    return result


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by its id (e.g. ``"fig16"``)."""
    module = experiment_registry().get(experiment_id)
    if module is None:
        raise _unknown_ids_error([experiment_id])
    return run_module_cached(experiment_id, module)


def run_batch(experiment_ids: Sequence[str]) -> List[ExperimentResult]:
    """Run a batch in this process and return the results in input order.

    Unknown and repeated ids are rejected before any experiment runs.
    Each experiment is one :func:`run_experiment` call, and its entry is
    on disk before the next one starts, so the result store is how an
    interrupted batch resumes.  A failure raises.
    """
    ids = list(experiment_ids)
    _check_known(ids)
    return [run_experiment(eid) for eid in ids]


_names, _export, __dir__ = lazy_exports(
    __name__, {".common": ("run_all_architectures", "run_matrix")}
)


def __getattr__(name: str) -> Any:
    if name == "ALL_EXPERIMENTS":
        return experiment_registry()
    return _export(name)


__all__ = [
    "ALL_EXPERIMENTS",
    "EXPERIMENT_MODULES",
    "experiment_registry",
    "run_experiment",
    "run_batch",
    "ExperimentResult",
    "ARCH_ORDER",
    "ARCH_LABELS",
    *_names,
]
