"""Resilient experiment runner: isolation, timeouts, retries, checkpoints.

:func:`run_resilient` runs a batch on the supervised spawn worker pool
(:class:`repro.serve.pool.WorkerPool`), so a crashing or hanging
experiment cannot take down the batch: the pool reports each attempt as
ok, failed (with the worker's traceback, or a dead worker's exit code)
or timed out, kills a worker at the per-experiment wall-clock timeout,
and retries failed experiments with capped exponential backoff.  Its
``min(jobs, pending)`` workers are reused across the batch and stopped
gracefully at the end, so every cache entry they computed is on disk
when the call returns.  Completed results are checkpointed as JSON into
a run directory — re-running the same batch with the same ``run_dir``
resumes, skipping everything already finished — and failures come back
as structured :class:`RunOutcome` records instead of exceptions, so
:mod:`repro.experiments.report` can render a partial report that marks
what is missing.  :func:`run_batch` is the one place that picks between
this and a plain in-process run.

Workers resolve experiments through :func:`experiment_registry`, which
honours the ``REPRO_EXPERIMENTS_PLUGIN`` environment variable
(``"module:attribute"`` naming a dict of extra experiment modules).  The
variable crosses the ``spawn`` boundary with the environment, which is how
the test suite injects deliberately crashing/hanging experiments into real
worker processes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import subprocess
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.common import ExperimentResult
from repro.fsutil import atomic_write_text
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

#: Environment variable naming extra experiments: ``"module:attribute"``
#: where the attribute is a ``dict`` of id -> module-like (has ``run()``).
PLUGIN_ENV = "REPRO_EXPERIMENTS_PLUGIN"


def experiment_registry() -> Dict[str, Any]:
    """All runnable experiments: the built-in registry plus env plugins."""
    from repro.experiments import ALL_EXPERIMENTS

    registry: Dict[str, Any] = dict(ALL_EXPERIMENTS)
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


# -- policies and outcomes ----------------------------------------------------


@dataclass(frozen=True)
class RunPolicy:
    """How :func:`run_resilient` (and the serve worker pool) supervise jobs.

    Args:
        jobs: concurrently running worker processes.
        timeout_s: per-attempt wall-clock limit (``None`` = unlimited).
        retries: extra attempts after a failed/timed-out first attempt.
        backoff_s: delay before retry ``k`` is ``backoff_s * 2**(k-1)``,
            capped at ``max_backoff_s``.
        max_backoff_s: ceiling on any single retry delay, so a high retry
            count cannot schedule multi-minute sleeps.
        run_dir: checkpoint directory; ``None`` disables checkpointing.
    """

    jobs: int = 1
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.5
    max_backoff_s: float = 30.0
    run_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.max_backoff_s <= 0:
            raise ConfigurationError(
                f"max_backoff_s must be positive, got {self.max_backoff_s}"
            )

    def retry_delay(self, attempt: int) -> float:
        """Delay before the retry that follows failed attempt ``attempt``.

        Exponential from ``backoff_s``, but never above ``max_backoff_s``
        — the worker pool schedules every retry (served requests and
        experiment batches alike) through here.
        """
        return min(self.backoff_s * (2 ** (attempt - 1)), self.max_backoff_s)


@dataclass(frozen=True)
class RunOutcome:
    """What happened to one job across all of its attempts.

    For an experiment, ``result`` is its :class:`ExperimentResult`; the
    worker pool reports any job this way, with the request label as
    ``experiment_id`` and the worker entry's return value as ``result``.
    """

    experiment_id: str
    status: str  # "ok" | "failed" | "timeout"
    result: Any = None
    error: str = ""
    attempts: int = 1
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# -- (de)serialization --------------------------------------------------------


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """ExperimentResult as a JSON-compatible dict."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": result.rows,
        "notes": result.notes,
    }


def result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an ExperimentResult from its JSON dict."""
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        title=data["title"],
        rows=list(data["rows"]),
        notes=data.get("notes", ""),
    )


def _checkpoint_path(run_dir: str, experiment_id: str) -> Path:
    return Path(run_dir) / f"{experiment_id}.json"


def _write_checkpoint(run_dir: str, outcome: RunOutcome) -> None:
    """Atomic JSON checkpoint: write to a temp file, then rename.

    No ``sort_keys``: a row's key order is its table's column order, so
    a resumed batch prints what the first run printed.
    """
    path = _checkpoint_path(run_dir, outcome.experiment_id)
    payload = {
        "experiment_id": outcome.experiment_id,
        "status": outcome.status,
        "result": None if outcome.result is None else result_to_dict(outcome.result),
        "error": outcome.error,
        "attempts": outcome.attempts,
    }
    atomic_write_text(path, json.dumps(payload, indent=2))


def _load_checkpoint(run_dir: str, experiment_id: str) -> Optional[RunOutcome]:
    """A prior *completed* outcome, or ``None`` (failures are re-run)."""
    path = _checkpoint_path(run_dir, experiment_id)
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload.get("status") != "ok" or payload.get("result") is None:
            return None
        return RunOutcome(
            experiment_id=experiment_id,
            status="ok",
            result=result_from_dict(payload["result"]),
            attempts=int(payload.get("attempts", 1)),
            from_checkpoint=True,
        )
    except (ValueError, KeyError, TypeError):
        return None  # corrupt checkpoint: re-run rather than crash


# -- run manifest -------------------------------------------------------------


def _git_rev() -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def batch_config_hash(
    experiment_ids: Sequence[str], policy: "RunPolicy"
) -> str:
    """Stable digest of what this batch runs and how it is supervised.

    Two runs with the same hash executed the same experiments under the
    same policy — the key a regression dashboard joins runs on.
    """
    payload = json.dumps(
        {
            "experiment_ids": list(experiment_ids),
            "policy": {
                "jobs": policy.jobs,
                "timeout_s": policy.timeout_s,
                "retries": policy.retries,
                "backoff_s": policy.backoff_s,
                "max_backoff_s": policy.max_backoff_s,
            },
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _write_manifest(
    run_dir: str,
    experiment_ids: Sequence[str],
    policy: "RunPolicy",
    *,
    started_unix: float,
    outcomes: Optional[Sequence["RunOutcome"]] = None,
) -> None:
    """Atomically (re)write ``manifest.json``: provenance for the run.

    Written once when the batch starts (``outcomes=None`` -> status
    ``"running"``) and rewritten when it finishes, so a run directory is
    self-describing even after a crash mid-batch.
    """
    payload: Dict[str, Any] = {
        "schema": 1,
        "experiment_ids": list(experiment_ids),
        "policy": {
            "jobs": policy.jobs,
            "timeout_s": policy.timeout_s,
            "retries": policy.retries,
            "backoff_s": policy.backoff_s,
            "max_backoff_s": policy.max_backoff_s,
        },
        "config_hash": batch_config_hash(experiment_ids, policy),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "started_unix": round(started_unix, 3),
        "status": "running",
    }
    if outcomes is not None:
        payload["status"] = (
            "ok" if all(o.ok for o in outcomes) else "partial"
        )
        payload["finished_unix"] = round(time.time(), 3)
        payload["outcomes"] = {
            o.experiment_id: {
                "status": o.status,
                "attempts": o.attempts,
                "from_checkpoint": o.from_checkpoint,
            }
            for o in outcomes
        }
    path = Path(run_dir) / "manifest.json"
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def load_manifest(run_dir: str) -> Dict[str, Any]:
    """Read a run directory's manifest (raises on absence/corruption)."""
    path = Path(run_dir) / "manifest.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot read run manifest {path}: {exc}"
        ) from exc


# -- persistent experiment-result cache ---------------------------------------


@lru_cache(maxsize=1024)
def _experiment_cache_key(experiment_id: str, module: Any) -> Optional[str]:
    """Cache key for one experiment, salted with its module's source hash.

    The source hash makes editing an experiment module invalidate its own
    entries immediately (no manual salt bump needed); changes elsewhere in
    the library rely on :data:`repro.cache.CACHE_SCHEMA_VERSION`.  Modules
    without retrievable source (e.g. test-plugin namespaces) return
    ``None`` and are never cached.  Memoized per ``(id, module)`` — the
    source cannot change under a running process, and re-reading it per
    lookup was measurable in cold sweeps.
    """
    import inspect

    from repro.cache import hash_payload

    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        return None
    return hash_payload(
        "experiment",
        {
            "id": experiment_id,
            "source_sha": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        },
    )


def run_module_cached(experiment_id: str, module: Any) -> ExperimentResult:
    """``module.run()`` behind the persistent result cache.

    Both the in-process path (:func:`repro.experiments.run_experiment`)
    and the pool workers (:func:`experiment_entry`) go through here, so a
    warm store turns a whole report into a series of JSON reads.
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
    if cache is not None:
        # One batched flush for the run's mapping publishes and the
        # experiment entry itself.
        with cache.deferred():
            result = module.run()
            if key is not None:
                cache.put("experiment", key, result_to_dict(result))
    else:
        result = module.run()
    return result


#: Experiments that consume the shared (architecture x workload) matrix of
#: default-configuration network simulations (Figs. 15-18 + the headline
#: claims all sweep the same six Table 1 workloads over the same four
#: architectures).
MATRIX_EXPERIMENTS = ("fig15", "fig16", "fig17", "fig18", "headline")


def prewarm_shared_points(experiment_ids: Sequence[str]) -> int:
    """Map the batch's shared workloads once, before any worker does.

    When two or more matrix-sharing experiments are in one batch, the
    supervisor runs the Section 5 mapping search (``map_network``) for
    every Table 1 workload at the default array size once — populating
    the persistent cache — instead of letting every worker repeat it.
    Workers then restore the mappings from disk; the network simulations
    on top are closed forms each worker recomputes.  Returns the number
    of mappings warmed (0 when the cache is off or fewer than two
    sharers are present); never raises — a failing prewarm just means
    the workers search for themselves.
    """
    from repro.cache import active_cache

    if active_cache() is None:
        return 0
    sharers = [eid for eid in experiment_ids if eid in MATRIX_EXPERIMENTS]
    if len(sharers) < 2:
        return 0
    try:
        from repro.arch import ArchConfig
        from repro.dataflow import map_network
        from repro.nn.workloads import WORKLOAD_NAMES, get_workload

        dim = ArchConfig().array_dim
        for name in WORKLOAD_NAMES:
            map_network(get_workload(name), dim)
        cache = active_cache()
        if cache is not None:
            # An earlier deferred publish may still be in flight; the
            # spawned workers only see the mappings once they are on disk.
            cache.drain()
    except Exception:
        return 0
    points = len(WORKLOAD_NAMES)
    REGISTRY.counter("runner.prewarmed_points").inc(points)
    return points


# -- the worker side ----------------------------------------------------------


def experiment_entry(kind: str, spec: Dict[str, Any]) -> ExperimentResult:
    """Worker-pool entry for one experiment (runs in a spawn worker).

    Chaos-armed runs (``REPRO_CHAOS`` crosses the spawn boundary with
    the environment) crash or hang here, exactly where a real experiment
    would: after the worker booted, before any result.  A failure comes
    back carrying the worker-side traceback.
    """
    from repro.chaos import chaos_worker_entry

    try:
        chaos_worker_entry()
        experiment_id = spec["experiment_id"]
        module = experiment_registry()[experiment_id]
        return run_module_cached(experiment_id, module)
    except BaseException:
        raise ExperimentError(traceback.format_exc()) from None


# -- the supervisor -----------------------------------------------------------


def _check_known(ids: Sequence[str]) -> None:
    """Fail fast, before any work starts, on ids no registry knows."""
    registry = experiment_registry()
    unknown = [eid for eid in ids if eid not in registry]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment ids: {', '.join(unknown)}"
        )


def run_batch(
    experiment_ids: Sequence[str], policy: RunPolicy
) -> List[RunOutcome]:
    """Run a batch on the executor its policy calls for.

    ``jobs == 1`` with no timeout, retries or run directory runs the
    experiments in this process under one deferred cache flush, and a
    failure raises.  Any other policy goes through
    :func:`run_resilient`.  Outcomes come back in input order.
    """
    if (
        policy.jobs > 1
        or policy.timeout_s is not None
        or policy.retries
        or policy.run_dir is not None
    ):
        return run_resilient(experiment_ids, policy)
    from repro.cache import deferred_cache_publishes
    from repro.experiments import run_experiment

    ids = list(experiment_ids)
    _check_known(ids)
    # One store flush for the whole batch: back-to-back small-file
    # publishes batch far better than per-experiment bursts.
    with deferred_cache_publishes():
        return [
            RunOutcome(eid, "ok", result=run_experiment(eid)) for eid in ids
        ]


def run_resilient(
    experiment_ids: Sequence[str], policy: Optional[RunPolicy] = None
) -> List[RunOutcome]:
    """Supervise a batch of experiments; never raises for worker failures.

    Unknown ids still raise :class:`ConfigurationError` *before* any
    worker spawns (fail fast); everything after that comes back as
    :class:`RunOutcome` records in input order.
    """
    policy = policy or RunPolicy()
    ids = list(experiment_ids)
    _check_known(ids)
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate experiment ids in one batch")

    started_unix = time.time()
    outcomes: Dict[str, RunOutcome] = {}
    if policy.run_dir is not None:
        for eid in ids:
            prior = _load_checkpoint(policy.run_dir, eid)
            if prior is not None:
                outcomes[eid] = prior
                REGISTRY.counter("runner.checkpoint_reuses").inc()
        _write_manifest(
            policy.run_dir, ids, policy, started_unix=started_unix
        )
    pending = [eid for eid in ids if eid not in outcomes]
    # Search the batch's shared mappings once (into the persistent cache)
    # before any worker repeats them.
    prewarm_shared_points(pending)
    if pending:
        outcomes.update(_run_on_pool(pending, policy))

    ordered = [outcomes[eid] for eid in ids]
    if policy.run_dir is not None:
        _write_manifest(
            policy.run_dir, ids, policy,
            started_unix=started_unix, outcomes=ordered,
        )
    return ordered


def _run_on_pool(
    ids: Sequence[str], policy: RunPolicy
) -> Dict[str, RunOutcome]:
    """Every experiment in ``ids`` through one supervised worker pool.

    The pool reuses its ``min(jobs, len(ids))`` workers across the batch.
    A failed attempt's retry waits out its backoff without holding a
    worker, so peers keep running; each outcome checkpoints the moment it
    settles.  ``grace_factor=1`` kills a timed-out worker at the timeout.
    """
    # Imported here: the in-process path of run_batch stays free of
    # asyncio and the serve package (import time and resident memory).
    import asyncio

    from repro.serve.pool import WorkerPool
    from repro.serve.schemas import ComputeRequest

    tracer = current_tracer()
    pool = WorkerPool(
        policy, jobs=min(policy.jobs, len(ids)), grace_factor=1.0,
        entry=experiment_entry,
    )

    async def supervise(eid: str) -> RunOutcome:
        dispatched: List[float] = []

        def trace(record: Dict[str, Any]) -> None:
            if record["name"] == "attempt" and not dispatched:
                dispatched.append(time.perf_counter())
            tracer.event(
                record["name"], category="experiment",
                labels=record["labels"],
            )

        request = ComputeRequest(
            "experiment", {"experiment_id": eid}, key=eid, label=eid
        )
        outcome = await pool.supervise(request, trace)
        end = time.perf_counter()
        # One span per experiment: first dispatch -> outcome.
        tracer.add_span(
            f"experiment:{eid}",
            "experiment",
            start_wall=dispatched[0] if dispatched else end,
            end_wall=end,
            counters={"attempts": outcome.attempts},
            labels={"status": outcome.status},
        )
        REGISTRY.counter("runner.outcomes", status=outcome.status).inc()
        if policy.run_dir is not None:
            _write_checkpoint(policy.run_dir, outcome)
        return outcome

    async def batch() -> List[RunOutcome]:
        return await asyncio.gather(*map(supervise, ids))

    try:
        return {o.experiment_id: o for o in asyncio.run(batch())}
    finally:
        pool.shutdown()  # graceful: workers' cache publishes reach disk


def require_all_ok(outcomes: Sequence[RunOutcome]) -> List[ExperimentResult]:
    """Results from outcomes, raising :class:`ExperimentError` on failures."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        summary = "; ".join(
            f"{o.experiment_id} ({o.status})" for o in failed
        )
        detail = "\n\n".join(
            f"--- {o.experiment_id} ---\n{o.error}" for o in failed
        )
        raise ExperimentError(
            f"{len(failed)} experiment(s) failed: {summary}\n{detail}"
        )
    return [o.result for o in outcomes]
