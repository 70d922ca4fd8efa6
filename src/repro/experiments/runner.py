"""Resilient experiment runner: isolation, timeouts, retries, checkpoints.

:func:`run_resilient` runs a batch on the supervised spawn worker pool
(:class:`repro.serve.pool.WorkerPool`), so a crashing or hanging
experiment cannot take down the batch: the pool reports each attempt as
ok, failed (with the worker's traceback, or a dead worker's exit code)
or timed out, kills a worker at the per-experiment wall-clock timeout,
and retries failed experiments with capped exponential backoff.  Its
one worker is reused across the batch (and replaced when it dies) and
stopped gracefully at the end; each experiment entry the worker
computes is on disk before it replies.  Completed results are
checkpointed as JSON into a run directory — re-running the same batch
with the same ``run_dir`` resumes, skipping everything already finished
— and failures come back as structured :class:`RunOutcome` records
instead of exceptions, so :mod:`repro.experiments.report` can render a
partial report that marks what is missing.
:func:`repro.experiments.run_batch` is the one place that picks between
this and a plain in-process run, and imports this module only for a
supervised batch: the in-process path (the registry, the store lookup)
lives in :mod:`repro.experiments`.

Workers resolve experiments through
:func:`repro.experiments.experiment_registry`, which honours the
``REPRO_EXPERIMENTS_PLUGIN`` environment variable (``"module:attribute"``
naming a dict of extra experiment modules).  The variable crosses the
``spawn`` boundary with the environment, which is how the test suite
injects deliberately crashing/hanging experiments into real worker
processes.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import (
    _check_known,
    experiment_registry,
    run_module_cached,
)
from repro.experiments.records import (
    ExperimentResult,
    RunOutcome,
    RunPolicy,
    result_from_dict,
    result_to_dict,
)
from repro.fsutil import atomic_write_text
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

# -- (de)serialization --------------------------------------------------------


def outcome_to_dict(outcome: RunOutcome) -> Dict[str, Any]:
    """The JSON record of one outcome, as a run-directory checkpoint
    stores it (``from_checkpoint`` is not stored)."""
    return {
        "experiment_id": outcome.experiment_id,
        "status": outcome.status,
        "result": None if outcome.result is None else result_to_dict(outcome.result),
        "error": outcome.error,
        "attempts": outcome.attempts,
    }


def outcome_from_dict(data: Dict[str, Any]) -> RunOutcome:
    """Rebuild a stored outcome; ``from_checkpoint`` marks it as not run
    by this call."""
    result = data.get("result")
    return RunOutcome(
        experiment_id=data["experiment_id"],
        status=data["status"],
        result=None if result is None else result_from_dict(result),
        error=data.get("error", ""),
        attempts=int(data.get("attempts", 1)),
        from_checkpoint=True,
    )


def _checkpoint_path(run_dir: str, experiment_id: str) -> Path:
    return Path(run_dir) / f"{experiment_id}.json"


def _write_checkpoint(run_dir: str, outcome: RunOutcome) -> None:
    """Atomic JSON checkpoint: write to a temp file, then rename.

    No ``sort_keys``: a row's key order is its table's column order, so
    a resumed batch prints what the first run printed.
    """
    path = _checkpoint_path(run_dir, outcome.experiment_id)
    atomic_write_text(path, json.dumps(outcome_to_dict(outcome), indent=2))


def _load_checkpoint(run_dir: str, experiment_id: str) -> Optional[RunOutcome]:
    """A prior *completed* outcome, or ``None`` (failures are re-run)."""
    path = _checkpoint_path(run_dir, experiment_id)
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload.get("status") != "ok" or payload.get("result") is None:
            return None
        return outcome_from_dict(payload)
    except (ValueError, KeyError, TypeError, AttributeError):
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


def _policy_record(policy: "RunPolicy") -> Dict[str, Any]:
    """The supervision settings a manifest records and its hash covers
    (the run directory is where the record lives, not part of it)."""
    return {
        "timeout_s": policy.timeout_s,
        "retries": policy.retries,
        "backoff_s": policy.backoff_s,
        "max_backoff_s": policy.max_backoff_s,
    }


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
            "policy": _policy_record(policy),
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
        "policy": _policy_record(policy),
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


# -- the worker side ----------------------------------------------------------


def preload() -> None:
    """Import every experiment a worker may run.

    A :class:`~repro.serve.pool.WorkerPool` worker running
    :func:`experiment_entry` calls this before its ``warm`` report, so
    the worker's boot, never an experiment's timeout, pays the imports.
    """
    experiment_registry()


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
    """Every experiment in ``ids`` through one supervised pool worker.

    The pool reuses its worker across the batch.  A failed attempt's
    retry waits out its backoff without holding the worker, so the next
    experiment runs meanwhile; each outcome checkpoints the moment it
    settles.  ``grace_factor=1`` kills a timed-out worker at the timeout.
    """
    # Imported here: the in-process path of run_batch stays free of
    # asyncio and the serve package (import time and resident memory).
    import asyncio

    from repro.serve.pool import WorkerPool
    from repro.serve.schemas import ComputeRequest

    tracer = current_tracer()
    pool = WorkerPool(
        policy, jobs=1, grace_factor=1.0, entry=experiment_entry
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
        # All queued at once, not one after another: a retry waiting
        # out its backoff leaves the worker to the next experiment.
        return await asyncio.gather(*map(supervise, ids))

    try:
        return {o.experiment_id: o for o in asyncio.run(batch())}
    finally:
        pool.shutdown()  # graceful: the worker's cache publishes reach disk


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
