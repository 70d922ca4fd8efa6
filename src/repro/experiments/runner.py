"""Resilient experiment runner: isolation, timeouts, retries.

:func:`run_resilient` runs a batch on the supervised spawn worker pool
(:class:`repro.serve.pool.WorkerPool`), so a crashing or hanging
experiment cannot take down the batch: the pool reports each attempt as
ok, failed (with the worker's traceback, or a dead worker's exit code)
or timed out, kills a worker at the per-experiment wall-clock timeout,
and retries failed experiments with capped exponential backoff.  Its
one worker is reused across the batch (and replaced when it dies) and
stopped gracefully at the end; each experiment entry the worker
computes is on disk before it replies.  Failures come back as
structured :class:`RunOutcome` records instead of exceptions, so
:mod:`repro.experiments.report` can render a partial report that marks
what is missing.

The persistent result store is how a batch resumes.  Before any worker
starts, :func:`run_resilient` looks every experiment up in the store in
this process and sends only the misses to the pool, so re-running an
interrupted batch recomputes only what did not finish, and a batch the
store already holds starts no worker.  An entry is keyed by its
module's source digest and :data:`repro.cache.CACHE_SCHEMA_VERSION`, so
an edited experiment re-runs; with the store off (``REPRO_CACHE=off``)
every experiment runs again.
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
processes.  An experiment with no ``.py`` file to key an entry by (the
suite's plugin classes) is never stored and always runs.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments import (
    _check_known,
    _stored_result,
    experiment_registry,
    run_module_cached,
)
from repro.experiments.records import ExperimentResult, RunOutcome, RunPolicy
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

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

    Unknown or repeated ids raise :class:`ConfigurationError` *before*
    any worker spawns (fail fast).  Experiments the store holds come
    back from it; the rest run on the pool, and only if there are any
    does a worker start.  Outcomes come back in input order.
    """
    policy = policy or RunPolicy()
    ids = list(experiment_ids)
    _check_known(ids)

    registry = experiment_registry()
    outcomes: Dict[str, RunOutcome] = {}
    for eid in ids:
        result = _stored_result(eid, registry[eid])
        if result is not None:
            outcomes[eid] = RunOutcome(eid, "ok", result=result)
    pending = [eid for eid in ids if eid not in outcomes]
    if pending:
        outcomes.update(_run_on_pool(pending, policy))
    return [outcomes[eid] for eid in ids]


def _run_on_pool(
    ids: Sequence[str], policy: RunPolicy
) -> Dict[str, RunOutcome]:
    """Every experiment in ``ids`` through one supervised pool worker.

    The pool reuses its worker across the batch.  A failed attempt's
    retry waits out its backoff without holding the worker, so the next
    experiment runs meanwhile.  ``grace_factor=1`` kills a timed-out
    worker at the timeout.
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
        return outcome

    async def batch() -> List[RunOutcome]:
        # All queued at once, not one after another: a retry waiting
        # out its backoff leaves the worker to the next experiment.
        return await asyncio.gather(*map(supervise, ids))

    try:
        return {o.experiment_id: o for o in asyncio.run(batch())}
    finally:
        pool.shutdown()  # graceful: the worker's cache publishes reach disk
