"""Multi-host sharded sweeps over one shared result store.

:func:`run_sharded` splits an experiment batch into ``num_shards``
deterministic slices and lets any number of *hosts* (processes or
machines that share one ``REPRO_CACHE_DIR``) cooperate on it.  The
content-addressed cache directory doubles as the coordination medium —
no server, no sockets:

- **Leases** — a host claims shard ``i`` by creating
  ``<root>/.shards/<batch_id>/shard-<i>.lease`` with ``O_CREAT|O_EXCL``,
  the one primitive POSIX gives us that is atomic on every local and
  network filesystem worth supporting.  Exactly one creator wins; the
  losers move on to the next unclaimed shard.
- **Done markers** — a finished shard publishes
  ``shard-<i>.done`` (written atomically: temp file + rename) carrying
  the serialized :class:`~repro.experiments.runner.RunOutcome` list, so
  other hosts merge results without re-running anything.
- **Stale-lease stealing** — a lease older than ``stale_after_s`` with
  no done marker means its host died; any waiting host deletes the
  lease and re-claims the shard.  Duplicate execution during a steal
  race is harmless: experiments are deterministic and the shared result
  cache makes the re-run cheap, while the *first* atomic done-marker
  rename wins the merge.

Shard membership is ``experiment_ids[i::num_shards]`` — deterministic,
so every host derives the same plan from the same arguments, and the
batch id (a digest of the ids and shard count) keeps hosts running
*different* batches from colliding in the same store.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.cache import cache_root
from repro.errors import ConfigurationError, ExperimentError
from repro.fsutil import atomic_write_text
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer
from repro.experiments.runner import (
    RunOutcome,
    RunPolicy,
    experiment_registry,
    result_from_dict,
    result_to_dict,
    run_resilient,
)


def shard_batch_id(
    experiment_ids: Sequence[str], num_shards: int
) -> str:
    """Stable digest identifying one sharded batch.

    Hosts only cooperate when they were given the same experiment list
    (order included) and the same shard count; anything else would pair
    leases with the wrong work.
    """
    payload = json.dumps(
        {"experiment_ids": list(experiment_ids), "num_shards": num_shards},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def shard_members(
    experiment_ids: Sequence[str], shard_index: int, num_shards: int
) -> List[str]:
    """The ids shard ``shard_index`` is responsible for (may be empty)."""
    return list(experiment_ids)[shard_index::num_shards]


def default_host_id() -> str:
    """``<hostname>-<pid>``: unique enough to attribute leases in logs."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _outcome_to_dict(outcome: RunOutcome) -> Dict[str, Any]:
    return {
        "experiment_id": outcome.experiment_id,
        "status": outcome.status,
        "result": (
            None if outcome.result is None else result_to_dict(outcome.result)
        ),
        "error": outcome.error,
        "attempts": outcome.attempts,
    }


def _outcome_from_dict(data: Dict[str, Any]) -> RunOutcome:
    result = data.get("result")
    return RunOutcome(
        experiment_id=data["experiment_id"],
        status=data["status"],
        result=None if result is None else result_from_dict(result),
        error=data.get("error", ""),
        attempts=int(data.get("attempts", 1)),
        from_checkpoint=True,  # merged from another host, not run here
    )


class ShardStore:
    """Lease and done-marker files for one batch, under the cache root.

    Purely mechanical — it knows nothing about experiments, only about
    claiming shard indices and publishing/reading opaque outcome lists.
    """

    def __init__(self, batch_id: str, root: Optional[Path] = None) -> None:
        base = root if root is not None else cache_root()
        self.dir = Path(base) / ".shards" / batch_id
        self.batch_id = batch_id

    def _lease_path(self, shard_index: int) -> Path:
        return self.dir / f"shard-{shard_index}.lease"

    def _done_path(self, shard_index: int) -> Path:
        return self.dir / f"shard-{shard_index}.done"

    def try_claim(self, shard_index: int, host_id: str) -> bool:
        """Atomically claim a shard; ``False`` if someone else holds it."""
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "host": host_id,
                "pid": os.getpid(),
                "claimed_unix": time.time(),
            },
            sort_keys=True,
        )
        try:
            fd = os.open(
                self._lease_path(shard_index),
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                0o644,
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        REGISTRY.counter("shard.claims").inc()
        return True

    def lease_age_s(self, shard_index: int) -> Optional[float]:
        """Seconds since the lease was claimed, or ``None`` (unclaimed)."""
        try:
            raw = self._lease_path(shard_index).read_text()
            claimed = float(json.loads(raw)["claimed_unix"])
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable lease: fall back to the file mtime so a
            # corrupted claim still ages out instead of wedging the
            # batch forever.
            try:
                claimed = self._lease_path(shard_index).stat().st_mtime
            except OSError:
                return None
        return max(0.0, time.time() - claimed)

    def steal_lease(self, shard_index: int) -> bool:
        """Drop a (presumed stale) lease so the shard can be re-claimed."""
        try:
            self._lease_path(shard_index).unlink()
        except OSError:
            return False
        REGISTRY.counter("shard.steals").inc()
        return True

    def publish(
        self, shard_index: int, outcomes: Sequence[RunOutcome]
    ) -> bool:
        """Atomically publish a shard's outcomes (first writer wins).

        ``False`` means a steal-race winner already published this shard
        — its results stand, and the caller should discard its own.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self._done_path(shard_index)
        if path.is_file():
            return False
        # No sort_keys: row key order is the printed column order.
        atomic_write_text(
            path, json.dumps([_outcome_to_dict(o) for o in outcomes])
        )
        REGISTRY.counter("shard.publishes").inc()
        return True

    def load_done(self, shard_index: int) -> Optional[List[RunOutcome]]:
        """The published outcomes for a shard, or ``None`` (not done)."""
        path = self._done_path(shard_index)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
            return [_outcome_from_dict(entry) for entry in payload]
        except (ValueError, KeyError, TypeError):
            return None  # half-written by a dying host: treat as not done

    def done_indices(self, num_shards: int) -> List[int]:
        return [
            i for i in range(num_shards) if self._done_path(i).is_file()
        ]


def run_sharded(
    experiment_ids: Sequence[str],
    policy: Optional[RunPolicy] = None,
    *,
    host_id: Optional[str] = None,
    num_shards: int = 2,
    poll_s: float = 0.25,
    stale_after_s: float = 300.0,
    wait_timeout_s: Optional[float] = None,
) -> List[RunOutcome]:
    """Cooperate with other hosts on one experiment batch; merge everything.

    Every participating host calls this with the **same**
    ``experiment_ids`` and ``num_shards`` (and a shared
    ``REPRO_CACHE_DIR``).  Each host claims unclaimed shards and runs
    them through :func:`run_resilient`; when no claimable work remains
    it waits for the other hosts' done markers, stealing leases that
    exceed ``stale_after_s``.  Returns the full batch's outcomes in
    ``experiment_ids`` order — outcomes merged from another host's done
    marker come back with ``from_checkpoint=True``.

    Args:
        experiment_ids: ids from :data:`repro.experiments.ALL_EXPERIMENTS`.
        policy: per-shard supervision policy (jobs/timeout/retries).
        host_id: stable name for lease attribution; defaults to
            ``<hostname>-<pid>``.
        num_shards: total shard count the batch is split into.
        poll_s: sleep between checks while waiting on other hosts.
        stale_after_s: lease age after which a shard is presumed
            abandoned and stolen.
        wait_timeout_s: overall cap on waiting for remote shards;
            ``None`` waits indefinitely.

    Raises:
        ConfigurationError: unknown ids or invalid shard parameters
            (before any lease is taken).
        ExperimentError: ``wait_timeout_s`` elapsed with shards still
            outstanding.
    """
    ids = list(experiment_ids)
    if num_shards < 1:
        raise ConfigurationError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    if poll_s <= 0:
        raise ConfigurationError(f"poll_s must be positive, got {poll_s}")
    if stale_after_s <= 0:
        raise ConfigurationError(
            f"stale_after_s must be positive, got {stale_after_s}"
        )
    registry = experiment_registry()
    unknown = [eid for eid in ids if eid not in registry]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment ids: {', '.join(unknown)}"
        )
    if policy is None:
        policy = RunPolicy()
    host = host_id if host_id else default_host_id()
    batch_id = shard_batch_id(ids, num_shards)
    store = ShardStore(batch_id)
    tracer = current_tracer()

    # Shards this host ran *and* whose publish won: merged from memory so
    # their outcomes keep honest ``from_checkpoint`` flags.
    local: Dict[int, List[RunOutcome]] = {}

    def run_shard(index: int) -> None:
        members = shard_members(ids, index, num_shards)
        with tracer.span(
            "shard:run",
            category="shard",
            labels={
                "batch": batch_id,
                "shard": str(index),
                "host": host,
                "experiments": str(len(members)),
            },
        ):
            outcomes = run_resilient(members, policy) if members else []
            if store.publish(index, outcomes):
                local[index] = list(outcomes)

    # Pass 1 — claim-and-run everything nobody else has touched yet.
    for index in range(num_shards):
        if store.load_done(index) is not None:
            continue
        if store.try_claim(index, host):
            run_shard(index)

    # Pass 2 — wait for the stragglers, stealing leases that went stale.
    deadline = (
        None if wait_timeout_s is None else time.monotonic() + wait_timeout_s
    )
    while True:
        pending = [
            i for i in range(num_shards) if store.load_done(i) is None
        ]
        if not pending:
            break
        for index in pending:
            age = store.lease_age_s(index)
            if age is None:
                # No lease at all (e.g. a stealer died between unlink
                # and re-claim): claim it directly.
                if store.try_claim(index, host):
                    run_shard(index)
                continue
            if age < stale_after_s:
                continue
            if store.steal_lease(index) and store.try_claim(index, host):
                run_shard(index)
        if all(store.load_done(i) is not None for i in pending):
            continue  # re-check the full set before sleeping
        if deadline is not None and time.monotonic() >= deadline:
            missing = [
                i for i in range(num_shards) if store.load_done(i) is None
            ]
            raise ExperimentError(
                f"sharded batch {batch_id} timed out waiting for"
                f" shard(s) {missing} after {wait_timeout_s}s"
            )
        time.sleep(poll_s)

    # Merge: done markers carry every shard's outcomes; reassemble the
    # batch in input order and attribute remote work in the metrics.
    by_id: Dict[str, RunOutcome] = {}
    merged_remote = 0
    for index in range(num_shards):
        if index in local:
            outcomes: List[RunOutcome] = local[index]
        else:
            outcomes = store.load_done(index) or []
            merged_remote += len(outcomes)
        for outcome in outcomes:
            by_id[outcome.experiment_id] = outcome
    if merged_remote:
        REGISTRY.counter("shard.merged_remote").inc(merged_remote)
    missing_ids = [eid for eid in ids if eid not in by_id]
    if missing_ids:
        raise ExperimentError(
            f"sharded batch {batch_id} finished without outcomes for:"
            f" {', '.join(missing_ids)}"
        )
    return [by_id[eid] for eid in ids]


__all__ = [
    "ShardStore",
    "default_host_id",
    "run_sharded",
    "shard_batch_id",
    "shard_members",
]
