"""Cross-request dynamic batching: fuse compatible cold requests.

The :class:`~repro.serve.coalescer.Coalescer` collapses *identical*
in-flight requests; this scheduler generalizes it to *compatible* ones —
same kind and network (and arch), different dims/grid points, exactly
the axes :func:`repro.experiments.common.evaluate_sweep` and the batched
SoA engine consume in one shot.  Batching is off by default
(``window_ms == 0``): every cold request dispatches at once, because a
hold only pays when compatible requests arrive inside it, and traffic
that leaves workers idle pays it for nothing.  With ``window_ms > 0``
a cold request that misses the cache
parks in a pending batch for up to ``window_ms``; requests arriving
inside the window join it, and when the window closes (or the batch
reaches ``max_batch`` members) the whole group ships to the worker pool
as ONE fused ``batch`` task.  The worker evaluates the union of the
members' points once and rebuilds every member's singleton payload
(:func:`repro.serve.compute._exec_batch`), which the scheduler fans back
to each waiter.  Each member's own serve-path leader then publishes its
point to the content-addressed cache individually, so future singleton
requests still hit.

Failure containment: the fused dispatch runs under the worker pool's
full retry/timeout policy, so a batch-leader crash (chaos
``worker_crash``) is usually retried invisibly.  If the fused dispatch
exhausts its attempts anyway, the scheduler *fails over* to per-member
singleton dispatches (``serve.batch_failovers``) — a poisoned or
unlucky batch degrades to the unbatched path instead of failing every
waiter.  :meth:`BatchScheduler.shutdown` (called by
``ServeApp.shutdown``) fails every batch that has not dispatched yet with
"pool shut down", as a request on a stopped worker fails, so a window
that closes after the shutdown never restarts the stopped pool.

Counters: ``serve.batches`` (fused dispatches), ``serve.batched{kind}``
(requests served via a fused dispatch), ``serve.batch_failovers``, plus
the ``serve.batch_size`` histogram.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.cache import hash_payload
from repro.errors import ExperimentError
from repro.obs.metrics import REGISTRY
from repro.serve.pool import ProgressSink
from repro.serve.schemas import ComputeRequest

#: Kinds whose requests can fuse: their specs differ only along axes one
#: ``evaluate_sweep`` call spans.  ``map``/``dse_per_layer`` run whole
#: per-network searches with no shared sweep axis, so they stay singleton.
BATCHABLE_KINDS = frozenset({"dse", "simulate"})

#: An app-level dispatch: one request through breakerless pool execution.
Dispatch = Callable[[ComputeRequest, ProgressSink], Awaitable[Dict[str, Any]]]


@dataclass(frozen=True)
class BatchPolicy:
    """Batching knobs (CLI: ``--batch-window-ms`` / ``--batch-max``).

    ``window_ms`` is how long a batch stays open for compatible requests
    and ``max_batch`` caps its members; ``window_ms == 0`` (the default)
    or ``max_batch == 1`` turns batching off.
    """

    window_ms: float = 0.0
    max_batch: int = 16

    def __post_init__(self) -> None:
        # A NaN window would turn batching off without a word, an
        # infinite one hold a lone request until ``max_batch`` arrive.
        if not (math.isfinite(self.window_ms) and self.window_ms >= 0):
            raise ExperimentError(
                f"window_ms must be >= 0 and finite, got {self.window_ms}"
            )
        if self.max_batch < 1:
            raise ExperimentError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )

    @property
    def enabled(self) -> bool:
        return self.window_ms > 0 and self.max_batch > 1


def compatibility_key(request: ComputeRequest) -> Tuple[Any, ...]:
    """The axis requests must share to fuse: kind + network (+ arch)."""
    spec = request.spec
    network = (
        ("workload", spec["workload"])
        if "workload" in spec
        else ("source", spec["source"])
    )
    if request.kind == "simulate":
        return ("simulate", network, spec["arch"])
    return (request.kind, network)


def fuse_requests(requests: List[ComputeRequest]) -> ComputeRequest:
    """One ``batch``-kind request carrying every member's spec."""
    first = requests[0]
    return ComputeRequest(
        kind="batch",
        spec={"kind": first.kind, "members": [r.spec for r in requests]},
        key=hash_payload(
            "serve.batch",
            {"kind": first.kind, "keys": [r.key for r in requests]},
        ),
        label=f"batch:{first.kind}x{len(requests)}",
    )


class _PendingBatch:
    """One open batch: members accumulate until sealed."""

    __slots__ = ("members", "sealed", "closed", "epoch")

    def __init__(self, epoch: int) -> None:
        self.members: List[
            Tuple[ComputeRequest, ProgressSink, asyncio.Future]
        ] = []
        self.sealed = asyncio.Event()
        self.closed = False
        #: The scheduler's shutdown count when the batch opened.
        self.epoch = epoch


class BatchScheduler:
    """Groups compatible cold requests into fused pool dispatches."""

    def __init__(self, policy: BatchPolicy, dispatch: Dispatch) -> None:
        self.policy = policy
        self._dispatch = dispatch
        self._pending: Dict[Tuple[Any, ...], _PendingBatch] = {}
        self._epoch = 0

    def shutdown(self) -> None:
        """Fail every batch not yet dispatched, now rather than when its
        window closes; batches opened afterwards dispatch as usual."""
        self._epoch += 1
        for key, batch in list(self._pending.items()):
            self._seal(key, batch)

    async def submit(
        self, request: ComputeRequest, progress: ProgressSink
    ) -> Dict[str, Any]:
        """One cache-missed request to its worker envelope.

        Batchable kinds park in a pending batch; everything else (and
        everything when batching is off) dispatches immediately.
        """
        if not self.policy.enabled or request.kind not in BATCHABLE_KINDS:
            return await self._dispatch(request, progress)
        key = compatibility_key(request)
        batch = self._pending.get(key)
        future = asyncio.get_running_loop().create_future()
        if batch is None or batch.closed:
            batch = _PendingBatch(self._epoch)
            self._pending[key] = batch
            batch.members.append((request, progress, future))
            # The batch's own detached task closes the window; every
            # member (including the first) just awaits its future.
            asyncio.get_running_loop().create_task(self._lead(key, batch))
        else:
            batch.members.append((request, progress, future))
            if len(batch.members) >= self.policy.max_batch:
                self._seal(key, batch)
        return await future

    # -- internals ------------------------------------------------------------

    def _seal(self, key: Tuple[Any, ...], batch: _PendingBatch) -> None:
        """Close the batch to new members (idempotent, loop-synchronous)."""
        if batch.closed:
            return
        batch.closed = True
        if self._pending.get(key) is batch:
            del self._pending[key]
        batch.sealed.set()

    async def _lead(self, key: Tuple[Any, ...], batch: _PendingBatch) -> None:
        try:
            await asyncio.wait_for(
                batch.sealed.wait(), timeout=self.policy.window_ms / 1000.0
            )
        except asyncio.TimeoutError:
            pass
        self._seal(key, batch)
        members = batch.members
        if batch.epoch != self._epoch:
            # Shut down while the window was open: dispatching now would
            # restart the stopped pool.
            for request, _, future in members:
                if not future.done():
                    future.set_exception(
                        ExperimentError(f"{request.label}: pool shut down")
                    )
                    future.exception()  # retrieved: the waiter may be gone
            return
        if len(members) == 1:
            # A batch of one is just a singleton: no fusion overhead,
            # no batch counters — the window cost was the only price.
            await self._settle_singleton(members[0])
            return
        fused = fuse_requests([request for request, _, _ in members])
        kind = members[0][0].kind
        REGISTRY.counter("serve.batches", kind=kind).inc()
        REGISTRY.counter("serve.batched", kind=kind).inc(len(members))
        REGISTRY.histogram("serve.batch_size").observe(len(members))

        def fanout(record: Dict[str, Any]) -> None:
            for _, sink, _ in members:
                sink(record)

        results: Optional[List[Any]] = None
        try:
            envelope = await self._dispatch(fused, fanout)
            candidate = (envelope.get("result") or {}).get("results")
            if isinstance(candidate, list) and len(candidate) == len(members):
                results = candidate
                # Every member would otherwise carry the whole fused
                # sweep's per-point spans; keep the sweep-level rollup
                # only so fan-out encoding stays O(members), not
                # O(members x union points).
                spans = [
                    span
                    for span in envelope.get("spans") or []
                    if span.get("category") == "sweep"
                ]
        except asyncio.CancelledError:
            for _, _, future in members:
                if not future.done():
                    future.cancel()
            raise
        except Exception:
            pass
        if results is None:
            # The fused dispatch already burned its retries (or answered
            # malformed); give every member its own unbatched attempt
            # rather than failing all of them together.
            REGISTRY.counter("serve.batch_failovers", kind=kind).inc()
            await asyncio.gather(
                *(self._settle_singleton(member) for member in members)
            )
            return
        for (request, _, future), result in zip(members, results):
            if not future.done():
                future.set_result({"result": result, "spans": spans})

    async def _settle_singleton(
        self, member: Tuple[ComputeRequest, ProgressSink, asyncio.Future]
    ) -> None:
        request, progress, future = member
        try:
            envelope = await self._dispatch(request, progress)
        except asyncio.CancelledError:
            if not future.done():
                future.cancel()
            raise
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # retrieved: the waiter may be gone
        else:
            if not future.done():
                future.set_result(envelope)
