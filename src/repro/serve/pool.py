"""Supervised async worker pool: the repo's one spawn executor.

Cold serve requests and resilient experiment batches
(:func:`repro.experiments.runner.run_resilient`) both run here, in
``spawn`` worker processes, so a crashing computation cannot take down
the coordinator and CPU-heavy work does not stall its event loop.  The
pool takes its worker entry function at construction: serve keeps
:func:`~repro.serve.compute.pool_entry`, the runner passes
:func:`~repro.experiments.runner.experiment_entry`.  The supervision
policy is :class:`~repro.experiments.runner.RunPolicy` — timeout /
retries / capped exponential backoff — enforced *asynchronously*: an
attempt's timeout runs from its dispatch to a worker, and backoff is an
``await asyncio.sleep``, so one struggling job never blocks the others.

Each attempt reports ``ok``, ``failed`` or ``timeout``.  The pool owns
each worker directly (one duplex pipe + one reader thread per worker),
which buys what an executor cannot provide:

* **hung-worker reaping** — every dispatched task carries a deadline of
  ``timeout_s * grace_factor``; a worker still busy past it is killed
  (``SIGKILL`` — hung computations ignore polite signals) and replaced,
  so a wedged computation costs one worker-respawn, not a pool slot
  forever.  ``pool.worker_reaps`` / ``pool.worker_respawns`` count the
  churn, and a result arriving after its caller gave up is dropped and
  counted (``pool.late_results``), never delivered to the wrong caller;
* **crash self-healing** — a worker that dies mid-task (chaos
  ``worker_crash``, OOM kill) fails exactly the attempt it was running
  with its exit code, the worker is respawned, and the retry runs on a
  live worker (``pool.worker_crashes``);
* **graceful stop** — :meth:`WorkerPool.shutdown` sends idle workers a
  stop sentinel and waits for them to exit, so each worker's atexit
  hooks (the result cache's write-behind drain) run; only busy or
  unresponsive workers are killed.

``jobs=0`` selects *inline* mode — daemon worker threads in the
coordinator process — used by tests and tiny deployments.  Threads
cannot be killed, so a reaped inline worker is *abandoned* (it stays a
daemon thread until its computation returns, and its late result is
discarded) while a fresh thread takes over the slot: a hung attempt no
longer wedges inline mode forever.

The ``pool.workers`` gauge tracks live workers through every
transition: spawn, reap/respawn, and ``shutdown()`` (where it drops to
zero until the next ``run()`` recreates the pool).
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import RunOutcome, RunPolicy
from repro.obs.events import event_record
from repro.obs.metrics import REGISTRY
from repro.serve.compute import pool_entry
from repro.serve.schemas import ComputeRequest

#: A progress callback; receives serializable event dicts.
ProgressSink = Callable[[Dict[str, Any]], None]

#: A worker entry: ``entry(kind, spec) -> result``.  Spawn workers import
#: it by name, so it must be a module-level function.
Entry = Callable[[str, Dict[str, Any]], Any]

#: How far past ``timeout_s`` a busy worker may run before the reaper
#: kills and replaces it (callers have long since timed out and retried).
DEFAULT_GRACE_FACTOR = 2.0

#: How long ``shutdown()`` waits for stopped workers to exit (their
#: atexit cache drain included) before it kills them.
STOP_TIMEOUT_S = 5.0


def _noop_sink(record: Dict[str, Any]) -> None:
    pass


def _warm_message() -> Optional[Tuple[None, str, float]]:
    """Eagerly load the kernel backend; the ``warm`` report, or ``None``.

    Workers call this before serving (the cext build happens here, at
    pool start) so the first cold task does not pay the load; the time
    it took feeds the ``pool.worker_warm_ms`` gauge.
    """
    try:
        from repro.kernels import active_kernels

        started = time.perf_counter()
        active_kernels()
        return (None, "warm", (time.perf_counter() - started) * 1000.0)
    except Exception:
        return None  # a worker that cannot warm still serves (numpy fallback)


def _execute(entry: Entry, message) -> Tuple[int, str, Any]:
    """One task through ``entry``; any failure becomes a ``failed`` reply."""
    task_id, kind, spec = message
    try:
        return (task_id, "ok", entry(kind, spec))
    except BaseException as exc:
        return (task_id, "failed", str(exc) or exc.__class__.__name__)


def _spawn_worker_main(conn, entry: Entry) -> None:
    """One spawn worker's loop: ``(task_id, kind, spec)`` in, reply out.

    ``None`` (or a closed pipe) ends the loop; the process then exits
    normally, running its atexit hooks.
    """
    warm = _warm_message()
    if warm is not None:
        conn.send(warm)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        reply = _execute(entry, message)
        try:
            conn.send(reply)
        except (OSError, TypeError, ValueError):
            # An unserializable envelope must not kill the worker.
            try:
                conn.send((reply[0], "failed", "result not serializable"))
            except OSError:
                return


class _ProcessWorker:
    """One owned spawn process + the reader thread watching its pipe."""

    def __init__(self, worker_id: int, post, entry: Entry) -> None:
        self.id = worker_id
        self.busy_task: Optional[int] = None
        self.deadline: Optional[float] = None
        self.retired = False
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_spawn_worker_main,
            args=(child_conn, entry),
            daemon=True,
            name=f"repro-pool-worker-{worker_id}",
        )
        self.process.start()
        child_conn.close()
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(post,),
            daemon=True,
            name=f"repro-pool-reader-{worker_id}",
        )
        self._reader.start()

    def _read_loop(self, post) -> None:
        while True:
            try:
                payload = self._conn.recv()
            except (EOFError, OSError):
                break
            post(self, payload)
        try:  # the reader owns the coordinator end once the pipe is dead
            self._conn.close()
        except OSError:
            pass
        post(self, None)

    def submit(self, task_id: int, kind: str, spec: Dict[str, Any]) -> None:
        self._conn.send((task_id, kind, spec))

    def stop(self) -> None:
        """Ask the worker to exit after its current message loop turn."""
        try:
            self._conn.send(None)
        except (OSError, ValueError):
            pass  # already dead: join() reaps it

    def join(self, timeout: float) -> None:
        """Wait up to ``timeout`` for a stopped worker; kill it past that."""
        self.process.join(timeout)
        self.kill()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()  # SIGKILL: hung computations ignore terminate
            self.process.join(timeout=1.0)


class _ThreadWorker:
    """Inline-mode worker: a daemon thread that cannot be killed, only
    abandoned (marked retired; its eventual result is dropped as late)."""

    def __init__(self, worker_id: int, post, entry: Optional[Entry]) -> None:
        self.id = worker_id
        self.busy_task: Optional[int] = None
        self.deadline: Optional[float] = None
        self.retired = False
        self._post = post
        self._entry = entry
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(
            target=self._loop,
            daemon=True,
            name=f"repro-pool-inline-{worker_id}",
        )
        self._thread.start()

    def _loop(self) -> None:
        # Same eager warm-up as a spawn worker; the kernel load is
        # process-memoized, so only the first inline worker pays it.
        warm = _warm_message()
        if warm is not None:
            self._post(self, warm)
        while True:
            message = self._queue.get()
            if message is None:
                return
            # Module-global lookup on purpose: tests monkeypatch
            # ``repro.serve.pool.pool_entry``.
            self._post(self, _execute(self._entry or pool_entry, message))
            if self.retired:
                return

    def submit(self, task_id: int, kind: str, spec: Dict[str, Any]) -> None:
        self._queue.put((task_id, kind, spec))

    def kill(self) -> None:
        self._queue.put(None)  # unblock if idle; a busy thread is abandoned

    stop = kill

    def join(self, timeout: float) -> None:
        pass  # an in-process thread holds nothing a stop could lose


class WorkerPool:
    """Runs jobs on supervised workers under a :class:`RunPolicy`.

    Args:
        policy: timeout / retries / backoff for every job.
        jobs: worker count; ``0`` = one inline thread worker.
        grace_factor: a busy worker is reaped ``timeout_s *
            grace_factor`` after dispatch (``1`` kills it at the
            timeout).
        entry: the module-level worker function; ``None`` is serve's
            :func:`~repro.serve.compute.pool_entry`.
    """

    def __init__(
        self,
        policy: Optional[RunPolicy] = None,
        *,
        jobs: int = 2,
        grace_factor: float = DEFAULT_GRACE_FACTOR,
        entry: Optional[Entry] = None,
    ):
        if jobs < 0:
            raise ExperimentError(f"jobs must be >= 0, got {jobs}")
        if grace_factor < 1.0:
            raise ExperimentError(
                f"grace_factor must be >= 1, got {grace_factor}"
            )
        self.policy = policy or RunPolicy()
        self.jobs = jobs
        self.grace_factor = grace_factor
        self.entry = entry
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._workers: List[Any] = []
        self._idle: Deque[Any] = deque()
        self._waiters: Deque[asyncio.Future] = deque()
        self._pending: Dict[int, asyncio.Future] = {}
        self._abandoned: Set[int] = set()
        self._task_ids = itertools.count(1)
        self._worker_ids = itertools.count(1)
        self._reaper_task: Optional[asyncio.Task] = None
        self._reaper_wakeup: Optional[asyncio.Event] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def _ensure_started(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is not None and (
            self._loop is not loop or self._loop.is_closed()
        ):
            # Bound to a dead or different loop (tests run each request
            # through a fresh ``asyncio.run``): recycle onto this one.
            self._teardown()
        if self._loop is None:
            self._loop = loop
            self._closed = False
            for _ in range(max(1, self.jobs)):
                self._add_worker()
            self._reaper_wakeup = asyncio.Event()
            self._reaper_task = loop.create_task(self._reap_loop())

    def _add_worker(self):
        worker_id = next(self._worker_ids)
        if self.jobs == 0:
            worker = _ThreadWorker(worker_id, self._post_message, self.entry)
        else:
            worker = _ProcessWorker(
                worker_id, self._post_message, self.entry or pool_entry
            )
        self._workers.append(worker)
        self._idle.append(worker)
        REGISTRY.gauge("pool.workers").set(len(self._workers))
        self._grant_waiters()
        return worker

    def _teardown(self) -> None:
        """Stop idle workers gracefully, kill busy ones, drop to zero."""
        stopping = []
        for worker in self._workers:
            worker.retired = True
            if worker.busy_task is None:
                worker.stop()
                stopping.append(worker)
            else:
                worker.kill()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for worker in stopping:
            worker.join(max(0.0, deadline - time.monotonic()))
        self._workers.clear()
        self._idle.clear()
        for fut in list(self._pending.values()):
            if not fut.done():
                try:
                    fut.set_result(("failed", "pool shut down"))
                except Exception:
                    pass  # future bound to an already-closed loop
        self._pending.clear()
        self._abandoned.clear()
        for fut in list(self._waiters):
            try:
                fut.cancel()
            except Exception:
                pass
        self._waiters.clear()
        if self._reaper_task is not None:
            try:
                self._reaper_task.cancel()
            except Exception:
                pass
            self._reaper_task = None
        self._reaper_wakeup = None
        self._loop = None
        REGISTRY.gauge("pool.workers").set(0)

    def shutdown(self) -> None:
        """Stop every worker and drop to zero; the next run() recreates.

        Idle workers exit gracefully (within :data:`STOP_TIMEOUT_S`), so
        the cache entries they computed reach disk; busy or unresponsive
        workers are killed.  No worker process outlives the call.
        """
        self._closed = True
        self._teardown()

    # -- worker checkout -----------------------------------------------------

    async def _acquire(self):
        while True:
            while self._idle:
                worker = self._idle.popleft()
                if not worker.retired:
                    return worker
            fut = self._loop.create_future()
            self._waiters.append(fut)
            try:
                worker = await fut
            except asyncio.CancelledError:
                if fut in self._waiters:
                    self._waiters.remove(fut)
                elif fut.done() and not fut.cancelled():
                    self._release(fut.result())  # granted but never used
                raise
            if not worker.retired:
                return worker

    def _release(self, worker) -> None:
        if worker.retired:
            return
        worker.busy_task = None
        worker.deadline = None
        self._idle.append(worker)
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._waiters and self._idle:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_result(self._idle.popleft())

    # -- worker messages (reader threads -> event loop) ----------------------

    def _post_message(self, worker, payload) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._on_message, worker, payload)
        except RuntimeError:
            pass  # loop closed between the check and the call

    def _on_message(self, worker, payload) -> None:
        if payload is None:
            # Pipe EOF: the worker process died (crash, OOM, or our kill).
            if not worker.retired:
                # It is exiting; reap it here (never on the reader
                # thread: two waiters race) to learn its exit code.
                worker.process.join(timeout=1.0)
                REGISTRY.counter("pool.worker_crashes").inc()
                self._retire(worker, (
                    "failed",
                    "worker died without a result"
                    f" (exitcode {worker.process.exitcode})",
                ))
            return
        task_id, status, data = payload
        if status == "warm":
            # Pool-start kernel preload report.  The worker was never
            # checked out for this message, so do NOT release it — that
            # would enqueue an idle worker twice.
            REGISTRY.gauge("pool.worker_warm_ms").set(data)
            return
        fut = self._pending.pop(task_id, None)
        if fut is not None:
            if not fut.done():
                fut.set_result((status, data))
        elif task_id in self._abandoned:
            self._abandoned.discard(task_id)
            REGISTRY.counter("pool.late_results").inc()
        if not worker.retired:
            self._release(worker)

    def _retire(self, worker, report: Tuple[str, str]) -> None:
        """Remove + kill one worker, failing its in-flight task; respawn."""
        if worker.retired:
            return
        worker.retired = True
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            self._idle.remove(worker)
        except ValueError:
            pass
        task_id = worker.busy_task
        if task_id is not None:
            if isinstance(worker, _ProcessWorker):
                # SIGKILL means no late reply can ever arrive; an
                # abandoned *thread* may still post one (counted late).
                self._abandoned.discard(task_id)
            fut = self._pending.pop(task_id, None)
            if fut is not None and not fut.done():
                fut.set_result(report)
        worker.kill()
        REGISTRY.gauge("pool.workers").set(len(self._workers))
        if not self._closed and self._loop is not None:
            self._add_worker()
            REGISTRY.counter("pool.worker_respawns").inc()

    # -- the hung-worker reaper ----------------------------------------------

    def _timeout_report(self) -> Tuple[str, str]:
        return ("timeout", f"exceeded {self.policy.timeout_s}s wall clock")

    async def _reap_loop(self) -> None:
        while True:
            self._reaper_wakeup.clear()
            deadlines = [
                worker.deadline
                for worker in self._workers
                if worker.deadline is not None
            ]
            if not deadlines:
                await self._reaper_wakeup.wait()
                continue
            wait_s = min(deadlines) - time.monotonic()
            if wait_s > 0:
                try:
                    await asyncio.wait_for(
                        self._reaper_wakeup.wait(), timeout=wait_s
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            now = time.monotonic()
            for worker in list(self._workers):
                if worker.deadline is not None and worker.deadline <= now:
                    REGISTRY.counter("pool.worker_reaps").inc()
                    # With grace_factor 1 the reap can beat the caller's
                    # own timer; either way the attempt timed out.
                    self._retire(worker, self._timeout_report())

    # -- execution -----------------------------------------------------------

    def _abandon(self, task_id: int) -> None:
        if self._pending.pop(task_id, None) is not None:
            self._abandoned.add(task_id)

    async def _attempt(
        self, request: ComputeRequest, attempt: int, progress: ProgressSink
    ) -> Tuple[str, Any]:
        """One dispatch: checkout, submit, await the worker's reply.

        Returns ``(status, data)`` with status ``ok``/``failed``/
        ``timeout`` — never raises for a worker-side failure, so the
        retry loop above stays in control.  The timeout runs from the
        dispatch; a timed-out (or cancelled) task is abandoned: the
        worker stays busy until its reply or its reaper deadline,
        whichever comes first.
        """
        worker = await self._acquire()
        REGISTRY.counter("pool.attempts", kind=request.kind).inc()
        progress(
            event_record(
                "attempt", "serve",
                {"attempt": str(attempt), "label": request.label},
            )
        )
        task_id = next(self._task_ids)
        fut = self._loop.create_future()
        self._pending[task_id] = fut
        worker.busy_task = task_id
        if self.policy.timeout_s is not None:  # no timeout -> no reaping
            worker.deadline = (
                time.monotonic() + self.policy.timeout_s * self.grace_factor
            )
            self._reaper_wakeup.set()
        try:
            worker.submit(task_id, request.kind, request.spec)
        except (OSError, ValueError) as exc:
            self._pending.pop(task_id, None)
            REGISTRY.counter("pool.worker_crashes").inc()
            self._retire(worker, ("failed", f"submit failed: {exc}"))
            return ("failed", f"submit failed: {exc}")
        try:
            return await asyncio.wait_for(fut, self.policy.timeout_s)
        except asyncio.TimeoutError:
            self._abandon(task_id)
            return self._timeout_report()
        except asyncio.CancelledError:
            self._abandon(task_id)
            raise

    async def supervise(
        self,
        request: ComputeRequest,
        progress: Optional[ProgressSink] = None,
    ) -> RunOutcome:
        """One job through the pool: attempts, timeout, async backoff.

        Never raises for a worker-side failure.  The outcome carries the
        request label as its id, the entry's return value when ``ok``,
        and otherwise the last attempt's status plus one ``attempt N:
        [status] detail`` line per failed attempt.
        """
        progress = progress or _noop_sink
        self._ensure_started()
        errors = []
        for attempt in range(1, self.policy.retries + 2):
            status, data = await self._attempt(request, attempt, progress)
            if status == "ok":
                return RunOutcome(
                    request.label, "ok", result=data, attempts=attempt
                )
            errors.append(f"attempt {attempt}: [{status}] {data}")
            if status == "timeout":
                REGISTRY.counter("pool.timeouts", kind=request.kind).inc()
            else:
                REGISTRY.counter("pool.failures", kind=request.kind).inc()
            progress(
                event_record(
                    "timeout" if status == "timeout" else "attempt-failed",
                    "serve",
                    {"attempt": str(attempt), "label": request.label},
                )
            )
            if attempt <= self.policy.retries:
                delay = self.policy.retry_delay(attempt)
                REGISTRY.counter("pool.retries", kind=request.kind).inc()
                progress(
                    event_record(
                        "retry-scheduled", "serve",
                        {"delay_s": f"{delay:.3f}", "label": request.label},
                    )
                )
                await asyncio.sleep(delay)
        return RunOutcome(
            request.label, status, error="\n".join(errors), attempts=attempt
        )

    async def run(
        self,
        request: ComputeRequest,
        progress: Optional[ProgressSink] = None,
    ) -> Dict[str, Any]:
        """One serve request through :meth:`supervise`.

        Returns the worker envelope ``{"result": ..., "spans": [...]}``.
        Raises :class:`ExperimentError` when every attempt failed or
        timed out (the HTTP layer maps it to a 500).
        """
        outcome = await self.supervise(request, progress)
        if not outcome.ok:
            raise ExperimentError(
                f"{request.label} failed after {outcome.attempts}"
                " attempt(s):\n" + outcome.error
            )
        return outcome.result
