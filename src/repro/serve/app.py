"""The asyncio HTTP service: routing, coalescing, SSE progress, metrics.

Stdlib only: a deliberately small HTTP/1.1 server on ``asyncio`` streams
(keep-alive supported, bodies bounded, malformed input answered with
JSON errors).  Endpoints:

* ``POST /v1/map`` / ``/v1/simulate`` / ``/v1/dse`` /
  ``/v1/dse_per_layer`` — one computation; append ``?stream=1`` for a
  ``text/event-stream`` progress feed;
* ``POST /v1/sweep`` — a batch of points sharded across the worker pool;
* ``GET /metrics`` — the process :data:`~repro.obs.metrics.REGISTRY`
  snapshot as JSON;
* ``GET /healthz`` — health state machine (``ok`` / ``degraded`` /
  ``draining``, with reasons), derived by the resilience layer;
* ``POST /drain`` — graceful shutdown: stop accepting, finish in-flight
  work within the drain deadline, flush metrics, exit (SIGTERM does the
  same).

Request flow for a computation: validate → admission control (shed with
a fast 503 + ``Retry-After`` when the pending budget for the kind is
exhausted, or while draining) → coalesce on the content-addressed key
(one leader, N waiters) → leader probes the persistent ``serve`` cache
section → on miss, pass the circuit breaker (open = fast 503) → the
batch scheduler (:mod:`repro.serve.batcher`; off by default, with
``--batch-window-ms`` > 0 compatible ``dse``/``simulate`` requests wait
that long and fuse into one dispatch) → compute in the worker pool
under the run policy → publish to the cache (write-behind) → resolve
every waiter.  See ``docs/RESILIENCE.md`` and ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.cache import active_cache
from repro.errors import ConfigurationError, ReproError, SpecificationError
from repro.experiments.records import RunPolicy
from repro.obs.events import event_record
from repro.obs.metrics import REGISTRY
from repro.serve.batcher import BatchPolicy, BatchScheduler
from repro.serve.coalescer import Coalescer
from repro.serve.pool import ProgressSink, WorkerPool, _noop_sink
from repro.serve.resilience import (
    CircuitOpenError,
    DrainingError,
    OverloadedError,
    ResiliencePolicy,
    ServeResilience,
)
from repro.serve.schemas import ComputeRequest, parse_request, parse_sweep

#: Input bounds: one request line, its headers, and its body.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADERS = 100
MAX_BODY = 2 * 1024 * 1024

#: Idle keep-alive connections are closed after this many seconds.
IDLE_TIMEOUT_S = 60.0

#: Hot-response entries retained (LRU): pre-encoded cache-hit response
#: bytes keyed by the raw request body, validated against the memory
#: tier's payload digest on every hit.
HOT_RESPONSES_MAX = 512

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    """A malformed request that still deserves a well-formed response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _swallow_outcome(task: "asyncio.Task") -> None:
    """Consume a detached task's result so nothing logs it as unretrieved."""
    if not task.cancelled():
        task.exception()


class ServeApp:
    """One service instance: coalescer + worker pool + HTTP handlers."""

    def __init__(
        self,
        policy: Optional[RunPolicy] = None,
        *,
        jobs: int = 2,
        resilience: Optional[ResiliencePolicy] = None,
        batching: Optional[BatchPolicy] = None,
    ) -> None:
        self.coalescer = Coalescer()
        self.resilience = ServeResilience(resilience or ResiliencePolicy())
        self.pool = WorkerPool(
            policy, jobs=jobs,
            grace_factor=self.resilience.policy.grace_factor,
        )
        self.batcher = BatchScheduler(
            batching or BatchPolicy(), self._dispatch
        )
        # Raw body bytes -> (kind, serve key, payload digest, response
        # body bytes): the warm fast path.  Event-loop-only access.
        self._hot_responses: "OrderedDict[Tuple[str, bytes], Tuple[str, str, bytes]]" = (
            OrderedDict()
        )
        self.drained = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        """Bind and return the listening server (port 0 = ephemeral)."""
        return await asyncio.start_server(self._handle_connection, host, port)

    def shutdown(self) -> None:
        self.batcher.shutdown()
        self.pool.shutdown()

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; SIGTERM / ``POST /drain``).

        New requests are refused from this instant; a background task
        waits (up to ``drain_timeout_s``) for in-flight work, flushes a
        metrics summary, shuts the pool down, and sets :attr:`drained`,
        which :func:`run_app` watches to exit.
        """
        if self._drain_task is None:
            self.resilience.begin_drain()
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def _drain(self) -> None:
        policy = self.resilience.policy
        deadline = time.monotonic() + policy.drain_timeout_s
        while self.resilience.total_pending() and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        abandoned = self.resilience.total_pending()
        served = sum(
            value for name, value in REGISTRY.snapshot().items()
            if name.startswith("serve.responses")
            and isinstance(value, (int, float))
        )
        print(
            f"drain complete: {served} responses served,"
            f" {abandoned} request(s) abandoned at the deadline",
            file=sys.stderr,
        )
        self.shutdown()
        self.drained.set()

    # -- request flow --------------------------------------------------------

    async def serve_request(
        self,
        request: ComputeRequest,
        progress: Optional[ProgressSink] = None,
    ) -> Dict[str, Any]:
        """Compute (or coalesce, or cache-hit) one request to a response."""
        progress = progress or _noop_sink
        REGISTRY.counter("serve.requests", kind=request.kind).inc()
        self.resilience.enter(request.kind)  # shed/draining raise here
        try:
            return await self._serve_admitted(request, progress)
        finally:
            self.resilience.exit(request.kind)

    async def _dispatch(
        self, request: ComputeRequest, progress: ProgressSink
    ) -> Dict[str, Any]:
        """One actual pool execution (singleton or fused batch).

        This is the only path that bumps ``serve.backend_computations``,
        so the counter measures real backend dispatches: N coalesced
        waiters count once, and K batched requests count once under
        ``kind="batch"``.
        """
        REGISTRY.counter(
            "serve.backend_computations", kind=request.kind
        ).inc()
        progress(
            event_record("scheduled", "serve", {"label": request.label})
        )
        return await self.pool.run(request, progress)

    async def _serve_admitted(
        self, request: ComputeRequest, progress: ProgressSink
    ) -> Dict[str, Any]:
        async def leader() -> Dict[str, Any]:
            cache = active_cache()
            if cache is not None:
                stored = cache.get("serve", request.key)
                if stored is not None:
                    REGISTRY.counter("serve.results", source="cache").inc()
                    progress(
                        event_record("cache-hit", "serve",
                                     {"key": request.key})
                    )
                    return {"source": "cache", "result": stored, "spans": []}
            # The breaker gates backend computations only — cache hits
            # stay served while a failing backend cools off.  Each
            # member of a fused batch passes (and scores) its own kind's
            # breaker, so batching never launders backend failures.
            breaker = self.resilience.breaker(request.kind)
            breaker.acquire()
            try:
                envelope = await self.batcher.submit(request, progress)
            except asyncio.CancelledError:
                breaker.abort()  # no verdict from a cancelled attempt
                raise
            except Exception:
                breaker.record_failure()
                raise
            breaker.record_success()
            if cache is not None:
                # Every point lands under its own content-addressed key
                # — batched or not — so future singletons still hit.
                # Write-behind: the disk write runs on the cache's flush
                # thread, not the event loop; the entry is in the memory
                # tier on return, so a repeat is a memory hit.
                cache.put_behind("serve", request.key, envelope["result"])
            REGISTRY.counter("serve.results", source="computed").inc()
            return {"source": "computed", **envelope}

        payload, coalesced = await self.coalescer.get_or_compute(
            request.key, leader, kind=request.kind
        )
        response = {"kind": request.kind, "key": request.key, **payload}
        if coalesced:
            REGISTRY.counter("serve.results", source="coalesced").inc()
            response["source"] = "coalesced"
        return response

    async def _serve_sweep(self, body: Any) -> Dict[str, Any]:
        requests = parse_sweep(body)
        REGISTRY.counter("serve.requests", kind="sweep").inc()
        settled = await asyncio.gather(
            *(self.serve_request(req) for req in requests),
            return_exceptions=True,
        )
        points: List[Dict[str, Any]] = []
        errors = 0
        for req, outcome in zip(requests, settled):
            if isinstance(outcome, BaseException):
                errors += 1
                points.append(
                    {"kind": req.kind, "key": req.key, "error": str(outcome)}
                )
            else:
                outcome.pop("spans", None)  # batch responses stay compact
                points.append(outcome)
        return {"points": points, "errors": errors}

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await asyncio.wait_for(
                        self._read_request(reader), timeout=IDLE_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    break
                except _HttpError as exc:
                    await self._write_json(
                        writer, exc.status, {"error": str(exc)},
                        keep_alive=False,
                    )
                    break
                if parsed is None:
                    break
                keep_alive = await self._respond(parsed, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, List[str]], Dict[str, str], bytes]]:
        """One parsed request, or ``None`` on a clean EOF between requests."""
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _HttpError(400, "truncated request line") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(400, "request line too long") from exc
        if len(line) > MAX_REQUEST_LINE:
            raise _HttpError(400, "request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line {line!r}")
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            raw = await reader.readuntil(b"\n")
            if raw in (b"\r\n", b"\n"):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header {raw!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0 or length > MAX_BODY:
            raise _HttpError(413, f"body exceeds {MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        path, _, query_string = target.partition("?")
        return method, path, parse_qs(query_string), headers, body

    async def _respond(self, parsed, writer: asyncio.StreamWriter) -> bool:
        method, path, query, headers, body = parsed
        keep_alive = headers.get("connection", "").lower() != "close"
        try:
            if path == "/healthz":
                if method != "GET":
                    raise _HttpError(405, "use GET")
                status, payload = self.resilience.health()
                await self._write_json(
                    writer, status, payload, keep_alive=keep_alive
                )
                return keep_alive
            if path == "/drain":
                if method != "POST":
                    raise _HttpError(405, "use POST")
                await self._write_json(
                    writer, 200, {"status": "draining"}, keep_alive=False
                )
                self.request_drain()  # after responding: the ack must land
                return False
            if path == "/metrics":
                if method != "GET":
                    raise _HttpError(405, "use GET")
                await self._write_json(
                    writer, 200, {"metrics": REGISTRY.snapshot()},
                    keep_alive=keep_alive,
                )
                return keep_alive
            if path in (
                "/v1/map", "/v1/simulate", "/v1/dse", "/v1/dse_per_layer"
            ):
                if method != "POST":
                    raise _HttpError(405, "use POST")
                kind = path.rsplit("/", 1)[1]
                streaming = query.get("stream", ["0"])[-1] in ("1", "true")
                if not streaming and await self._serve_hot(
                    kind, body, writer, keep_alive=keep_alive
                ):
                    return keep_alive
                request = parse_request(kind, self._decode_body(body))
                if streaming:
                    await self._respond_sse(writer, request)
                    return False  # SSE responses close the connection
                payload = await self.serve_request(request)
                encoded = json.dumps(payload).encode("utf-8")
                if payload.get("source") == "cache":
                    self._hot_store(kind, body, request.key, encoded)
                await self._write_raw(
                    writer, 200, encoded, keep_alive=keep_alive
                )
                return keep_alive
            if path == "/v1/sweep":
                if method != "POST":
                    raise _HttpError(405, "use POST")
                payload = await self._serve_sweep(self._decode_body(body))
                await self._write_json(
                    writer, 200, payload, keep_alive=keep_alive
                )
                return keep_alive
            raise _HttpError(404, f"no route for {path}")
        except _HttpError as exc:
            await self._write_json(
                writer, exc.status, {"error": str(exc)}, keep_alive=keep_alive
            )
            return keep_alive
        except (SpecificationError, ConfigurationError) as exc:
            # Validation failures are the client's fault: 400.  Other
            # ReproErrors (e.g. an exhausted worker pool) fall through
            # to the 500 handler below — the request was well-formed.
            await self._write_json(
                writer, 400, {"error": str(exc)}, keep_alive=keep_alive
            )
            return keep_alive
        except (OverloadedError, CircuitOpenError, DrainingError) as exc:
            # Deliberate fast failures: the service is protecting itself.
            # 503 + Retry-After tells a well-behaved client when to come
            # back; the connection stays usable.
            await self._write_json(
                writer, 503, {"error": str(exc)}, keep_alive=keep_alive,
                extra_headers={
                    "Retry-After": str(max(1, round(exc.retry_after_s)))
                },
            )
            return keep_alive
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:  # a served bug must answer, not hang
            await self._write_json(
                writer, 500, {"error": f"internal error: {exc}"},
                keep_alive=False,
            )
            return False

    # -- the hot response path -----------------------------------------------

    async def _serve_hot(
        self, kind: str, body: bytes, writer: asyncio.StreamWriter,
        *, keep_alive: bool,
    ) -> bool:
        """Replay a pre-encoded cache-hit response for a repeated body.

        The stored bytes were produced by a normal cache-hit response for
        this exact body, and are replayed only while the memory tier
        still holds the same payload (digest match) — a quarantined,
        evicted, or replaced cache entry silently falls back to the full
        path.  Skips body parsing, key hashing, coalescing, and response
        encoding: the sub-millisecond warm path.
        """
        hot_key = (kind, body)
        entry = self._hot_responses.get(hot_key)
        if entry is None:
            return False
        serve_key, digest, encoded = entry
        cache = active_cache()
        if cache is None or cache.mem.digest("serve", serve_key) != digest:
            self._hot_responses.pop(hot_key, None)
            return False
        self._hot_responses.move_to_end(hot_key)
        REGISTRY.counter("serve.requests", kind=kind).inc()
        self.resilience.enter(kind)  # draining/shed still refuse here
        try:
            REGISTRY.counter("serve.results", source="cache").inc()
            REGISTRY.counter("serve.hot_path", kind=kind).inc()
            await self._write_raw(writer, 200, encoded, keep_alive=keep_alive)
        finally:
            self.resilience.exit(kind)
        return True

    def _hot_store(
        self, kind: str, body: bytes, serve_key: str, encoded: bytes
    ) -> None:
        cache = active_cache()
        if cache is None:
            return
        digest = cache.mem.digest("serve", serve_key)
        if digest is None:
            return  # tier disabled (or entry already evicted): no hot path
        self._hot_responses[(kind, body)] = (serve_key, digest, encoded)
        while len(self._hot_responses) > HOT_RESPONSES_MAX:
            self._hot_responses.popitem(last=False)

    @staticmethod
    def _decode_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc

    @classmethod
    async def _write_json(
        cls,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        await cls._write_raw(
            writer, status, json.dumps(payload).encode("utf-8"),
            keep_alive=keep_alive, extra_headers=extra_headers,
        )

    @staticmethod
    async def _write_raw(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        connection = "keep-alive" if keep_alive else "close"
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {connection}\r\n\r\n"
        )
        REGISTRY.counter("serve.responses", code=str(status)).inc()
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- SSE streaming -------------------------------------------------------

    async def _respond_sse(
        self, writer: asyncio.StreamWriter, request: ComputeRequest
    ) -> None:
        """Stream progress events, then the final result, then close."""
        REGISTRY.counter("serve.responses", code="200").inc()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        queue: asyncio.Queue = asyncio.Queue()
        task = asyncio.create_task(
            self.serve_request(request, queue.put_nowait)
        )
        try:
            while not task.done():
                getter = asyncio.create_task(queue.get())
                await asyncio.wait(
                    {getter, task}, return_when=asyncio.FIRST_COMPLETED
                )
                if getter.done():
                    await self._write_sse(writer, "progress", getter.result())
                else:
                    getter.cancel()
            while not queue.empty():
                await self._write_sse(writer, "progress", queue.get_nowait())
            try:
                payload = task.result()
            except ReproError as exc:
                await self._write_sse(writer, "error", {"error": str(exc)})
                return
            except Exception as exc:
                await self._write_sse(
                    writer, "error", {"error": f"internal error: {exc}"}
                )
                return
            for span in payload.get("spans") or []:
                await self._write_sse(writer, "progress", span)
            await self._write_sse(writer, "result", payload)
        finally:
            if not task.done():
                # The client went away (or this handler died) while the
                # computation is in flight.  Do NOT cancel it: the leader
                # may be feeding coalesced waiters, and its result still
                # warms the cache.  Detach and swallow the outcome.
                REGISTRY.counter("serve.stream_disconnects").inc()
                task.add_done_callback(_swallow_outcome)

    @staticmethod
    async def _write_sse(
        writer: asyncio.StreamWriter, event: str, data: Dict[str, Any]
    ) -> None:
        writer.write(
            f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")
        )
        await writer.drain()


async def run_app(
    app: ServeApp, host: str, port: int, *, ready_message: bool = True
) -> None:
    """Bind, announce, serve until cancelled or drained (the CLI entry).

    SIGTERM triggers the same graceful drain as ``POST /drain``: stop
    accepting, let in-flight work finish (bounded by the drain
    deadline), then return — so ``kill <pid>`` on a busy server loses no
    admitted request and exits 0.
    """
    server = await app.start(host, port)
    bound = server.sockets[0].getsockname()
    if ready_message:
        print(f"serving on http://{bound[0]}:{bound[1]}", flush=True)
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, app.request_drain)
        sigterm_installed = True
    except (NotImplementedError, RuntimeError):
        sigterm_installed = False  # non-Unix loops / nested loops
    try:
        async with server:
            serving = asyncio.ensure_future(server.serve_forever())
            drained = asyncio.ensure_future(app.drained.wait())
            done, pending = await asyncio.wait(
                {serving, drained}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            for task in pending:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            for task in done:  # surface serve_forever errors, if any
                if task is serving and not task.cancelled():
                    task.exception()
    finally:
        if sigterm_installed:
            loop.remove_signal_handler(signal.SIGTERM)
