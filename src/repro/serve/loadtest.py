"""Client, boot and readout helpers for driving a serve instance.

* :class:`ServeClient` — a tiny blocking HTTP client (stdlib
  ``http.client``) for one connection; tests, CI, the benchmarks and
  perfbench all talk to the service through it;
* :func:`start_server` — boot ``repro serve`` as a subprocess on an
  ephemeral port and wait for readiness;
* :func:`metric_total` and :func:`percentile` — read a ``/metrics``
  snapshot and summarize latencies.

The measurement protocols built on them live with the benchmarks:
``benchmarks/bench_serve.py`` (the load test and the serving fast path)
and ``benchmarks/bench_chaos.py`` (the chaos drill).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ExperimentError

#: The ready line ``repro serve`` prints once bound.
_READY_RE = re.compile(r"serving on http://([0-9.]+):(\d+)")


class ServeClient:
    """One keep-alive connection to a serve instance."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8787, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Response headers of the last completed request (lower-cased
        #: names) — how callers read ``retry-after`` off a 503.
        self.last_headers: Dict[str, str] = {}
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, Any]:
        """One request; returns ``(status, decoded JSON body)``."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            conn = self._connection()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            # One reconnect: the server may have idled out the keep-alive.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        self.last_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        try:
            decoded = json.loads(raw) if raw else None
        except ValueError:
            decoded = {"raw": raw.decode("utf-8", "replace")}
        return response.status, decoded

    def get(self, path: str) -> Tuple[int, Any]:
        return self.request("GET", path)

    def post(self, path: str, body: Any) -> Tuple[int, Any]:
        return self.request("POST", path, body)

    def healthz(self) -> bool:
        try:
            status, body = self.get("/healthz")
        except OSError:
            return False
        return status == 200 and isinstance(body, dict)

    def metrics(self) -> Dict[str, Any]:
        status, body = self.get("/metrics")
        if status != 200:
            raise ExperimentError(f"/metrics answered {status}: {body}")
        return body["metrics"]

    def health(self) -> Dict[str, Any]:
        """The `/healthz` payload (``{"status": ...}``), best-effort."""
        try:
            _, body = self.get("/healthz")
        except OSError:
            return {"status": "unreachable"}
        return body if isinstance(body, dict) else {"status": "?"}

    def compute(self, kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
        status, payload = self.post(f"/v1/{kind}", body)
        if status != 200:
            raise ExperimentError(f"/v1/{kind} answered {status}: {payload}")
        return payload

    def compute_raw(self, kind: str, encoded: bytes) -> bytes:
        """One compute request from pre-encoded body bytes, JSON codec
        free on the client: the warm-latency protocol times the server
        tiers, so the client's constant ``json.dumps``/``loads`` cost is
        kept out of the loop (identically for every leg)."""
        conn = self._connection()
        headers = {"Content-Type": "application/json"}
        try:
            conn.request("POST", f"/v1/{kind}", body=encoded, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            conn = self._connection()
            conn.request("POST", f"/v1/{kind}", body=encoded, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        if response.status != 200:
            raise ExperimentError(
                f"/v1/{kind} answered {response.status}: {raw[:200]!r}"
            )
        return raw

    def compute_with_retry(
        self,
        kind: str,
        body: Dict[str, Any],
        *,
        max_tries: int = 8,
        backoff_s: float = 0.1,
    ) -> Tuple[Dict[str, Any], int]:
        """``compute()`` that retries deliberate 503s (shed/breaker-open).

        A well-behaved client's loop: honor ``Retry-After`` (capped at
        1s so harness runs stay fast), give up on any other error.
        Returns ``(payload, retries_used)``.
        """
        last: Tuple[int, Any] = (0, None)
        for attempt in range(max_tries):
            status, payload = self.post(f"/v1/{kind}", body)
            if status == 200:
                return payload, attempt
            last = (status, payload)
            if status != 503:
                break
            try:
                retry_after = float(self.last_headers.get("retry-after", 0))
            except ValueError:
                retry_after = 0.0
            time.sleep(min(max(backoff_s, retry_after), 1.0))
        raise ExperimentError(
            f"/v1/{kind} answered {last[0]} after {max_tries} tries: {last[1]}"
        )


def metric_total(snapshot: Dict[str, Any], name: str) -> float:
    """Sum one metric across its label variants in a registry snapshot."""
    total = 0.0
    for series, value in snapshot.items():
        if series == name or series.startswith(name + "{"):
            total += value
    return total


def start_server(
    *,
    jobs: int = 2,
    extra_args: Sequence[str] = (),
    env: Optional[Dict[str, str]] = None,
    ready_timeout_s: float = 60.0,
) -> Tuple[subprocess.Popen, ServeClient]:
    """Boot ``repro serve`` on an ephemeral port; wait for readiness.

    Returns the process and a connected client.  The caller owns the
    process (``proc.terminate()`` when done).
    """
    run_env = dict(os.environ if env is None else env)
    run_env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--jobs", str(jobs), *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=run_env,
    )
    deadline = time.monotonic() + ready_timeout_s
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _READY_RE.search(line)
        if match:
            client = ServeClient(match.group(1), int(match.group(2)))
            for _ in range(200):
                if client.healthz():
                    return proc, client
                time.sleep(0.05)
            break
    proc.terminate()
    out = line + (proc.stdout.read() or "")
    raise ExperimentError(f"serve did not become ready; output:\n{out}")


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (numpy's default method).

    The previous rounded-index picker was biased on small samples — p95
    of 10 points landed on an actual observation (the 9th or 10th)
    instead of interpolating between them, overstating tail latency by
    up to half an inter-sample gap.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = min(max(fraction, 0.0), 1.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

