"""Seeded fault-injection registry: chaos the control plane can rehearse.

PR 2 gave the *simulator* a fault story (stuck PEs, remapping); this
module gives the *serving control plane* one.  A chaos spec in the
``REPRO_CHAOS`` environment variable arms named injection points inside
the worker pool and the persistent cache, so the recovery machinery
(retries, worker reaping, circuit breaking, cache quarantine) can be
demonstrated under real faults instead of hoped about.  The variable
crosses the ``spawn`` boundary with the environment, which is how
injected faults reach real worker processes.

Spec grammar (comma-separated, ``off``/empty disables everything)::

    REPRO_CHAOS="worker_crash=0.2,cache_corrupt=1@2,seed=7,hang_s=30"

* ``<point>=<rate>`` arms ``point`` with Bernoulli probability ``rate``
  (``0 <= rate <= 1``), drawn from a seeded per-point RNG;
* ``<point>=<rate>@<limit>`` additionally caps how many times the point
  may fire.  With ``REPRO_CHAOS_STATE`` set to a directory, the cap is
  shared *across processes* through locked counter files — the way a
  test says "exactly one worker hang, service-wide";
* ``seed=<int>`` seeds the schedule (default 0); ``hang_s=<float>`` and
  ``slow_io_s=<float>`` size the hang/slow-IO faults.

Injection points (:data:`KNOWN_POINTS`):

=================== ========================================================
``worker_crash``    a worker computation dies hard (``os._exit`` in a
                    spawn child; an exception in inline/thread mode)
``worker_hang``     a worker computation sleeps ``hang_s`` seconds
``slow_io``         a cache read/write stalls ``slow_io_s`` seconds
``cache_corrupt``   a just-published cache entry is truncated on disk
``client_disconnect`` client-side: the load harness drops a connection
                    mid-stream (the server never fires this itself)
=================== ========================================================

Rate-based schedules are salted with the pid so concurrent workers do
not crash in lockstep (a respawned worker must not deterministically
re-crash on its first task); limit-based schedules plus a shared state
directory give tests full determinism.  Injections count into the
metrics registry (``chaos.injections{point}``) in whichever process
fires them.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY

try:  # pragma: no cover - platform-dependent import
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Environment variables: the spec itself, and the (optional) directory
#: backing cross-process injection budgets.
ENV_SPEC = "REPRO_CHAOS"
ENV_STATE = "REPRO_CHAOS_STATE"

#: Every injection point a spec may arm.
KNOWN_POINTS = (
    "worker_crash",
    "worker_hang",
    "slow_io",
    "cache_corrupt",
    "client_disconnect",
)

#: Exit code of a chaos-crashed spawn worker (distinctive in supervisor
#: error messages).
CRASH_EXIT_CODE = 23

#: Default fault sizes, overridable in the spec.
DEFAULT_HANG_S = 30.0
DEFAULT_SLOW_IO_S = 0.05

_OFF = {"", "0", "off", "false", "no"}


class ChaosInjected(RuntimeError):
    """The failure an armed injection point raises in-process."""


@dataclass(frozen=True)
class ChaosRule:
    """One armed point: fire with ``rate``, at most ``limit`` times."""

    rate: float
    limit: Optional[int] = None


def _parse_rule(point: str, value: str) -> ChaosRule:
    rate_text, sep, limit_text = value.partition("@")
    try:
        rate = float(rate_text)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_SPEC}: bad rate {rate_text!r} for point {point!r}"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(
            f"{ENV_SPEC}: rate for {point!r} must be in [0, 1], got {rate}"
        )
    limit: Optional[int] = None
    if sep:
        try:
            limit = int(limit_text)
        except ValueError:
            raise ConfigurationError(
                f"{ENV_SPEC}: bad limit {limit_text!r} for point {point!r}"
            ) from None
        if limit < 0:
            raise ConfigurationError(
                f"{ENV_SPEC}: limit for {point!r} must be >= 0, got {limit}"
            )
    return ChaosRule(rate=rate, limit=limit)


def parse_spec(
    spec: str,
) -> Tuple[Dict[str, ChaosRule], int, float, float]:
    """``(rules, seed, hang_s, slow_io_s)`` from one spec string.

    Raises :class:`~repro.errors.ConfigurationError` on unknown points
    or malformed values; an ``off``-ish spec returns no rules.
    """
    rules: Dict[str, ChaosRule] = {}
    seed = 0
    hang_s = DEFAULT_HANG_S
    slow_io_s = DEFAULT_SLOW_IO_S
    if spec.strip().lower() in _OFF:
        return rules, seed, hang_s, slow_io_s
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigurationError(
                f"{ENV_SPEC}: expected 'name=value', got {part!r}"
            )
        if name == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"{ENV_SPEC}: bad seed {value!r}"
                ) from None
        elif name in ("hang_s", "slow_io_s"):
            try:
                parsed = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"{ENV_SPEC}: bad {name} {value!r}"
                ) from None
            if parsed < 0:
                raise ConfigurationError(
                    f"{ENV_SPEC}: {name} must be >= 0, got {parsed}"
                )
            if name == "hang_s":
                hang_s = parsed
            else:
                slow_io_s = parsed
        elif name in KNOWN_POINTS:
            rules[name] = _parse_rule(name, value.strip())
        else:
            raise ConfigurationError(
                f"{ENV_SPEC}: unknown injection point {name!r};"
                f" known: {', '.join(KNOWN_POINTS)}"
            )
    return rules, seed, hang_s, slow_io_s


class ChaosController:
    """Decides, deterministically per schedule, when each point fires."""

    def __init__(
        self,
        rules: Dict[str, ChaosRule],
        *,
        seed: int = 0,
        hang_s: float = DEFAULT_HANG_S,
        slow_io_s: float = DEFAULT_SLOW_IO_S,
        salt: Optional[int] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self.rules = dict(rules)
        self.seed = seed
        self.hang_s = hang_s
        self.slow_io_s = slow_io_s
        self.state_dir = state_dir
        # Rate schedules are salted (by default with the pid) so sibling
        # and respawned workers draw decorrelated sequences; pass salt=0
        # for a fully deterministic single-process schedule.
        self._salt = os.getpid() if salt is None else salt
        self._rngs: Dict[str, random.Random] = {}
        self._fired: Dict[str, int] = {}

    def fired(self, point: str) -> int:
        """How many times ``point`` has fired in this process."""
        return self._fired.get(point, 0)

    def _rng(self, point: str) -> random.Random:
        rng = self._rngs.get(point)
        if rng is None:
            rng = random.Random(f"{self.seed}:{self._salt}:{point}")
            self._rngs[point] = rng
        return rng

    def _claim_budget(self, point: str, limit: int) -> bool:
        """Atomically claim one firing from a (possibly shared) budget."""
        if self.state_dir is None:
            if self.fired(point) >= limit:
                return False
            return True
        path = Path(self.state_dir) / f"chaos-{point}.count"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a+") as handle:
                if fcntl is not None:
                    fcntl.flock(handle, fcntl.LOCK_EX)
                handle.seek(0)
                text = handle.read().strip()
                count = int(text) if text else 0
                if count >= limit:
                    return False
                handle.seek(0)
                handle.truncate()
                handle.write(str(count + 1))
                handle.flush()
                return True
        except (OSError, ValueError):
            # An unreadable budget fails closed: no injection is better
            # than unbounded injection.
            return False

    def should_fire(self, point: str) -> bool:
        """Whether ``point`` fires now; counts the injection if so."""
        rule = self.rules.get(point)
        if rule is None or rule.rate <= 0.0:
            return False
        if rule.rate < 1.0 and self._rng(point).random() >= rule.rate:
            return False
        if rule.limit is not None and not self._claim_budget(
            point, rule.limit
        ):
            return False
        self._fired[point] = self.fired(point) + 1
        REGISTRY.counter("chaos.injections", point=point).inc()
        return True


# Controllers are memoized per (spec, state-dir) so per-point RNG and
# budget state survive across call sites within one process; the
# environment is still re-read on every call, so tests flip the spec
# without reimporting (the cache-store pattern).
_instances: Dict[Tuple[str, Optional[str]], ChaosController] = {}


def active_chaos() -> Optional[ChaosController]:
    """The process-wide controller, or ``None`` when chaos is off."""
    spec = os.environ.get(ENV_SPEC, "")
    if spec.strip().lower() in _OFF:
        return None
    state_dir = os.environ.get(ENV_STATE) or None
    key = (spec, state_dir)
    controller = _instances.get(key)
    if controller is None:
        rules, seed, hang_s, slow_io_s = parse_spec(spec)
        if not rules:
            return None
        controller = ChaosController(
            rules,
            seed=seed,
            hang_s=hang_s,
            slow_io_s=slow_io_s,
            state_dir=state_dir,
        )
        _instances[key] = controller
    return controller


def reset_chaos_handles() -> None:
    """Drop memoized controllers (and their schedules); tests use this."""
    _instances.clear()


def chaos_point(point: str) -> bool:
    """Convenience: does ``point`` fire under the ambient spec?"""
    controller = active_chaos()
    return controller is not None and controller.should_fire(point)


def chaos_sleep(point: str) -> None:
    """Stall the caller if a latency point (``slow_io``) fires."""
    controller = active_chaos()
    if controller is not None and controller.should_fire(point):
        time.sleep(controller.slow_io_s)


def chaos_worker_entry() -> None:
    """Fire the worker-side points; call at the top of a computation.

    ``worker_crash`` hard-exits a spawn child (the supervisor observes a
    dead worker, exactly like an OOM kill) but raises
    :class:`ChaosInjected` when the caller *is* the coordinator process
    (inline/thread mode), where ``os._exit`` would take the service
    down with it.  ``worker_hang`` sleeps ``hang_s`` — long enough to
    trip timeouts and the hung-worker reaper, not an actual deadlock, so
    an un-reaped test run still terminates.
    """
    controller = active_chaos()
    if controller is None:
        return
    if controller.should_fire("worker_crash"):
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(CRASH_EXIT_CODE)
        raise ChaosInjected("chaos: injected worker crash")
    if controller.should_fire("worker_hang"):
        time.sleep(controller.hang_s)
