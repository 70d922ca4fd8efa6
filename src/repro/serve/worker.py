"""The worker side of the supervised pool: what a spawn worker runs.

A spawn worker imports the module of its target function, so the worker
loop lives here, apart from :mod:`repro.serve.pool`, whose coordinator
side runs on asyncio: a worker imports this module, its entry, the
entry's compute code and the kernel backend, and never asyncio.  The
inline thread workers of :class:`~repro.serve.pool.WorkerPool` run the
same steps in the coordinator process.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

#: A worker entry: ``entry(kind, spec) -> result``.  Spawn workers import
#: it by name, so it must be a module-level function.  Its module may
#: define ``preload()``, which a worker calls before its ``warm`` report
#: (see :func:`_preload`).
Entry = Callable[[str, Dict[str, Any]], Any]


def _preload(entry: Entry) -> None:
    """Run the ``preload()`` of ``entry``'s module, if it has one.

    An entry imports its compute code inside the functions that run it,
    so the coordinator imports the entry without that code; ``preload()``
    imports it in the worker before the worker reports ``warm``, so a
    worker's boot, never a task's timeout, pays for it.  A preload that
    fails is left for the task to report.
    """
    module = sys.modules.get(getattr(entry, "__module__", None) or "")
    hook = getattr(module, "preload", None)
    if hook is None:
        return
    try:
        hook()
    except Exception:
        pass


def _warm_message() -> Tuple[None, str, Optional[float]]:
    """Eagerly load the kernel backend; the worker's ``warm`` report.

    Workers call this before serving (the cext build happens here, at
    pool start) so the first cold task does not pay the load.  The
    report tells the pool the worker has booted; its load time in ms
    feeds the ``pool.worker_warm_ms`` gauge, and is ``None`` when the
    backend could not load (the worker still serves, on numpy).
    """
    try:
        from repro.kernels import active_kernels

        started = time.perf_counter()
        active_kernels()
        return (None, "warm", (time.perf_counter() - started) * 1000.0)
    except Exception:
        return (None, "warm", None)


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
    _preload(entry)
    conn.send(_warm_message())
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
