"""Pool entries for tests: one reports what each task imported, and
whether the worker holds asyncio; one queues a write-behind store entry.

Spawn workers import an entry by name, so they live in an importable
module rather than in a test file.  It re-exports serve's ``preload``,
which the worker runs before its ``warm`` report, exactly as it does for
:func:`repro.serve.compute.pool_entry`.
"""

import sys

from repro.serve.compute import pool_entry, preload  # noqa: F401


def probe_entry(kind, spec):
    """``pool_entry`` plus the ``repro.*`` modules the task added."""
    before = set(sys.modules)
    envelope = pool_entry(kind, spec)
    envelope["imported"] = sorted(
        name for name in set(sys.modules) - before if name.startswith("repro")
    )
    envelope["asyncio"] = "asyncio" in sys.modules
    return envelope


def publish_entry(kind, spec):
    """Queue one write-behind ``serve`` entry and reply before it lands."""
    from repro.cache import active_cache

    active_cache().put_behind("serve", spec["key"], {"kind": kind})
    return {"result": {}, "spans": []}
