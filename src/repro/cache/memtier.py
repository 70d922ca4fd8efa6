"""Byte-budgeted in-memory hot tier in front of the disk store.

The disk store is content-addressed and process-shared; this tier keeps
*decoded* payloads resident so a warm lookup costs a dict probe instead
of an ``open`` + ``json.loads``.  It is one LRU under one lock, with two
properties the serving fast path needs:

* **byte budget** — ``REPRO_CACHE_MEM_MB`` bounds resident bytes, not
  entry count, so a few giant sweep payloads cannot silently pin
  hundreds of megabytes.  Entries are charged the length of their stored
  document (the disk entry's text, which the store hands over on every
  ``put``, so no payload is encoded twice), and the least recently used
  are evicted first.  An entry larger than the whole budget is not
  admitted;
* **digest validation** — every resident entry carries a SHA-256 over
  its stored document.  A ``put`` that changes a key's digest
  replaces the entry and counts ``cache.mem_invalidations``; quarantine
  and repair call :meth:`invalidate` so a corrupt disk entry can never
  keep serving from memory.

Served requests probe the tier from the event-loop thread.  The one
lock covers the other callers: the store's flush thread, which drops
the copy of a write-behind publish that failed, and inline (``jobs=0``)
pool workers running experiments.

Metrics: ``cache.mem_hits{section}`` / ``cache.mem_misses{section}`` /
``cache.mem_evictions`` / ``cache.mem_invalidations`` counters and
``cache.mem_bytes`` / ``cache.mem_entries`` gauges.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import REGISTRY

#: Default budget (MiB) when ``REPRO_CACHE_MEM_MB`` is unset.
DEFAULT_MEM_MB = 64

#: Flat per-entry overhead charged on top of the payload text: the dict
#: slot, key strings, and bookkeeping tuple are not free.
ENTRY_OVERHEAD_BYTES = 256


class MemoryTier:
    """The byte-budgeted, digest-validated hot tier: one locked LRU of
    ``(section, key) -> (payload, nbytes, digest)``."""

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = max(0, int(budget_bytes))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], Tuple[Any, int, str]]" = (
            OrderedDict()
        )
        self._bytes = 0

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    # -- operations -----------------------------------------------------------

    def get(self, section: str, key: str) -> Tuple[bool, Any]:
        """``(hit, payload)`` — the flag disambiguates a stored ``None``."""
        if not self.enabled:
            return False, None
        entry_key = (section, key)
        with self._lock:
            entry = self._entries.get(entry_key)
            if entry is None:
                REGISTRY.counter("cache.mem_misses", section=section).inc()
                return False, None
            self._entries.move_to_end(entry_key)
        REGISTRY.counter("cache.mem_hits", section=section).inc()
        return True, entry[0]

    def put(self, section: str, key: str, payload: Any, document: str) -> None:
        """Admit (or refresh) one decoded entry, evicting LRU to budget.

        ``document`` is the entry's stored text — the encoded entry on a
        store ``put``, the file's text on a disk hit — so both paths
        charge and digest the same bytes without re-encoding ``payload``.
        """
        if not self.enabled:
            return
        nbytes = len(document) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.budget_bytes:
            # Larger than the whole tier: not worth caching, and an older
            # resident copy of the key must not outlive it.
            self.invalidate(section, key)
            return
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        entry_key = (section, key)
        evicted = invalidated = 0
        with self._lock:
            previous = self._entries.pop(entry_key, None)
            if previous is not None:
                self._bytes -= previous[1]
                if previous[2] != digest:
                    invalidated = 1
            self._entries[entry_key] = (payload, nbytes, digest)
            self._bytes += nbytes
            while self._bytes > self.budget_bytes:
                _, (_, dropped_bytes, _) = self._entries.popitem(last=False)
                self._bytes -= dropped_bytes
                evicted += 1
            self._publish_gauges()
        if invalidated:
            REGISTRY.counter("cache.mem_invalidations").inc()
        if evicted:
            REGISTRY.counter("cache.mem_evictions").inc(evicted)

    def digest(self, section: str, key: str) -> Optional[str]:
        """The resident entry's payload digest, or ``None`` when absent.

        The serve layer's hot response path validates its pre-encoded
        response bytes against this digest, so a quarantined or replaced
        entry can never keep serving stale bytes.  Counts as a use for
        LRU purposes, but not as a hit/miss (the caller is probing
        coherence, not reading the payload).
        """
        if not self.enabled:
            return None
        entry_key = (section, key)
        with self._lock:
            entry = self._entries.get(entry_key)
            if entry is None:
                return None
            self._entries.move_to_end(entry_key)
            return entry[2]

    def invalidate(self, section: str, key: str) -> bool:
        """Drop one entry (quarantine/repair path); ``True`` if present."""
        with self._lock:
            entry = self._entries.pop((section, key), None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            self._publish_gauges()
        REGISTRY.counter("cache.mem_invalidations").inc()
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._publish_gauges()

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }

    def _publish_gauges(self) -> None:
        """Set the size gauges; the caller holds the lock."""
        REGISTRY.gauge("cache.mem_bytes").set(self._bytes)
        REGISTRY.gauge("cache.mem_entries").set(len(self._entries))
