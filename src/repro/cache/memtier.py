"""Byte-budgeted sharded in-memory hot tier in front of the disk store.

The disk store is content-addressed and process-shared; this tier keeps
*decoded* payloads resident so a warm lookup costs a dict probe instead
of an ``open`` + ``json.loads``.  It replaces the old entry-counted
``_memo`` with three properties the serving fast path needs:

* **byte budget** — ``REPRO_CACHE_MEM_MB`` bounds resident bytes, not
  entry count, so a few giant sweep payloads cannot silently pin
  hundreds of megabytes.  Entries are charged the length of their stored
  document (the disk entry's text, which the store hands over on every
  ``put``, so no payload is encoded twice), evicted LRU per shard;
* **sharding** — the tier is probed from the event loop, inline worker
  threads, and the store's flush thread (which drops the entry of a
  write-behind publish that failed) at once; N independently locked
  shards keep the hot path contention-free (the old ``_memo``
  OrderedDict had no lock at all);
* **digest validation** — every resident entry carries a SHA-256 over
  its stored document.  A ``put`` that changes a key's digest
  replaces the entry and counts ``cache.mem_invalidations``; quarantine
  and repair call :meth:`invalidate` so a corrupt disk entry can never
  keep serving from memory.

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

#: Independently locked LRU shards (keys spread by hash).
SHARD_COUNT = 8

#: Flat per-entry overhead charged on top of the payload text: the dict
#: slot, key strings, and bookkeeping tuple are not free.
ENTRY_OVERHEAD_BYTES = 256


class _Shard:
    """One locked LRU: ``(section, key) -> (payload, nbytes, digest)``."""

    __slots__ = ("lock", "entries", "bytes")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[Tuple[str, str], Tuple[Any, int, str]]" = (
            OrderedDict()
        )
        self.bytes = 0


class MemoryTier:
    """The sharded, byte-budgeted, digest-validated hot tier."""

    def __init__(
        self, budget_bytes: int, *, shards: int = SHARD_COUNT
    ) -> None:
        self.budget_bytes = max(0, int(budget_bytes))
        self._shards = [_Shard() for _ in range(max(1, shards))]
        self._shard_budget = self.budget_bytes // len(self._shards)

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    def _shard_for(self, section: str, key: str) -> _Shard:
        return self._shards[hash((section, key)) % len(self._shards)]

    # -- operations -----------------------------------------------------------

    def get(self, section: str, key: str) -> Tuple[bool, Any]:
        """``(hit, payload)`` — the flag disambiguates a stored ``None``."""
        if not self.enabled:
            return False, None
        shard = self._shard_for(section, key)
        entry_key = (section, key)
        with shard.lock:
            entry = shard.entries.get(entry_key)
            if entry is None:
                REGISTRY.counter("cache.mem_misses", section=section).inc()
                return False, None
            shard.entries.move_to_end(entry_key)
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
        if nbytes > max(self._shard_budget, 1):
            # Larger than a whole shard: not worth caching, and an older
            # resident copy of the key must not outlive it.
            self.invalidate(section, key)
            return
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        shard = self._shard_for(section, key)
        entry_key = (section, key)
        evicted = invalidated = 0
        with shard.lock:
            previous = shard.entries.pop(entry_key, None)
            if previous is not None:
                shard.bytes -= previous[1]
                if previous[2] != digest:
                    invalidated = 1
            shard.entries[entry_key] = (payload, nbytes, digest)
            shard.bytes += nbytes
            while shard.bytes > self._shard_budget and shard.entries:
                _, (_, dropped_bytes, _) = shard.entries.popitem(last=False)
                shard.bytes -= dropped_bytes
                evicted += 1
        if invalidated:
            REGISTRY.counter("cache.mem_invalidations").inc()
        if evicted:
            REGISTRY.counter("cache.mem_evictions").inc(evicted)
        self._publish_gauges()

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
        shard = self._shard_for(section, key)
        entry_key = (section, key)
        with shard.lock:
            entry = shard.entries.get(entry_key)
            if entry is None:
                return None
            shard.entries.move_to_end(entry_key)
            return entry[2]

    def invalidate(self, section: str, key: str) -> bool:
        """Drop one entry (quarantine/repair path); ``True`` if present."""
        shard = self._shard_for(section, key)
        with shard.lock:
            entry = shard.entries.pop((section, key), None)
            if entry is None:
                return False
            shard.bytes -= entry[1]
        REGISTRY.counter("cache.mem_invalidations").inc()
        self._publish_gauges()
        return True

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.bytes = 0
        self._publish_gauges()

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        entries = 0
        resident = 0
        for shard in self._shards:
            with shard.lock:
                entries += len(shard.entries)
                resident += shard.bytes
        return {
            "budget_bytes": self.budget_bytes,
            "entries": entries,
            "bytes": resident,
            "shards": len(self._shards),
        }

    def _publish_gauges(self) -> None:
        entries = 0
        resident = 0
        for shard in self._shards:
            entries += len(shard.entries)
            resident += shard.bytes
        REGISTRY.gauge("cache.mem_bytes").set(resident)
        REGISTRY.gauge("cache.mem_entries").set(entries)
