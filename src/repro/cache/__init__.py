"""Persistent result cache: content-addressed, process-shared, versioned.

Tier 2 of the performance layer (see ``docs/PERFORMANCE.md``): whole
experiment results and served responses are stored on disk keyed by a
SHA-256 over the full request plus a code-version salt, so repeated
reports — including ``--jobs N`` worker processes sharing one directory
— pay for each experiment once, and a repeated request is a read.
Mapping searches and closed-form results (cycles, utilization, activity
counts) cost no more to recompute than to read back, so they are not
stored: the store has two sections, ``experiment`` and ``serve``, one
flat directory each (``<root>/<section>/<key>.json``), and no eviction
bound.  A byte-budgeted LRU (:class:`MemoryTier`) keeps decoded entries
in front of the disk.
"""

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    hash_payload,
    layer_payload,
    network_payload,
)
from repro.cache.memtier import DEFAULT_MEM_MB, MemoryTier
from repro.cache.store import (
    ENV_DIR,
    ENV_ENABLE,
    ENV_MEM_MB,
    ResultCache,
    active_cache,
    cache_enabled,
    cache_root,
    reset_cache_handles,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MEM_MB",
    "ENV_DIR",
    "ENV_ENABLE",
    "ENV_MEM_MB",
    "MemoryTier",
    "ResultCache",
    "active_cache",
    "cache_enabled",
    "cache_root",
    "canonical_json",
    "hash_payload",
    "layer_payload",
    "network_payload",
    "reset_cache_handles",
]
