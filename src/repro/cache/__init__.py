"""Persistent result cache: content-addressed, process-shared, versioned.

Tier 2 of the performance layer (see ``docs/PERFORMANCE.md``): mapping
searches, whole experiment results, and served responses are stored on
disk keyed by a SHA-256 over the full request (shapes, configuration,
factors) plus a code-version salt, so repeated sweeps — including
``--jobs N`` worker processes sharing one directory — pay for each
unique search once.  Closed-form results (cycles, utilization, activity
counts) are cheaper to recompute than to read back, so they are not
stored.
"""

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    factors_payload,
    hash_payload,
    layer_payload,
    mask_payload,
    network_payload,
)
from repro.cache.memtier import DEFAULT_MEM_MB, MemoryTier
from repro.cache.store import (
    ENV_DIR,
    ENV_ENABLE,
    ENV_MAX_ENTRIES,
    ENV_MEM_MB,
    ResultCache,
    active_cache,
    cache_enabled,
    cache_root,
    deferred_cache_publishes,
    reset_cache_handles,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MEM_MB",
    "ENV_DIR",
    "ENV_ENABLE",
    "ENV_MAX_ENTRIES",
    "ENV_MEM_MB",
    "MemoryTier",
    "ResultCache",
    "active_cache",
    "cache_enabled",
    "cache_root",
    "canonical_json",
    "deferred_cache_publishes",
    "factors_payload",
    "hash_payload",
    "layer_payload",
    "mask_payload",
    "network_payload",
    "reset_cache_handles",
]
