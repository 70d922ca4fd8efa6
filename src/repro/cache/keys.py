"""Content-addressed cache keys for mapping, experiment, and served results.

Every persistent-cache key is the SHA-256 of a *canonical JSON* document
describing the request — the network shapes, array size and fault mask
of a mapping, the id and module source of an experiment, the validated
spec of a served request — plus :data:`CACHE_SCHEMA_VERSION`, a
code-version salt.  Hashing the full request (rather than trusting file
names or object identity) makes the store safe to share between worker
processes and across runs: two requests collide only if they are the
same computation, and bumping the salt orphans every entry written by
older (incompatible) code without touching the files themselves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.arch.serialization import mask_to_dict

#: Code-version salt baked into every cache key.  Bump whenever counter
#: semantics, result schemas, or model equations change — old entries
#: become unreachable (and ``repro cache verify --repair`` quarantines them).
CACHE_SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def hash_payload(section: str, payload: Any) -> str:
    """The cache key for one request in one section (64 hex chars)."""
    material = canonical_json(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "section": section,
            "payload": payload,
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def layer_payload(layer: Any) -> Dict[str, Any]:
    """Any (frozen dataclass) layer spec as key material.

    Treat the returned dict as read-only: payloads for hashable (frozen)
    specs are memoized, so one cold sweep pays ``dataclasses.asdict``
    once per distinct layer instead of once per cache lookup.
    """
    try:
        return _layer_payload_cached(layer)
    except TypeError:  # unhashable spec: build uncached
        return _build_layer_payload(layer)


def _build_layer_payload(layer: Any) -> Dict[str, Any]:
    data = dataclasses.asdict(layer)
    data["type"] = type(layer).__name__
    return data


@lru_cache(maxsize=4096)
def _layer_payload_cached(layer: Any) -> Dict[str, Any]:
    return _build_layer_payload(layer)


def network_payload(network: Any) -> Dict[str, Any]:
    """A Network's full structural identity as key material (read-only)."""
    try:
        return _network_payload_cached(network)
    except TypeError:
        return _build_network_payload(network)


def _build_network_payload(network: Any) -> Dict[str, Any]:
    return {
        "name": network.name,
        "input": dataclasses.asdict(network.input_spec),
        "layers": [layer_payload(layer) for layer in network.layers],
    }


@lru_cache(maxsize=1024)
def _network_payload_cached(network: Any) -> Dict[str, Any]:
    return _build_network_payload(network)


def factors_payload(factors: Any) -> Dict[str, int]:
    """Unrolling factors ``<Tm,Tn,Tr,Tc,Ti,Tj>`` as key material."""
    return {
        "tm": factors.tm,
        "tn": factors.tn,
        "tr": factors.tr,
        "tc": factors.tc,
        "ti": factors.ti,
        "tj": factors.tj,
    }


def mask_payload(mask: Optional[Any]) -> Optional[Dict[str, Any]]:
    """An optional AvailabilityMask as key material."""
    return None if mask is None else mask_to_dict(mask)
