"""Request schemas: validate JSON bodies, derive content-addressed keys.

A request names a network either by Table 1 workload name
(``{"workload": "LeNet-5"}``) or as an inline ``.net`` description
(``{"network": "network Tiny\\n..."}``).  The cache key hashes the
*resolved* network structure (via :func:`repro.cache.keys.network_payload`),
so the two spellings of the same network coalesce onto one computation
and one cache entry — the serve layer is content-addressed end to end.

Validation failures raise :class:`~repro.errors.SpecificationError` /
:class:`~repro.errors.ConfigurationError`, which the HTTP layer maps to
a 400 response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.cache import hash_payload, network_payload
from repro.errors import ConfigurationError, SpecificationError
from repro.experiments.records import ARCH_ORDER
from repro.nn import WORKLOAD_NAMES, get_workload, parse_network
from repro.nn.network import Network

#: The body fields each request kind reads; any other field is an error,
#: so a misspelled field is rejected rather than answered at its default.
#: ``sweep`` is a batch of these (its points may also name their kind).
REQUEST_FIELDS = {
    "map": ("workload", "network", "dim"),
    "simulate": ("workload", "network", "dim", "arch"),
    "dse": ("workload", "network", "dims"),
    "dse_per_layer": ("workload", "network", "dim", "reconfig_scale"),
}

#: Request kinds the service computes.
REQUEST_KINDS = tuple(REQUEST_FIELDS)

#: Kinds a client may safely retry after a 5xx: all served computations
#: are pure functions of their spec (no side effects beyond the cache),
#: so today every kind is retryable.  The chaos bench enforces "zero
#: unrecovered 5xx" for exactly this set; a future mutating kind would
#: opt out by not appearing here.
RETRYABLE_KINDS = frozenset(REQUEST_KINDS)

#: Guard rails on request size, so one malformed/abusive request cannot
#: monopolize the worker pool.
MAX_DIM = 256
MAX_DSE_DIMS = 32
MAX_SWEEP_POINTS = 1024
MAX_NETWORK_SOURCE = 64 * 1024
MAX_RECONFIG_SCALE = 1e6


@dataclass(frozen=True)
class ComputeRequest:
    """One validated computation: what to run, and its identity.

    ``spec`` is the picklable execution recipe a worker process replays
    (:func:`repro.serve.compute.execute_request`); ``key`` is the
    content-addressed identity used for coalescing and the persistent
    ``serve`` cache section.
    """

    kind: str
    spec: Dict[str, Any]
    key: str
    label: str


def _require_dict(body: Any) -> Dict[str, Any]:
    if not isinstance(body, dict):
        raise SpecificationError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _reject_unknown_fields(
    body: Dict[str, Any], fields: Tuple[str, ...], what: str
) -> None:
    for field in body:
        if field not in fields:
            raise SpecificationError(
                f"unknown field {field!r} in a {what} body;"
                f" valid fields: {', '.join(fields)}"
            )


def _resolve_network(body: Dict[str, Any]) -> Tuple[Network, Dict[str, Any]]:
    """The request's network plus the picklable spec that re-resolves it."""
    workload = body.get("workload")
    source = body.get("network")
    if (workload is None) == (source is None):
        raise SpecificationError(
            "exactly one of 'workload' (a Table 1 name) or 'network'"
            " (an inline .net description) is required"
        )
    if workload is not None:
        if workload not in WORKLOAD_NAMES:
            raise SpecificationError(
                f"unknown workload {workload!r};"
                f" known: {', '.join(WORKLOAD_NAMES)}"
            )
        return get_workload(workload), {"workload": workload}
    if not isinstance(source, str):
        raise SpecificationError("'network' must be a .net description string")
    if len(source) > MAX_NETWORK_SOURCE:
        raise SpecificationError(
            f"'network' description exceeds {MAX_NETWORK_SOURCE} bytes"
        )
    return parse_network(source), {"source": source}


def _parse_dim(body: Dict[str, Any], field: str = "dim", default: int = 16) -> int:
    raw = body.get(field, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise SpecificationError(f"'{field}' must be an integer, got {raw!r}")
    if not 1 <= raw <= MAX_DIM:
        raise ConfigurationError(
            f"'{field}' must be in [1, {MAX_DIM}], got {raw}"
        )
    return raw


def _parse_dims(body: Dict[str, Any]) -> List[int]:
    raw = body.get("dims", [8, 16, 32, 64])
    if not isinstance(raw, list) or not raw:
        raise SpecificationError("'dims' must be a non-empty list of integers")
    if len(raw) > MAX_DSE_DIMS:
        raise ConfigurationError(
            f"'dims' is limited to {MAX_DSE_DIMS} entries, got {len(raw)}"
        )
    dims = [_parse_dim({"dims": d}, "dims") for d in raw]
    for index, dim in enumerate(dims):
        if dim in dims[:index]:
            raise SpecificationError(f"'dims' lists {dim} more than once")
    return dims


def _parse_reconfig_scale(body: Dict[str, Any]) -> float:
    raw = body.get("reconfig_scale", 1.0)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SpecificationError(
            f"'reconfig_scale' must be a number, got {raw!r}"
        )
    if not 0 <= raw <= MAX_RECONFIG_SCALE:
        raise ConfigurationError(
            f"'reconfig_scale' must be in [0, {MAX_RECONFIG_SCALE}],"
            f" got {raw}"
        )
    return float(raw)


def parse_request(kind: str, body: Any) -> ComputeRequest:
    """Validate one JSON body into a keyed :class:`ComputeRequest`."""
    if kind not in REQUEST_KINDS:
        raise SpecificationError(
            f"unknown request kind {kind!r}; known: {', '.join(REQUEST_KINDS)}"
        )
    body = _require_dict(body)
    _reject_unknown_fields(body, REQUEST_FIELDS[kind], kind)
    network, spec = _resolve_network(body)
    if kind == "map":
        dim = _parse_dim(body)
        spec = {**spec, "dim": dim}
        params: Dict[str, Any] = {
            "network": network_payload(network), "dim": dim,
        }
        label = f"map:{network.name}@{dim}"
    elif kind == "simulate":
        dim = _parse_dim(body)
        arch = body.get("arch", "flexflow")
        if arch not in ARCH_ORDER:
            raise SpecificationError(
                f"unknown arch {arch!r}; known: {', '.join(ARCH_ORDER)}"
            )
        spec = {**spec, "dim": dim, "arch": arch}
        params = {
            "network": network_payload(network), "dim": dim, "arch": arch,
        }
        label = f"simulate:{arch}:{network.name}@{dim}"
    elif kind == "dse_per_layer":
        dim = _parse_dim(body)
        scale = _parse_reconfig_scale(body)
        spec = {**spec, "dim": dim, "reconfig_scale": scale}
        params = {
            "network": network_payload(network),
            "dim": dim,
            "reconfig_scale": scale,
        }
        label = f"dse_per_layer:{network.name}@{dim}"
    else:  # dse
        dims = _parse_dims(body)
        spec = {**spec, "dims": dims}
        params = {"network": network_payload(network), "dims": dims}
        label = f"dse:{network.name}@{','.join(map(str, dims))}"
    return ComputeRequest(
        kind=kind,
        spec=spec,
        key=hash_payload(f"serve.{kind}", params),
        label=label,
    )


def parse_sweep(body: Any) -> List[ComputeRequest]:
    """A ``sweep`` body: ``{"points": [<simulate/map/dse bodies>...]}``.

    Each point may carry its own ``"kind"`` (default ``simulate``); the
    batch is sharded across the worker pool and every point coalesces
    and caches under its own key — so a sweep shares work with any
    concurrent single request for the same point.
    """
    body = _require_dict(body)
    _reject_unknown_fields(body, ("points",), "sweep")
    points = body.get("points")
    if not isinstance(points, list) or not points:
        raise SpecificationError("'points' must be a non-empty list")
    if len(points) > MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"'points' is limited to {MAX_SWEEP_POINTS} entries,"
            f" got {len(points)}"
        )
    requests = []
    for index, point in enumerate(points):
        point = _require_dict(point)
        kind = point.get("kind", "simulate")
        try:
            if kind in REQUEST_KINDS:
                _reject_unknown_fields(
                    point, REQUEST_FIELDS[kind] + ("kind",), f"{kind} point"
                )
            fields = {name: value for name, value in point.items()
                      if name != "kind"}
            requests.append(parse_request(kind, fields))
        except (SpecificationError, ConfigurationError) as exc:
            raise type(exc)(f"points[{index}]: {exc}") from exc
    return requests
