"""The pure computations behind the service endpoints.

:func:`execute_request` replays a validated request spec
(:class:`~repro.serve.schemas.ComputeRequest`) into a JSON-compatible
result dict.  It is a module-level function on purpose: the worker pool
ships ``(kind, spec)`` across the ``spawn`` boundary by name.  All the
heavy lifting reuses the library paths — ``map_network``,
``simulate_network``, ``evaluate_sweep`` — so a served computation and a
CLI run give the same numbers.  Workers never read or write the
persistent store: the mapping searches and the network results on top
are memoized per worker process, and only the coordinator stores the
whole response, under the ``serve`` section.

The executors import the mapper, the accelerator models and the sweeps
on first use, so the coordinator, which imports this module for
:func:`pool_entry`, loads none of them (nor NumPy); a pool worker
imports them all in :func:`preload`, before it reports ``warm``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.arch.config import ArchConfig
from repro.chaos import chaos_worker_entry
from repro.errors import SpecificationError
from repro.nn import get_workload, parse_network
from repro.nn.network import Network
from repro.obs.events import condense_spans
from repro.obs.tracer import Tracer, tracing


def _network_from_spec(spec: Dict[str, Any]) -> Network:
    if "workload" in spec:
        return get_workload(spec["workload"])
    return parse_network(spec["source"])


def _exec_map(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.dataflow import map_network

    network = _network_from_spec(spec)
    dim = spec["dim"]
    mapping = map_network(network, dim)
    return {
        "workload": network.name,
        "dim": dim,
        "overall_utilization": mapping.overall_utilization,
        "total_cycles": mapping.total_cycles,
        "layers": [
            {
                "name": lm.layer.name,
                "factors": lm.factors.describe(),
                "utilization": lm.utilization.ut,
                "compute_cycles": lm.compute_cycles,
                "relayout_cycles": lm.relayout_cycles,
            }
            for lm in mapping.layers
        ],
    }


def _simulate_payload(network: Network, arch: str, dim: int, result) -> Dict[str, Any]:
    """One simulate response body (shared by singleton and fused paths,
    so a batched per-point payload is byte-identical to a singleton's)."""
    return {
        "workload": network.name,
        "arch": arch,
        "dim": dim,
        "utilization": result.overall_utilization,
        "total_cycles": result.total_cycles,
        "gops": result.gops,
        "power_mw": result.power_mw,
        "gops_per_watt": result.gops_per_watt,
        "energy_uj": result.energy_uj,
        "dram_accesses": result.dram_accesses,
    }


def _exec_simulate(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.accelerators import make_accelerator

    network = _network_from_spec(spec)
    dim, arch = spec["dim"], spec["arch"]
    config = ArchConfig().scaled_to(dim)
    accelerator = make_accelerator(arch, config, workload_name=network.name)
    return _simulate_payload(network, arch, dim, accelerator.simulate_network(network))


def _dse_payload(network: Network, dims, results) -> Dict[str, Any]:
    """One dse response body from pre-evaluated per-dim results.

    :func:`~repro.experiments.dse_array_scale.scale_points` picks the
    best dim in request order, so a request's payload does not depend on
    which other requests it was batched with.
    """
    from repro.experiments.dse_array_scale import scale_points

    points, best_dim = scale_points(results, dims)
    rows = [
        {
            "dim": dim,
            "utilization": result.overall_utilization,
            "gops": result.gops,
            "area_mm2": area,
            "gops_per_mm2": density,
        }
        for dim, (result, area, density) in zip(dims, points)
    ]
    return {"workload": network.name, "rows": rows, "best_dim": best_dim}


def _dse_results(network: Network, dims) -> Dict[int, Any]:
    """Evaluate the distinct dims of a dse request set in one sweep."""
    from repro.experiments.common import evaluate_sweep

    base = ArchConfig()
    return evaluate_sweep(
        f"serve:{network.name}",
        [(dim, "flexflow", network, base.scaled_to(dim)) for dim in sorted(set(dims))],
    )


def _exec_dse(spec: Dict[str, Any]) -> Dict[str, Any]:
    network = _network_from_spec(spec)
    dims = spec["dims"]
    return _dse_payload(network, dims, _dse_results(network, dims))


def _exec_batch(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One fused dispatch for N compatible requests (the dynamic batcher).

    ``spec`` carries the member kind plus every member's singleton spec;
    all members share one network (and arch, for simulate) and differ in
    dims/grid points — exactly the axes :func:`evaluate_sweep` takes in
    one shot.  The union of the members' points is evaluated once, then
    each member's payload is rebuilt through the same helpers the
    singleton executors use, so per-point payloads are byte-identical to
    what each request would have produced alone.
    """
    from repro.experiments.common import evaluate_sweep

    kind = spec["kind"]
    members = spec["members"]
    network = _network_from_spec(members[0])
    if kind == "dse":
        union = sorted({dim for member in members for dim in member["dims"]})
        results = _dse_results(network, union)
        payloads = [
            _dse_payload(network, member["dims"], results)
            for member in members
        ]
    elif kind == "simulate":
        arch = members[0]["arch"]
        base = ArchConfig()
        union = sorted({member["dim"] for member in members})
        results = evaluate_sweep(
            f"serve:{network.name}",
            [(dim, arch, network, base.scaled_to(dim)) for dim in union],
        )
        payloads = [
            _simulate_payload(network, arch, member["dim"], results[member["dim"]])
            for member in members
        ]
    else:
        raise SpecificationError(f"kind {kind!r} is not batchable")
    return {"results": payloads}


def _exec_dse_per_layer(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.dse import plan_payload, solve_per_layer

    network = _network_from_spec(spec)
    plan = solve_per_layer(
        network, spec["dim"], reconfig_scale=spec["reconfig_scale"]
    )
    return plan_payload(plan)


def preload() -> None:
    """Import every module the executors run (a pool worker calls this
    before its ``warm`` report, so no task pays an import)."""
    import repro.accelerators  # noqa: F401
    import repro.dataflow.mapper  # noqa: F401
    import repro.dse.perlayer  # noqa: F401
    import repro.experiments.dse_array_scale  # noqa: F401


_EXECUTORS = {
    "map": _exec_map,
    "simulate": _exec_simulate,
    "dse": _exec_dse,
    "dse_per_layer": _exec_dse_per_layer,
    "batch": _exec_batch,
}


def execute_request(kind: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one validated request spec to its JSON-compatible result."""
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise SpecificationError(f"unknown request kind {kind!r}")
    return executor(spec)


def pool_entry(kind: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-pool entry: execute under a tracer, ship condensed spans.

    Runs in a ``spawn`` worker process (or the inline thread executor),
    where the process-global current-tracer slot is safe to occupy: each
    worker computes one request at a time.
    """
    # Chaos crashes/hangs fire here, exactly where a real computation
    # would die — after the task reached a worker, before any result.
    chaos_worker_entry()
    tracer = Tracer(enabled=True)
    with tracing(tracer):
        result = execute_request(kind, spec)
    return {"result": result, "spans": condense_spans(tracer)}
