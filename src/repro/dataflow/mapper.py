"""Parallelism determination (Section 5): picking the unrolling factors.

Given a CONV layer and a ``D x D`` convolutional unit, the feasible-factor
space is Eq. 1 and the objective is maximal utilization — equivalently
minimal cycles, since ``Ut = MACs / (cycles * D^2)`` and the MAC count is
fixed.  Two properties make the search fast:

1. The intra-row triple ``(Tn, Ti, Tj)`` and inter-row triple
   ``(Tm, Tr, Tc)`` contribute *independently* to the cycle count
   (``cycles = f_in * f_out``), so each side is enumerated separately.
2. Only Pareto-useful factor values matter (``unrolling.useful_values``).

**Inter-layer coupling.**  IADP writes layer ``i``'s outputs in layer
``i+1``'s buffer format, which works for free only when layer ``i+1``'s
``(Tn, Ti, Tj)`` equals layer ``i``'s ``(Tm, Tr, Tc)`` (Section 5).
Breaking the coupling is allowed but costs a buffer re-layout pass.  The
network mapper is a dynamic program over the per-layer output triples that
minimizes total cycles including re-layout penalties; this joint
optimization is what reproduces Table 4's seemingly sub-optimal per-layer
choices (e.g. LeNet-5 C1's ``Tc = 5`` instead of a perfectly-packed
``(2, 2, 4)``: the latter would strand C3 at 52 % row utilization).

The search runs in one of two equivalent engines: the fused compiled
``map_network_dp`` kernel when :mod:`repro.kernels` has a backend, else
the vectorized NumPy DP over Pareto-pruned candidate sets.  Both are
pinned bit-for-bit against the plain-Python reference DP in
``tests/dse_oracle.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache import (
    active_cache,
    factors_payload,
    hash_payload,
    mask_payload,
    network_payload,
)
from repro.dataflow.styles import ProcessingStyle, classify
from repro.dataflow.unrolling import (
    UnrollingFactors,
    ceil_div,
    useful_values,
)
from repro.dataflow.utilization import UtilizationReport, utilization_report
from repro.errors import ConfigurationError, MappingError, ReproError
from repro.faults.mask import AvailabilityMask, live_grid
from repro.kernels import active_kernels, count_kernel_call
from repro.nn.layers import ConvLayer
from repro.nn.network import Network
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

Triple = Tuple[int, int, int]

#: Environment variable bounding the in-memory ``map_layer`` memo (the
#: ``map_network`` memo scales along at 1/16th, floor 1).
ENV_MAPPING_CACHE_SIZE = "REPRO_MAPPING_CACHE_SIZE"

#: Default ``map_layer`` memo bound when the env var is unset.
DEFAULT_MAPPING_CACHE_SIZE = 4096

def mapping_cache_size() -> int:
    """The configured ``map_layer`` memo bound (``REPRO_MAPPING_CACHE_SIZE``)."""
    raw = os.environ.get(ENV_MAPPING_CACHE_SIZE)
    if raw is None or not raw.strip():
        return DEFAULT_MAPPING_CACHE_SIZE
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_MAPPING_CACHE_SIZE} must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(
            f"{ENV_MAPPING_CACHE_SIZE} must be a positive integer, got {raw!r}"
        )
    return value


def _record_cache_outcome(name: str, before, after) -> None:
    """Count one memoized call as a hit or a miss in the metrics registry.

    ``before``/``after`` are ``functools`` ``cache_info()`` snapshots
    taken around the call; exactly one of hits/misses advanced.
    """
    outcome = "hit" if after.hits > before.hits else "miss"
    REGISTRY.counter(f"mapper.{name}", outcome=outcome).inc()


def _usable_limits(
    array_dim: int, mask: Optional[AvailabilityMask]
) -> Tuple[int, int]:
    """``(usable_rows, usable_cols)`` for mapping under an optional mask.

    The mask (when present and unhealthy) is reduced to its greedy
    fault-free live grid; parallelism determination then packs into that
    subgrid while utilization stays accounted against the full ``D x D``
    fabric.
    """
    if mask is None or mask.is_healthy:
        return (array_dim, array_dim)
    if mask.array_dim != array_dim:
        raise MappingError(
            f"availability mask is for a {mask.array_dim}x{mask.array_dim}"
            f" array, mapping requested D={array_dim}"
        )
    grid = live_grid(mask)
    if grid.usable_rows == 0 or grid.usable_cols == 0:
        raise MappingError(
            f"no usable PE subgrid survives the fault mask"
            f" ({mask.num_dead} dead of {array_dim * array_dim})"
        )
    return (grid.usable_rows, grid.usable_cols)


@dataclass(frozen=True)
class LayerMapping:
    """The chosen unrolling of one CONV layer onto the array."""

    layer: ConvLayer
    factors: UnrollingFactors
    array_dim: int
    utilization: UtilizationReport
    compute_cycles: int
    #: Cycles spent re-laying out this layer's *input* in the buffer when
    #: the coupling with the previous layer was broken (0 when coupled).
    relayout_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.relayout_cycles

    @property
    def style(self) -> ProcessingStyle:
        return classify(self.factors)

    @property
    def coupled(self) -> bool:
        return self.relayout_cycles == 0


@dataclass(frozen=True)
class NetworkMapping:
    """Per-layer mappings for every CONV layer of a network."""

    network_name: str
    array_dim: int
    layers: Tuple[LayerMapping, ...]

    @property
    def total_cycles(self) -> int:
        return sum(m.total_cycles for m in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(m.layer.macs for m in self.layers)

    @property
    def overall_utilization(self) -> float:
        """MAC-weighted utilization: total MACs / (total cycles * D^2)."""
        cycles = self.total_cycles
        if cycles == 0:
            return 0.0
        return self.total_macs / (cycles * self.array_dim**2)

    def by_layer_name(self) -> Dict[str, LayerMapping]:
        return {m.layer.name: m for m in self.layers}


# -- per-side candidate enumeration -------------------------------------------


# Memoized per-dimension useful values: one cold sweep re-derives the
# same few (dimension, limit) sets hundreds of times.
_useful_cached = lru_cache(maxsize=None)(useful_values)


@lru_cache(maxsize=4096)
def _candidate_cache(dims: Triple, product_limit: int, caps: Triple) -> np.ndarray:
    """Vectorized candidate enumeration: ``(array, tuples)``, both sorted.

    Builds the full ``useful_values`` meshgrid per dimension and masks it
    with the per-factor caps and the Eq. 1 product limit — exactly the set
    the nested ``iter_triples`` loop of ``tests/dse_oracle.py`` yields
    (its per-level ``limit // a`` clipping is the same predicate, since
    ``b <= L // a`` iff ``a * b <= L`` over positive ints).  Each dimension's useful
    values are distinct, so the meshgrid is duplicate-free by construction
    and — because distinct useful values give distinct quotients — no
    candidate dominates another in (steps, footprint) space
    (``tests/dataflow/test_candidates.py`` pins both properties).
    """
    if min(caps) <= 0:
        raise MappingError("candidate caps must be positive")
    a = np.array(_useful_cached(dims[0], dims[0]), dtype=np.int64)
    b = np.array(_useful_cached(dims[1], dims[1]), dtype=np.int64)
    c = np.array(_useful_cached(dims[2], dims[2]), dtype=np.int64)
    a = a[a <= min(caps[0], product_limit)]
    b = b[b <= caps[1]]
    c = c[c <= caps[2]]
    suite = active_kernels()
    if suite is not None:
        # The compiled loop walks a x b x c in C order over sorted axes —
        # the same lexicographic order the broadcast path produces.
        arr = suite.enumerate_triples(a, b, c, product_limit)
        count_kernel_call("enumerate_triples", suite.backend)
    else:
        # Broadcasted product grid; np.nonzero walks it in C order, which —
        # with each axis sorted ascending — is lexicographic order.
        prod = a[:, None, None] * b[None, :, None] * c[None, None, :]
        ia, ib, ic = np.nonzero(prod <= product_limit)
        arr = np.stack([a[ia], b[ib], c[ic]], axis=1)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=4096)
def _candidate_tuples(
    dims: Triple, product_limit: int, caps: Triple
) -> Tuple[Triple, ...]:
    """The candidate array as python tuples, materialized on demand."""
    arr = _candidate_cache(dims, product_limit, caps)
    return tuple(map(tuple, arr.tolist()))


def _candidate_list(dims: Triple, product_limit: int, caps: Triple) -> List[Triple]:
    if product_limit <= 0:
        raise MappingError("product_limit must be positive")
    return list(_candidate_tuples(dims, product_limit, caps))


def candidate_array(dims: Triple, product_limit: int, caps: Triple) -> np.ndarray:
    """The deduplicated candidate set as a read-only ``(N, 3)`` array."""
    if product_limit <= 0:
        raise MappingError("product_limit must be positive")
    return _candidate_cache(dims, product_limit, caps)


def input_candidates(layer: ConvLayer, array_dim: int) -> List[Triple]:
    """Feasible ``(Tn, Ti, Tj)`` triples (Eq. 1 intra-row side)."""
    dims = (layer.in_maps, layer.kernel, layer.kernel)
    caps = (layer.in_maps, layer.kernel, layer.kernel)
    return _candidate_list(dims, array_dim, caps)


def output_candidates(
    layer: ConvLayer, array_dim: int, tr_tc_bound: Optional[int] = None
) -> List[Triple]:
    """Feasible ``(Tm, Tr, Tc)`` triples (Eq. 1 inter-row side)."""
    dims, caps = _output_space(layer, tr_tc_bound)
    return _candidate_list(dims, array_dim, caps)


def _input_space(layer: ConvLayer) -> Tuple[Triple, Triple]:
    dims = (layer.in_maps, layer.kernel, layer.kernel)
    return dims, dims


def _output_space(
    layer: ConvLayer, tr_tc_bound: Optional[int]
) -> Tuple[Triple, Triple]:
    bound = layer.out_size if tr_tc_bound is None else min(layer.out_size, tr_tc_bound)
    dims = (layer.out_maps, layer.out_size, layer.out_size)
    return dims, (layer.out_maps, bound, bound)


def _steps_array(dims: Triple, triples: np.ndarray) -> np.ndarray:
    """Vectorized ``prod(ceil(dim / t))`` over an ``(N, 3)`` triple array."""
    return (
        (-(-dims[0] // triples[:, 0]))
        * (-(-dims[1] // triples[:, 1]))
        * (-(-dims[2] // triples[:, 2]))
    )


@dataclass(frozen=True)
class CandidateScores:
    """Batched scores for all ``input x output`` candidate pairs of a layer.

    ``cycles[i, j]`` is the compute-cycle count of pairing input triple
    ``i`` with output triple ``j`` — the product of the two step counts,
    exactly what ``_input_steps * _output_steps`` evaluates pair by
    pair.
    """

    input_triples: np.ndarray  # (n_in, 3)
    output_triples: np.ndarray  # (n_out, 3)
    input_steps: np.ndarray  # (n_in,)
    output_steps: np.ndarray  # (n_out,)
    cycles: np.ndarray  # (n_in, n_out)


def score_candidates_batch(
    layer: ConvLayer,
    input_triples: Union[np.ndarray, Sequence[Triple]],
    output_triples: Union[np.ndarray, Sequence[Triple]],
) -> CandidateScores:
    """Score every input x output candidate pair in one vectorized pass."""
    ins = np.atleast_2d(np.asarray(input_triples, dtype=np.int64))
    outs = np.atleast_2d(np.asarray(output_triples, dtype=np.int64))
    for arr, side in ((ins, "input"), (outs, "output")):
        if arr.size and arr.shape[1] != 3:
            raise MappingError(
                f"{side} triples must have shape (N, 3), got {arr.shape}"
            )
    dims_in = (layer.in_maps, layer.kernel, layer.kernel)
    dims_out = (layer.out_maps, layer.out_size, layer.out_size)
    suite = active_kernels()
    if suite is not None and ins.size and outs.size:
        fin, fout, cycles = suite.pair_cycles(dims_in, ins, dims_out, outs)
        count_kernel_call("pair_cycles", suite.backend)
    else:
        fin = _steps_array(dims_in, ins)
        fout = _steps_array(dims_out, outs)
        cycles = fin[:, None] * fout[None, :]
    return CandidateScores(
        input_triples=ins,
        output_triples=outs,
        input_steps=fin,
        output_steps=fout,
        cycles=cycles,
    )


@lru_cache(maxsize=4096)
def _best_input_cached(
    in_maps: int, kernel: int, col_limit: int
) -> Tuple[Triple, int, int]:
    dims = (in_maps, kernel, kernel)
    arr = candidate_array(dims, col_limit, dims)
    fin = _steps_array(dims, arr)
    pick = int(np.argmin(fin))
    triple = (int(arr[pick, 0]), int(arr[pick, 1]), int(arr[pick, 2]))
    return triple, int(fin[pick]), len(arr)


def _best_input_batched(layer: ConvLayer, col_limit: int) -> Tuple[Triple, int, int]:
    """``(best_triple, steps, n_candidates)`` via the vectorized path.

    ``np.argmin`` returns the first minimum and the candidate array is in
    lexicographic order, so this is the ``min(ins, key=(steps, triple))``
    selection exactly.  Memoized on the layer's input space — a DSE sweep
    re-asks the same question for every network that shares a layer
    shape.
    """
    return _best_input_cached(layer.in_maps, layer.kernel, col_limit)


def _best_output_batched(
    layer: ConvLayer, row_limit: int, tr_tc_bound: Optional[int]
) -> Tuple[Triple, int]:
    """``(best_triple, n_candidates)`` via the vectorized path.

    ``np.lexsort`` is stable, so sorting by ``(steps, ceil(M/Tm))`` and
    taking the first element is the
    ``min(outs, key=(steps, ceil(M/Tm), triple))`` tie-break chain.
    """
    dims, caps = _output_space(layer, tr_tc_bound)
    arr = candidate_array(dims, row_limit, caps)
    fout = _steps_array(dims, arr)
    ceil_m = -(-layer.out_maps // arr[:, 0])
    pick = int(np.lexsort((ceil_m, fout))[0])
    triple = (int(arr[pick, 0]), int(arr[pick, 1]), int(arr[pick, 2]))
    return triple, len(arr)


def _input_steps(layer: ConvLayer, triple: Triple) -> int:
    tn, ti, tj = triple
    return (
        ceil_div(layer.in_maps, tn)
        * ceil_div(layer.kernel, ti)
        * ceil_div(layer.kernel, tj)
    )


def _output_steps(layer: ConvLayer, triple: Triple) -> int:
    tm, tr, tc = triple
    return (
        ceil_div(layer.out_maps, tm)
        * ceil_div(layer.out_size, tr)
        * ceil_div(layer.out_size, tc)
    )


def coupled_input_triple(
    prev_output: Triple, layer: ConvLayer, array_dim: int
) -> Optional[Triple]:
    """Layer ``i+1``'s coupled ``(Tn, Ti, Tj)`` given layer ``i``'s output triple.

    The coupled triple is the previous ``(Tm, Tr, Tc)`` clamped to this
    layer's dimension bounds; returns ``None`` when the clamped triple
    still violates the ``<= D`` packing constraint (coupling infeasible).
    """
    tn = min(prev_output[0], layer.in_maps)
    ti = min(prev_output[1], layer.kernel)
    tj = min(prev_output[2], layer.kernel)
    if tn * ti * tj > array_dim:
        return None
    return (tn, ti, tj)


def relayout_penalty_cycles(layer: ConvLayer, array_dim: int) -> int:
    """Cycles to re-arrange a layer's input in the neuron buffer.

    Breaking the IADP coupling means the previous layer's results sit in
    the wrong bank format; re-placing them costs one pass of the input
    volume through the ``D``-banked buffer (read + write, ``D`` words per
    cycle).
    """
    words = layer.num_input_words
    return 2 * ceil_div(words, array_dim)


# -- single-layer mapping -----------------------------------------------------


def map_layer(
    layer: ConvLayer,
    array_dim: int,
    *,
    tr_tc_bound: Optional[int] = None,
    fixed_input_triple: Optional[Triple] = None,
    mask: Optional[AvailabilityMask] = None,
) -> LayerMapping:
    """Best mapping of one layer in isolation (greedy, no inter-layer DP).

    Results are memoized: the enumeration depends only on the (frozen)
    layer spec, ``D``, the two constraints, and the (hashable) fault
    mask, and :class:`LayerMapping` is immutable, so repeated experiments
    share one search.  A masked configuration never reuses an unmasked
    configuration's cache entry — the mask is part of the key.

    Args:
        layer: the CONV layer.
        array_dim: ``D``.
        tr_tc_bound: Eq. 1's ``P * K'`` bound, if the layer has a successor.
        fixed_input_triple: force ``(Tn, Ti, Tj)`` (used to honour coupling
            with a predecessor).
        mask: optional PE availability mask; parallelism is packed into
            its live subgrid while utilization stays measured against the
            full ``D x D`` fabric.
    """
    layer_cache, _ = _mapping_caches()
    before = layer_cache.cache_info()
    result = layer_cache(
        layer, array_dim, tr_tc_bound, fixed_input_triple, mask
    )
    _record_cache_outcome("layer_cache", before, layer_cache.cache_info())
    return result


def _map_layer_impl(
    layer: ConvLayer,
    array_dim: int,
    tr_tc_bound: Optional[int],
    fixed_input_triple: Optional[Triple],
    mask: Optional[AvailabilityMask],
) -> LayerMapping:
    # Spans/metrics here describe the actual enumeration, so they appear
    # once per *distinct* search — cache hits are visible only as
    # ``mapper.layer_cache{outcome=hit}`` counts (see map_layer).
    tracer = current_tracer()
    with tracer.span(
        f"map:{layer.name}",
        category="mapper",
        labels={"dim": str(array_dim)},
    ) as span:
        row_limit, col_limit = _usable_limits(array_dim, mask)
        if fixed_input_triple is None:
            best_in, _, n_input_candidates = _best_input_batched(
                layer, col_limit
            )
        else:
            best_in = fixed_input_triple
            n_input_candidates = 0  # coupled: no intra-row search ran
            tn, ti, tj = best_in
            if tn * ti * tj > col_limit:
                raise MappingError(
                    f"{layer.name}: fixed input triple {best_in} exceeds the"
                    f" {col_limit} usable columns"
                )
        # Tie-break equal-cycle choices toward larger Tm: fewer output-map tile
        # groups means each input word is re-broadcast fewer times.
        best_out, n_output_candidates = _best_output_batched(
            layer, row_limit, tr_tc_bound
        )
        factors = UnrollingFactors(
            tm=best_out[0], tn=best_in[0], tr=best_out[1], tc=best_out[2],
            ti=best_in[1], tj=best_in[2],
        )
        factors.check(
            layer,
            array_dim,
            tr_tc_bound=tr_tc_bound,
            max_rows=row_limit,
            max_cols=col_limit,
        )
        REGISTRY.counter("mapper.layers_mapped").inc()
        REGISTRY.histogram("mapper.candidates", side="input").observe(
            n_input_candidates
        )
        REGISTRY.histogram("mapper.candidates", side="output").observe(
            n_output_candidates
        )
        if tracer.enabled:
            span.add_counters(
                {
                    "input_candidates": n_input_candidates,
                    "output_candidates": n_output_candidates,
                    "compute_cycles": factors.outer_iterations(layer),
                }
            )
        return LayerMapping(
            layer=layer,
            factors=factors,
            array_dim=array_dim,
            utilization=utilization_report(layer, factors, array_dim),
            compute_cycles=factors.outer_iterations(layer),
        )


# -- whole-network mapping (the Section 5 compiler pass) -----------------------


def map_network(
    network: Network,
    array_dim: int,
    *,
    mask: Optional[AvailabilityMask] = None,
) -> NetworkMapping:
    """Jointly map every CONV layer, minimizing total cycles.

    Dynamic program over each layer's output triple.  The transition from
    layer ``i`` (output triple ``P``) to layer ``i+1`` chooses between

    * the *coupled* input triple derived from ``P`` (no penalty), and
    * the best *free* input triple plus a buffer re-layout penalty,

    whichever yields fewer total cycles.  Transitions are bucketed by the
    coupled triple's step count, so the DP is ``O(layers * |outs| * |steps|)``
    rather than quadratic in the candidate sets.

    Results are memoized on ``(network, D, mask)`` — :class:`Network`
    equality is structural, so re-parsing the same workload still hits the
    cache, and a masked configuration never shares an unmasked entry.
    Behind the in-memory memo sits the persistent result cache
    (:mod:`repro.cache`): a DP search that any prior run (or a sibling
    worker process) already solved restores from disk instead of
    re-enumerating.
    """
    _, network_cache = _mapping_caches()
    before = network_cache.cache_info()
    result = network_cache(network, array_dim, mask)
    _record_cache_outcome(
        "network_cache", before, network_cache.cache_info()
    )
    return result


@lru_cache(maxsize=4096)
def _map_network_request_key(
    network: Network,
    array_dim: int,
    mask: Optional[AvailabilityMask],
) -> str:
    """Persistent-cache key for one mapping request, memoized by value.

    The key is pure in its (hashable, frozen) inputs and the schema
    constant, so the memo can never go stale — and unlike the mapping
    memos it survives :func:`clear_mapping_cache`, sparing repeated
    sweeps the canonical-JSON + SHA-256 cost per lookup.
    """
    return hash_payload(
        "map_network",
        {
            "network": network_payload(network),
            "array_dim": array_dim,
            "mask": mask_payload(mask),
        },
    )


def _map_network_impl(
    network: Network,
    array_dim: int,
    mask: Optional[AvailabilityMask],
) -> NetworkMapping:
    cache = active_cache()
    key = None
    if cache is not None:
        key = _map_network_request_key(network, array_dim, mask)
        stored = cache.get("map_network", key)
        if stored is not None:
            restored = _network_mapping_from_payload(
                network, array_dim, stored
            )
            if restored is not None:
                return restored
    with current_tracer().span(
        f"map_network:{network.name}",
        category="mapper",
        labels={"dim": str(array_dim)},
    ) as network_span:
        result = _map_network_search(network, array_dim, mask, network_span)
    if cache is not None:
        cache.put("map_network", key, _network_mapping_payload(result))
    return result


def _network_mapping_payload(result: NetworkMapping) -> Dict[str, Any]:
    """A NetworkMapping reduced to what the restore path cannot recompute."""
    return {
        "layers": [
            {
                "name": m.layer.name,
                "factors": factors_payload(m.factors),
                "relayout_cycles": m.relayout_cycles,
            }
            for m in result.layers
        ],
    }


def _network_mapping_from_payload(
    network: Network, array_dim: int, payload: Any
) -> Optional[NetworkMapping]:
    """Rebuild a NetworkMapping from its cached factors, or ``None``.

    Utilization reports and cycle counts are recomputed from the factors
    (cheap closed forms), so only the DP's *choices* are trusted from
    disk; any inconsistency — wrong layer list, infeasible factors,
    malformed entry — falls back to re-running the search.
    """
    contexts = network.conv_contexts()
    try:
        entries = payload["layers"]
        if len(entries) != len(contexts):
            return None
        mappings = []
        for ctx, entry in zip(contexts, entries):
            if entry["name"] != ctx.layer.name:
                return None
            factors = UnrollingFactors(
                **{k: int(v) for k, v in entry["factors"].items()}
            )
            factors.check(ctx.layer, array_dim, tr_tc_bound=ctx.tr_tc_bound)
            mappings.append(
                LayerMapping(
                    layer=ctx.layer,
                    factors=factors,
                    array_dim=array_dim,
                    utilization=utilization_report(
                        ctx.layer, factors, array_dim
                    ),
                    compute_cycles=factors.outer_iterations(ctx.layer),
                    relayout_cycles=int(entry["relayout_cycles"]),
                )
            )
    except (KeyError, TypeError, ValueError, AttributeError, ReproError):
        return None
    return NetworkMapping(
        network_name=network.name,
        array_dim=array_dim,
        layers=tuple(mappings),
    )


def _map_network_search(
    network: Network,
    array_dim: int,
    mask: Optional[AvailabilityMask],
    network_span,
) -> NetworkMapping:
    contexts = network.conv_contexts()
    if not contexts:
        raise MappingError(f"network {network.name!r} has no CONV layers")
    row_limit, col_limit = _usable_limits(array_dim, mask)

    suite = active_kernels()
    if suite is not None:
        final_cost, final_trace, counters = _search_kernel(
            contexts, array_dim, row_limit, col_limit, suite
        )
    else:
        final_cost, final_trace, counters = _search_batched(
            contexts, array_dim, row_limit, col_limit
        )
    mappings: List[LayerMapping] = []
    for ctx, (in_triple, out_triple, relayout) in zip(contexts, final_trace):
        factors = UnrollingFactors(
            tm=out_triple[0], tn=in_triple[0], tr=out_triple[1],
            tc=out_triple[2], ti=in_triple[1], tj=in_triple[2],
        )
        factors.check(
            ctx.layer,
            array_dim,
            tr_tc_bound=ctx.tr_tc_bound,
            max_rows=row_limit,
            max_cols=col_limit,
        )
        mappings.append(
            LayerMapping(
                layer=ctx.layer,
                factors=factors,
                array_dim=array_dim,
                utilization=utilization_report(ctx.layer, factors, array_dim),
                compute_cycles=factors.outer_iterations(ctx.layer),
                relayout_cycles=relayout,
            )
        )
    result = NetworkMapping(
        network_name=network.name, array_dim=array_dim, layers=tuple(mappings)
    )
    assert result.total_cycles == final_cost, "DP cost must match reconstruction"
    REGISTRY.counter("mapper.networks_mapped").inc()
    span_counters = {
        "conv_layers": len(contexts),
        "total_cycles": result.total_cycles,
        "relayouts": sum(1 for m in result.layers if not m.coupled),
    }
    span_counters.update(counters)
    network_span.add_counters(span_counters)
    return result


@lru_cache(maxsize=None)
def _useful_arr(dim: int) -> np.ndarray:
    """``useful_values(dim, dim)`` as a read-only sorted int64 array."""
    arr = np.array(_useful_cached(dim, dim), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _search_kernel(
    contexts, array_dim: int, row_limit: int, col_limit: int, suite
) -> Tuple[int, tuple, Dict[str, int]]:
    """The whole-network search in one fused compiled-kernel call.

    Ships every layer's dimension extents plus the per-dimension
    useful-value pool to ``map_network_dp``, which enumerates the FULL
    output-candidate sets, picks each layer's best free input, and runs
    the coupling DP — all inside the kernel.  The DP is a direct port of
    the reference loops in ``tests/dse_oracle.py`` (strict-``<``
    first-wins updates, transition buckets in first-appearance order,
    final ``(cost, ceil(M/Tm), triple)`` tie-break); its only deviation
    is pruning transition buckets whose ``(cost, fin)`` is dominated,
    which provably never changes any winner.  Bit-identical to
    :func:`_search_batched` (pinned by ``tests/test_dse_differential.py``).
    """
    n_layers = len(contexts)
    pool: Dict[int, int] = {}
    chunks: List[np.ndarray] = []
    pos = 0

    def intern(dim: int) -> Tuple[int, int]:
        nonlocal pos
        offset = pool.get(dim)
        arr = _useful_arr(dim)
        if offset is None:
            pool[dim] = offset = pos
            chunks.append(arr)
            pos += len(arr)
        return offset, len(arr)

    rows = []
    for i, ctx in enumerate(contexts):
        layer = ctx.layer
        m, s = layer.out_maps, layer.out_size
        n, k = layer.in_maps, layer.kernel
        bound = s if ctx.tr_tc_bound is None else min(s, ctx.tr_tc_bound)
        rows.append(
            (m, s, n, k, bound,
             relayout_penalty_cycles(layer, array_dim) if i else 0)
            + intern(m) + intern(s) + intern(n) + intern(k)
        )
    spec = np.array(rows, dtype=np.int64)
    uvals = np.concatenate(chunks)
    in_out, out_out, relayout, final_cost, total = suite.map_network_dp(
        uvals, spec, row_limit, col_limit
    )
    count_kernel_call("map_network_dp", suite.backend)
    trace = tuple(
        (
            (int(in_out[i, 0]), int(in_out[i, 1]), int(in_out[i, 2])),
            (int(out_out[i, 0]), int(out_out[i, 1]), int(out_out[i, 2])),
            int(relayout[i]),
        )
        for i in range(n_layers)
    )
    counters = {
        "output_candidates": int(total),
        "configs_evaluated": int(total),
    }
    return final_cost, trace, counters


def _pruned_layer_outs(
    layer: ConvLayer,
    tr_tc_bound: Optional[int],
    row_limit: int,
    col_limit: int,
    next_layer: Optional[ConvLayer],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One layer's output candidates, Pareto-pruned for the coupling DP.

    Every output candidate of a layer shares the same downstream option
    set (the coupled/free transition costs of the *next* layer), and each
    of those costs is strictly increasing in the candidate's step count
    ``fout``.  Two candidates that induce the same coupled input triple
    for the next layer (the DP's transition bucket, with infeasible
    coupling as a shared ``None`` bucket) are therefore totally ordered:
    only the bucket's earliest minimum-``fout`` member can ever win the
    bucket or the global best-predecessor slot, with ties resolved to the
    earliest candidate in lexicographic order — exactly the reference
    DP's strict-``<`` first-wins updates.  For the last layer the final
    selection key ``(cost, ceil(M/Tm), triple)`` collapses the whole set
    to a single survivor the same way.

    Returns ``(kept_triples, kept_fout, coupled_arr, coupled_ok,
    kept_bucket_first, n_full)`` with kept entries in candidate
    (lexicographic) order; ``coupled_arr[i]`` is the coupled triple the
    entry offers the next layer (valid only where ``coupled_ok[i]`` —
    infeasible coupling and the last layer share the all-false bucket)
    and ``kept_bucket_first[i]`` the position where the entry's bucket
    *first appears* in the full candidate list — the reference DP's
    bucket-visit order, which decides exact cost ties in Option A.
    """
    dims, caps = _output_space(layer, tr_tc_bound)
    arr = candidate_array(dims, row_limit, caps)
    fout = _steps_array(dims, arr)
    n_full = len(arr)
    if next_layer is None:
        # Final layer: the selection key (cost, ceil(M/Tm), triple) with
        # cost strictly increasing in fout keeps exactly one candidate.
        # argmin of the packed (fout, ceil_m) key is the lexicographic
        # first minimum, matching the reference tie-break chain.
        ceil_m = -(-layer.out_maps // arr[:, 0])
        pick = int(np.argmin(fout * (np.int64(layer.out_maps) + 1) + ceil_m))
        keep = np.asarray([pick])
        return (
            arr[keep],
            fout[keep],
            np.zeros((1, 3), dtype=np.int64),
            np.zeros(1, dtype=bool),
            keep,
            n_full,
        )
    tn = np.minimum(arr[:, 0], next_layer.in_maps)
    ti = np.minimum(arr[:, 1], next_layer.kernel)
    tj = np.minimum(arr[:, 2], next_layer.kernel)
    feasible = (tn * ti * tj) <= col_limit
    # Each bucket is (feasible, tn, ti, tj); the factors are bounded by
    # the next layer's extents, so packing them into one int64 (with -1
    # for the shared infeasible bucket) is collision-free and lets the
    # grouping run as a 1-D unique instead of a row-wise one.
    span = np.int64(next_layer.kernel) + 1
    codes = np.where(feasible, (tn * span + ti) * span + tj, np.int64(-1))
    _, inv = np.unique(codes, return_inverse=True)
    inv = inv.reshape(-1)
    # Group by bucket, order by (fout, position) inside each group; the
    # first row of each group is its earliest minimum-fout member.
    # Stable argsort of the packed (inv, fout) key gives exactly that
    # (positions break remaining ties by stability); a second stable
    # pass on inv alone yields each bucket's first appearance (same
    # primary key, so the group boundaries coincide).
    order = np.argsort(inv * (np.int64(fout.max()) + 1) + fout, kind="stable")
    grouped = inv[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    winners = order[starts]
    bucket_first = np.argsort(inv, kind="stable")[starts]
    by_position = np.argsort(winners)
    keep = winners[by_position]
    return (
        arr[keep],
        fout[keep],
        np.stack([tn[keep], ti[keep], tj[keep]], axis=1),
        feasible[keep],
        bucket_first[by_position],
        n_full,
    )


def _search_batched(
    contexts, array_dim: int, row_limit: int, col_limit: int
) -> Tuple[int, tuple, Dict[str, int]]:
    """The vectorized coupling DP over Pareto-pruned candidate sets.

    Produces bit-identical mappings to the full-candidate reference DP
    in ``tests/dse_oracle.py``: the pruning argument lives in
    :func:`_pruned_layer_outs`, and every argmin below resolves ties the
    way the reference strict-``<`` loops do (first occurrence, with
    buckets visited in first-appearance order).
    """
    first = contexts[0].layer
    next_layer = contexts[1].layer if len(contexts) > 1 else None
    outs, fout, coupled_arr, coupled_ok, bucket_first, n_full = _pruned_layer_outs(
        first, contexts[0].tr_tc_bound, row_limit, col_limit, next_layer
    )
    free_in_first, fin_first, _ = _best_input_batched(first, col_limit)
    state_cost = fout * fin_first
    state_coupled_arr = coupled_arr
    state_coupled_ok = coupled_ok
    state_bucket_first = bucket_first
    first_outs_list = outs.tolist()
    total_candidates = n_full
    kept_candidates = len(outs)
    # One backpointer record per non-first layer; the single surviving
    # final candidate's trace is reconstructed from them afterwards
    # instead of materializing a trace tuple per live candidate per layer.
    records = []

    for idx in range(1, len(contexts)):
        layer = contexts[idx].layer
        free_in, fin_free, _ = _best_input_batched(layer, col_limit)
        penalty = relayout_penalty_cycles(layer, array_dim)
        next_layer = contexts[idx + 1].layer if idx + 1 < len(contexts) else None
        outs, fout, coupled_arr, coupled_ok, bucket_first, n_full = _pruned_layer_outs(
            layer, contexts[idx].tr_tc_bound, row_limit, col_limit, next_layer
        )
        total_candidates += n_full
        kept_candidates += len(outs)

        # The reference DP visits transition buckets in first-appearance
        # order and updates on strict <, so exact cost ties resolve to
        # the bucket appearing earliest in the full candidate list.
        feas = np.flatnonzero(state_coupled_ok)
        feas = feas[np.argsort(state_bucket_first[feas], kind="stable")]
        if feas.size:
            fin_coupled = _steps_array(
                (layer.in_maps, layer.kernel, layer.kernel),
                state_coupled_arr[feas],
            )
            prev_costs = state_cost[feas]
            # (n_buckets, n_outs) transition matrix; first-occurrence
            # argmin reproduces the strict-< bucket scan.
            cost_a = prev_costs[:, None] + fin_coupled[:, None] * fout[None, :]
            pick_a = np.argmin(cost_a, axis=0)
            best_a = cost_a[pick_a, np.arange(len(outs))]
        # Option B: break coupling from the globally best predecessor.
        # State entries sit in ascending candidate-position order, so
        # argmin's first-minimum is the reference items() scan's tie-break.
        best_prev = int(np.argmin(state_cost))
        cost_b = state_cost[best_prev] + fin_free * fout + penalty

        if feas.size:
            use_b = cost_b < best_a
            new_cost = np.where(use_b, cost_b, best_a)
            pick_a_list = pick_a.tolist()
        else:
            use_b = np.ones(len(outs), dtype=bool)
            new_cost = cost_b
            pick_a_list = []
        records.append(
            (
                use_b.tolist(),
                pick_a_list,
                feas.tolist(),
                best_prev,
                free_in,
                penalty,
                state_coupled_arr,
                outs.tolist(),
            )
        )
        state_cost = new_cost
        state_coupled_arr = coupled_arr
        state_coupled_ok = coupled_ok
        state_bucket_first = bucket_first

    # The last layer was pruned to the reference DP's unique final pick;
    # walk the backpointers from it to rebuild the winning trace.
    assert len(state_cost) == 1
    j = 0
    steps_rev = []
    for use_b, pick_a, feasible_idx, best_prev, free_in, penalty, prev_coupled, outs_list in reversed(
        records
    ):
        out_triple = tuple(outs_list[j])
        if use_b[j]:
            steps_rev.append((free_in, out_triple, penalty))
            j = best_prev
        else:
            winner = feasible_idx[pick_a[j]]
            coupled_in = tuple(prev_coupled[winner].tolist())
            steps_rev.append((coupled_in, out_triple, 0))
            j = winner
    steps_rev.append((free_in_first, tuple(first_outs_list[j]), 0))
    counters = {
        "output_candidates": total_candidates,
        "candidates_pruned": total_candidates - kept_candidates,
        "configs_evaluated": kept_candidates,
    }
    return int(state_cost[0]), tuple(reversed(steps_rev)), counters


# -- cache management ---------------------------------------------------------

_map_layer_cached = None
_map_network_cached = None


def _mapping_caches():
    """The two ``lru_cache`` wrappers, built on first use.

    Building lazily (instead of at import) lets a bad
    ``REPRO_MAPPING_CACHE_SIZE`` surface as a catchable one-line
    :class:`~repro.errors.ConfigurationError` instead of an import-time
    traceback, and lets :func:`clear_mapping_cache` re-read the
    environment.
    """
    global _map_layer_cached, _map_network_cached
    if _map_layer_cached is None:
        size = mapping_cache_size()
        _map_layer_cached = lru_cache(maxsize=size)(_map_layer_impl)
        _map_network_cached = lru_cache(maxsize=max(1, size // 16))(
            _map_network_impl
        )
    return _map_layer_cached, _map_network_cached


def mapping_cache_info() -> Dict[str, object]:
    """``functools`` cache statistics for both memoized mapping searches.

    The ``map_layer``/``map_network`` values are ``cache_info()``
    snapshots (their ``maxsize`` reflects ``REPRO_MAPPING_CACHE_SIZE``);
    ``configured_size`` is the raw configured bound.
    """
    layer_cache, network_cache = _mapping_caches()
    return {
        "map_layer": layer_cache.cache_info(),
        "map_network": network_cache.cache_info(),
        "candidates": _candidate_cache.cache_info(),
        "configured_size": mapping_cache_size(),
    }


def clear_mapping_cache() -> None:
    """Drop all memoized mapping results (tests and benchmarks use this).

    The caches are rebuilt on next use, re-reading
    ``REPRO_MAPPING_CACHE_SIZE`` — so changing the env var mid-process
    takes effect after a clear.
    """
    global _map_layer_cached, _map_network_cached
    _map_layer_cached = None
    _map_network_cached = None
    _candidate_cache.cache_clear()
    _candidate_tuples.cache_clear()
    _useful_cached.cache_clear()
    _useful_arr.cache_clear()
    _best_input_cached.cache_clear()
