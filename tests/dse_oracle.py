"""Plain-Python reference for the Section 5 coupling DP and its extension.

The fast paths — the mapper's vectorized NumPy DP, the compiled
``map_network_dp`` kernel, and the per-layer dataflow solver — all prune
candidates and vectorize their scans.  This module is the full-candidate
DP they are proven against.  It enumerates with ``iter_triples``, scores
with integer ceil-divisions, and keeps every candidate, so it shares none
of the NumPy helpers it checks.  Its tie-break rules are the contract:

* predecessor states are scanned in candidate (lexicographic) order;
* transition buckets (the coupled input triple a predecessor offers the
  next layer) keep first-appearance order and update on strict ``<``;
* breaking the coupling, and entering FlexFlow from an extern state, win
  only on strict ``<``;
* the last layer's FlexFlow pick minimizes ``(cost, ceil(M/Tm), triple)``
  and an extern state replaces it only on strict ``<``.

With no extern states the per-layer DP *is* the mapper's DP, so one
:func:`solve` serves both.
"""

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.technology import TechnologyModel
from repro.dataflow.unrolling import useful_values
from repro.dse import (
    EXTERN_FAMILIES,
    ExternState,
    LayerChoice,
    PerLayerPlan,
    ReconfigCostModel,
    extern_layer_cycles,
    family_param_states,
)
from repro.errors import MappingError
from repro.faults.mask import AvailabilityMask, live_grid
from repro.nn.layers import ConvLayer
from repro.nn.network import Network

Triple = Tuple[int, int, int]
#: ``(family, params, in_triple, out_triple, reconfig_cycles, kind)``.
Step = Tuple[str, Tuple[int, ...], Optional[Triple], Optional[Triple], int, str]


def iter_triples(
    dims: Triple, product_limit: int, caps: Triple
) -> Iterator[Triple]:
    """All useful ``(a, b, c)`` factor triples with ``a*b*c <= product_limit``.

    ``dims`` are the three loop extents, ``caps`` per-factor upper bounds
    (e.g. the ``P*K'`` bound on ``Tr``/``Tc``).  Only Pareto-useful values
    per dimension are enumerated (see
    :func:`~repro.dataflow.unrolling.useful_values`), level by level.
    """
    if product_limit <= 0:
        raise MappingError("product_limit must be positive")
    for a in useful_values(dims[0], min(caps[0], product_limit)):
        limit_b = product_limit // a
        if limit_b == 0:
            continue
        for b in useful_values(dims[1], min(caps[1], limit_b)):
            limit_c = product_limit // (a * b)
            if limit_c == 0:
                continue
            for c in useful_values(dims[2], min(caps[2], limit_c)):
                yield (a, b, c)


def cdiv(a: int, b: int) -> int:
    return -(-a // b)


def steps(dims: Triple, triple: Triple) -> int:
    return (
        cdiv(dims[0], triple[0])
        * cdiv(dims[1], triple[1])
        * cdiv(dims[2], triple[2])
    )


def in_dims(layer: ConvLayer) -> Triple:
    return (layer.in_maps, layer.kernel, layer.kernel)


def out_dims(layer: ConvLayer) -> Triple:
    return (layer.out_maps, layer.out_size, layer.out_size)


def best_input(layer: ConvLayer, col_limit: int) -> Tuple[Triple, int]:
    """The free ``(Tn, Ti, Tj)`` choice and its step count."""
    dims = in_dims(layer)
    ins = sorted(set(iter_triples(dims, col_limit, dims)))
    best = min(ins, key=lambda t: (steps(dims, t), t))
    return best, steps(dims, best)


def output_candidates(
    layer: ConvLayer, row_limit: int, tr_tc_bound: Optional[int]
) -> List[Triple]:
    bound = layer.out_size if tr_tc_bound is None else min(
        layer.out_size, tr_tc_bound
    )
    caps = (layer.out_maps, bound, bound)
    return sorted(set(iter_triples(out_dims(layer), row_limit, caps)))


def best_output(
    layer: ConvLayer, row_limit: int, tr_tc_bound: Optional[int] = None
) -> Triple:
    """The greedy ``(Tm, Tr, Tc)`` choice (ties toward larger ``Tm``)."""
    dims = out_dims(layer)
    return min(
        output_candidates(layer, row_limit, tr_tc_bound),
        key=lambda t: (steps(dims, t), cdiv(layer.out_maps, t[0]), t),
    )


def usable_limits(
    array_dim: int, mask: Optional[AvailabilityMask]
) -> Optional[Tuple[int, int]]:
    """``(rows, cols)`` left by the mask, or ``None`` if nothing survives."""
    if mask is None or mask.is_healthy:
        return array_dim, array_dim
    grid = live_grid(mask)
    if grid.usable_rows == 0 or grid.usable_cols == 0:
        return None
    return grid.usable_rows, grid.usable_cols


def solve(
    contexts,
    array_dim: int,
    row_limit: int,
    col_limit: int,
    states: Sequence[ExternState] = (),
    ext: Sequence[Sequence[int]] = (),
    cost_model: Optional[ReconfigCostModel] = None,
) -> Tuple[int, Tuple[Step, ...]]:
    """``(total_cycles, per-layer trace)`` of the exact coupling DP.

    ``ext[s][i]`` is layer ``i``'s cycles under extern state ``s``.
    Every option list below is built in the contract's scan order, and
    ``min`` returns the first minimum, which is a strict-``<`` scan.
    """
    first = contexts[0].layer
    free_in, fin = best_input(first, col_limit)
    ff = {
        out: (steps(out_dims(first), out) * fin,
              (("flexflow", (), free_in, out, 0, ""),))
        for out in output_candidates(first, row_limit, contexts[0].tr_tc_bound)
    }
    ex = [
        (ext[s][0], ((st.family, st.params, None, None, 0, ""),))
        for s, st in enumerate(states)
    ]
    for idx in range(1, len(contexts)):
        layer = contexts[idx].layer
        free_in, fin_free = best_input(layer, col_limit)
        penalty = 2 * cdiv(layer.num_input_words, array_dim)
        fam_sw = cost_model.family_switch_cycles(layer) if states else 0
        par_sw = cost_model.param_switch_cycles(layer) if states else 0

        buckets: Dict[Optional[Triple], tuple] = {}
        for prev_out, entry in ff.items():
            tn = min(prev_out[0], layer.in_maps)
            ti = min(prev_out[1], layer.kernel)
            tj = min(prev_out[2], layer.kernel)
            key = (tn, ti, tj) if tn * ti * tj <= col_limit else None
            if key not in buckets or entry[0] < buckets[key][0]:
                buckets[key] = entry
        best_ff = min(ff.values(), key=lambda e: e[0])
        best_ex = min(ex, key=lambda e: e[0]) if ex else None

        new_ff = {}
        for out in output_candidates(layer, row_limit, contexts[idx].tr_tc_bound):
            fout = steps(out_dims(layer), out)
            options = [
                (cost + fout * steps(in_dims(layer), key), trace, key, 0, "")
                for key, (cost, trace) in buckets.items()
                if key is not None
            ]
            options.append((best_ff[0] + fout * fin_free + penalty,
                            best_ff[1], free_in, penalty, "relayout"))
            if best_ex is not None:
                options.append((best_ex[0] + fout * fin_free + fam_sw,
                                best_ex[1], free_in, fam_sw, "family"))
            cost, trace, tin, reconf, kind = min(options, key=lambda o: o[0])
            new_ff[out] = (cost, trace + (("flexflow", (), tin, out, reconf, kind),))

        new_ex = []
        for s, st in enumerate(states):
            options = [(ex[s][0], ex[s][1], 0, "")]
            options += [
                (ex[o][0] + par_sw, ex[o][1], par_sw, "param")
                for o, other in enumerate(states)
                if o != s and other.family == st.family
            ]
            options += [
                (ex[o][0] + fam_sw, ex[o][1], fam_sw, "family")
                for o, other in enumerate(states)
                if other.family != st.family
            ]
            options.append((best_ff[0] + fam_sw, best_ff[1], fam_sw, "family"))
            cost, trace, reconf, kind = min(options, key=lambda o: o[0])
            step = (st.family, st.params, None, None, reconf, kind)
            new_ex.append((cost + ext[s][idx], trace + (step,)))
        ff, ex = new_ff, new_ex

    last = contexts[-1].layer
    ff_final = min(
        ff.items(),
        key=lambda item: (item[1][0], cdiv(last.out_maps, item[0][0]), item[0]),
    )[1]
    return min([ff_final, *ex], key=lambda e: e[0])


def factor_triples(factors) -> Tuple[Triple, Triple]:
    """``((Tn, Ti, Tj), (Tm, Tr, Tc))`` of an ``UnrollingFactors``."""
    f = factors
    return (f.tn, f.ti, f.tj), (f.tm, f.tr, f.tc)


def mapping_trace(mapping) -> Tuple[int, List[Tuple[Triple, Triple, int]]]:
    """A fast-path ``NetworkMapping`` in :func:`map_network`'s form."""
    return mapping.total_cycles, [
        (*factor_triples(m.factors), m.relayout_cycles) for m in mapping.layers
    ]


def map_network(
    network: Network,
    array_dim: int,
    mask: Optional[AvailabilityMask] = None,
) -> Optional[Tuple[int, List[Tuple[Triple, Triple, int]]]]:
    """``(total_cycles, [(in_triple, out_triple, relayout), ...])``.

    ``None`` when the mask leaves no usable subgrid (the mapper raises
    ``MappingError`` there).
    """
    limits = usable_limits(array_dim, mask)
    if limits is None:
        return None
    total, trace = solve(network.conv_contexts(), array_dim, *limits)
    return total, [(tin, tout, reconf) for _, _, tin, tout, reconf, _ in trace]


def solve_per_layer(
    network: Network, array_dim: int, reconfig_scale: float = 1.0
) -> PerLayerPlan:
    """The per-layer plan, assembled exactly as the solver reports it."""
    contexts = network.conv_contexts()
    layers = [ctx.layer for ctx in contexts]
    states = family_param_states(layers, array_dim)
    ext = [
        [extern_layer_cycles(st, layer, array_dim * array_dim) for layer in layers]
        for st in states
    ]
    model = ReconfigCostModel(array_dim, reconfig_scale)
    total, trace = solve(contexts, array_dim, array_dim, array_dim,
                         states, ext, model)

    fixed_totals = {"flexflow": map_network(network, array_dim)[0]}
    fixed_params = {"flexflow": "coupling DP"}
    for family in EXTERN_FAMILIES:
        _, s = min(
            (sum(ext[s]), s) for s, st in enumerate(states) if st.family == family
        )
        fixed_totals[family] = sum(ext[s])
        fixed_params[family] = states[s].label

    choices = []
    for idx, (layer, (family, params, tin, tout, reconf, kind)) in enumerate(
        zip(layers, trace)
    ):
        if family == "flexflow":
            compute = steps(out_dims(layer), tout) * steps(in_dims(layer), tin)
        else:
            compute = ext[states.index(ExternState(family, params))][idx]
        choices.append(
            LayerChoice(layer, family, params, tin, tout, compute, reconf, kind)
        )
    technology = TechnologyModel()
    plan = PerLayerPlan(
        network_name=network.name,
        array_dim=array_dim,
        reconfig_scale=reconfig_scale,
        choices=tuple(choices),
        fixed_totals=fixed_totals,
        fixed_params=fixed_params,
        reconfig_energy_pj=sum(
            model.switch_energy_pj(c.reconfig_kind, technology) for c in choices
        ),
    )
    assert plan.total_cycles == total
    return plan
