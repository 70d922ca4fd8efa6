"""Per-layer engine-family and dataflow selection as one exact DP.

Extends the mapper's Pareto-pruned coupling DP
(:mod:`repro.dataflow.mapper`) with *extern* states — one per (rigid
engine family, dataflow parameterization) pair — so every CONV layer
independently picks FlexFlow unrolling factors **or** a rigid dataflow,
with the reconfiguration-cost model (:mod:`repro.dse.reconfig`) charged
at every boundary where the configuration changes.

State space per layer:

* **FlexFlow states** — the mapper's output triples ``<Tm,Tr,Tc>``,
  with the existing coupled / break-coupling transitions priced exactly
  as :func:`~repro.dataflow.mapper.map_network` prices them.
* **Extern states** — ``(family, params)`` over a small deterministic
  grid: systolic / pipelined-systolic array sizes ``Ta`` drawn from the
  network's kernel sizes (plus the paper's 6 and 11 where they fit),
  2D-Mapping block sizes from the output-map sizes, and Tiling
  ``<Tm,Tn>`` splits of the PE budget.

Transitions: staying in the same extern configuration is free; a
parameter change costs ``param_switch``; crossing families (in either
direction, including to/from FlexFlow) costs ``family_switch``.

The mapper's pruning argument survives the extension unchanged: every
new option entering a FlexFlow candidate is of the form
``a + b * fout`` with shared ``a, b > 0``, and every option *leaving* a
FlexFlow state depends on it only through its cost — so per-bucket
minimum-``fout`` pruning and the last layer's single-survivor collapse
stay exact.  The solver therefore reuses
:func:`~repro.dataflow.mapper._pruned_layer_outs` wholesale and scores
extern states with the accelerator modules' own ``*_layer_cycles``
closed forms.  It is pinned bit-for-bit against the full-candidate
plain-Python reference DP in ``tests/dse_oracle.py``.

Restricted to FlexFlow states only, the DP *is* the mapper's DP — so a
solved plan never exceeds any fixed-dataflow total, which the solver
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.mapping2d import mapping2d_layer_cycles
from repro.accelerators.pipeline import pipeline_layer_cycles
from repro.accelerators.systolic import systolic_layer_cycles
from repro.accelerators.tiling import tiling_layer_cycles
from repro.arch.technology import TechnologyModel
from repro.dataflow.mapper import (
    _best_input_batched,
    _input_steps,
    _output_steps,
    _pruned_layer_outs,
    _steps_array,
    _usable_limits,
    map_network,
    relayout_penalty_cycles,
)
from repro.dse.reconfig import ReconfigCostModel
from repro.errors import ConfigurationError, MappingError
from repro.nn.layers import ConvLayer
from repro.nn.network import Network
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer

Triple = Tuple[int, int, int]

#: Rigid engine families the DP can switch to, in deterministic
#: tie-break order; FlexFlow always precedes them.
EXTERN_FAMILIES = ("systolic", "pipeline", "mapping2d", "tiling")
FAMILY_ORDER = ("flexflow",) + EXTERN_FAMILIES


@dataclass(frozen=True)
class ExternState:
    """One rigid-dataflow configuration the fabric can switch into."""

    family: str
    params: Tuple[int, ...]

    @property
    def label(self) -> str:
        if self.family in ("systolic", "pipeline"):
            return f"Ta={self.params[0]}"
        if self.family == "mapping2d":
            return f"B={self.params[0]}"
        if self.family == "tiling":
            return f"Tm={self.params[0]},Tn={self.params[1]}"
        raise ConfigurationError(f"unknown extern family {self.family!r}")


def family_param_states(
    layers: Sequence[ConvLayer], array_dim: int
) -> Tuple[ExternState, ...]:
    """The deterministic extern-state grid for a set of CONV layers.

    Small by construction (a handful of parameterizations per family):
    the DP is exact over this grid, and the grid covers the values the
    paper's baselines actually use — kernel-matched and paper-sized
    ``Ta``, output-matched block sizes, and PE-budget-preserving tile
    splits.
    """
    kernels = {layer.kernel for layer in layers}
    ta_grid = sorted(
        {min(k, array_dim) for k in kernels}
        | {t for t in (6, 11) if t <= array_dim}
    )
    block_grid = sorted(
        {array_dim} | {min(layer.out_size, array_dim) for layer in layers}
    )
    tile_grid: List[Tuple[int, int]] = [(array_dim, array_dim)]
    half = array_dim // 2
    if half >= 1:
        tile_grid += [(2 * array_dim, half), (half, 2 * array_dim)]
    states: List[ExternState] = []
    states += [ExternState("systolic", (ta,)) for ta in ta_grid]
    states += [ExternState("pipeline", (ta,)) for ta in ta_grid]
    states += [ExternState("mapping2d", (b,)) for b in block_grid]
    states += [ExternState("tiling", pair) for pair in tile_grid]
    return tuple(states)


def extern_layer_cycles(
    state: ExternState, layer: ConvLayer, num_pes: int
) -> int:
    """One layer's cycles under one extern configuration (healthy array).

    Dispatches to the accelerator modules' closed forms, so the DP and
    ``make_accelerator(kind).simulate_layer`` cannot drift.
    """
    if state.family == "systolic":
        return systolic_layer_cycles(layer, state.params[0], num_pes)
    if state.family == "pipeline":
        return pipeline_layer_cycles(layer, state.params[0], num_pes)
    if state.family == "mapping2d":
        return mapping2d_layer_cycles(layer, state.params[0])
    if state.family == "tiling":
        return tiling_layer_cycles(layer, state.params[0], state.params[1])
    raise ConfigurationError(f"unknown extern family {state.family!r}")


def _extern_cycle_rows(
    states: Sequence[ExternState],
    layers: Sequence[ConvLayer],
    num_pes: int,
) -> List[List[int]]:
    """``rows[s][l]``: cycles of layer ``l`` under extern state ``s``."""
    return [
        [extern_layer_cycles(state, layer, num_pes) for layer in layers]
        for state in states
    ]


# -- plan datamodel -----------------------------------------------------------


@dataclass(frozen=True)
class LayerChoice:
    """One layer's selected engine configuration in a per-layer plan."""

    layer: ConvLayer
    family: str
    params: Tuple[int, ...]
    in_triple: Optional[Triple]
    out_triple: Optional[Triple]
    compute_cycles: int
    reconfig_cycles: int
    #: ``""`` (no change), ``"relayout"`` (FlexFlow coupling break),
    #: ``"param"`` (same family, new parameters), or ``"family"``.
    reconfig_kind: str

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.reconfig_cycles

    @property
    def label(self) -> str:
        """Human-readable configuration label for tables and traces."""
        if self.family == "flexflow":
            tm, tr, tc = self.out_triple
            tn, ti, tj = self.in_triple
            return f"out={tm}x{tr}x{tc} in={tn}x{ti}x{tj}"
        return ExternState(self.family, self.params).label


@dataclass(frozen=True)
class PerLayerPlan:
    """The solved per-layer schedule plus the fixed-dataflow yardsticks."""

    network_name: str
    array_dim: int
    reconfig_scale: float
    choices: Tuple[LayerChoice, ...]
    fixed_totals: Dict[str, int]
    fixed_params: Dict[str, str]
    reconfig_energy_pj: float

    @property
    def total_cycles(self) -> int:
        return sum(c.total_cycles for c in self.choices)

    @property
    def total_reconfig_cycles(self) -> int:
        return sum(c.reconfig_cycles for c in self.choices)

    @property
    def families(self) -> Tuple[str, ...]:
        """Distinct engine families used, in first-use order."""
        return tuple(dict.fromkeys(c.family for c in self.choices))

    @property
    def switches(self) -> int:
        """Boundaries where the configuration was reprogrammed."""
        return sum(
            1 for c in self.choices if c.reconfig_kind in ("param", "family")
        )

    @property
    def best_fixed_family(self) -> str:
        return min(
            self.fixed_totals,
            key=lambda fam: (self.fixed_totals[fam], FAMILY_ORDER.index(fam)),
        )

    @property
    def best_fixed_cycles(self) -> int:
        return self.fixed_totals[self.best_fixed_family]

    @property
    def speedup_vs_best_fixed(self) -> float:
        return self.best_fixed_cycles / self.total_cycles


def plan_payload(plan: PerLayerPlan) -> Dict[str, object]:
    """JSON-serializable view of a plan (serve responses, benchmarks)."""
    return {
        "network": plan.network_name,
        "array_dim": plan.array_dim,
        "reconfig_scale": plan.reconfig_scale,
        "total_cycles": plan.total_cycles,
        "reconfig_cycles": plan.total_reconfig_cycles,
        "reconfig_energy_pj": plan.reconfig_energy_pj,
        "switches": plan.switches,
        "families": list(plan.families),
        "best_fixed": {
            "family": plan.best_fixed_family,
            "cycles": plan.best_fixed_cycles,
            "params": plan.fixed_params[plan.best_fixed_family],
        },
        "speedup_vs_best_fixed": plan.speedup_vs_best_fixed,
        "fixed_totals": {
            family: {
                "cycles": plan.fixed_totals[family],
                "params": plan.fixed_params[family],
            }
            for family in plan.fixed_totals
        },
        "layers": [
            {
                "layer": c.layer.name,
                "family": c.family,
                "config": c.label,
                "compute_cycles": c.compute_cycles,
                "reconfig_cycles": c.reconfig_cycles,
                "reconfig_kind": c.reconfig_kind,
            }
            for c in plan.choices
        ],
    }


def format_plan(plan: PerLayerPlan) -> str:
    """The ``repro dse --per-layer`` / ``repro trace --per-layer`` table."""
    d = plan.array_dim
    rows = [
        (
            c.layer.name,
            c.family,
            c.label,
            str(c.compute_cycles),
            str(c.reconfig_cycles),
            c.reconfig_kind or "-",
        )
        for c in plan.choices
    ]
    header = ("layer", "family", "config", "compute", "reconfig", "switch")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    lines = [
        f"== per-layer dataflow plan: {plan.network_name} @ {d}x{d}"
        f" (reconfig scale {plan.reconfig_scale:g}) ==",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    lines.append(
        f"plan total: {plan.total_cycles} cycles"
        f" ({plan.switches} switches, {plan.total_reconfig_cycles}"
        f" reconfiguration cycles, {plan.reconfig_energy_pj:.1f} pJ)"
    )
    best = plan.best_fixed_family
    for family in FAMILY_ORDER:
        if family not in plan.fixed_totals:
            continue
        marker = "  <- best fixed" if family == best else ""
        lines.append(
            f"fixed {family:<10} {plan.fixed_totals[family]} cycles"
            f" ({plan.fixed_params[family]}){marker}"
        )
    lines.append(
        f"speedup vs best fixed ({best}):"
        f" {plan.speedup_vs_best_fixed:.3f}x"
    )
    return "\n".join(lines)


# -- the DP -------------------------------------------------------------------

#: Unified trace record: (family, params, in_triple, out_triple,
#: reconfig_cycles, reconfig_kind) — in/out triples are None for extern
#: states.
_TraceStep = Tuple[
    str, Tuple[int, ...], Optional[Triple], Optional[Triple], int, str
]


def _solve_batched(
    contexts,
    array_dim: int,
    row_limit: int,
    col_limit: int,
    states: Sequence[ExternState],
    ext_cycles: List[List[int]],
    cost_model: ReconfigCostModel,
) -> Tuple[int, Tuple[_TraceStep, ...], Dict[str, int]]:
    """Vectorized DP over the mapper's Pareto-pruned candidate sets.

    Bit-identical to the full-candidate reference DP: the FlexFlow side
    inherits the mapper's pruning + first-occurrence argmin tie-breaks,
    and the extern side runs strict-``<`` scans over exact ints.
    """
    first = contexts[0].layer
    next_layer = contexts[1].layer if len(contexts) > 1 else None
    outs, fout, coupled_arr, coupled_ok, bucket_first, n_full = (
        _pruned_layer_outs(
            first, contexts[0].tr_tc_bound, row_limit, col_limit, next_layer
        )
    )
    free_in_first, fin_first, _ = _best_input_batched(first, col_limit)
    ff_cost = fout * fin_first
    ff_coupled_arr, ff_coupled_ok = coupled_arr, coupled_ok
    ff_bucket_first = bucket_first
    first_outs_list = outs.tolist()
    total_candidates, kept_candidates = n_full, len(outs)

    ex_cost: List[int] = [ext_cycles[s][0] for s in range(len(states))]
    ff_back: List[tuple] = []
    ex_back: List[List[Tuple[str, int, int, str]]] = []

    for idx in range(1, len(contexts)):
        layer = contexts[idx].layer
        free_in, fin_free, _ = _best_input_batched(layer, col_limit)
        penalty = relayout_penalty_cycles(layer, array_dim)
        fam_sw = cost_model.family_switch_cycles(layer)
        par_sw = cost_model.param_switch_cycles(layer)
        next_layer = contexts[idx + 1].layer if idx + 1 < len(contexts) else None
        outs, fout, coupled_arr, coupled_ok, bucket_first, n_full = (
            _pruned_layer_outs(
                layer, contexts[idx].tr_tc_bound, row_limit, col_limit,
                next_layer,
            )
        )
        total_candidates += n_full
        kept_candidates += len(outs)

        best_ff_prev = int(np.argmin(ff_cost))
        best_ff_prev_cost = int(ff_cost[best_ff_prev])
        best_ex_prev = 0
        for s in range(1, len(states)):
            if ex_cost[s] < ex_cost[best_ex_prev]:
                best_ex_prev = s
        best_ex_prev_cost = ex_cost[best_ex_prev]

        # FlexFlow targets: coupled buckets (first-appearance order),
        # then coupling break, then extern entry — strict-< chain.
        feas = np.flatnonzero(ff_coupled_ok)
        feas = feas[np.argsort(ff_bucket_first[feas], kind="stable")]
        cost_b = best_ff_prev_cost + fin_free * fout + penalty
        if feas.size:
            fin_coupled = _steps_array(
                (layer.in_maps, layer.kernel, layer.kernel),
                ff_coupled_arr[feas],
            )
            cost_a = ff_cost[feas][:, None] + fin_coupled[:, None] * fout[None, :]
            pick_a = np.argmin(cost_a, axis=0)
            best = cost_a[pick_a, np.arange(len(outs))]
            use_b = cost_b < best
            best = np.where(use_b, cost_b, best)
            pick_a_list = pick_a.tolist()
        else:
            use_b = np.ones(len(outs), dtype=bool)
            best = cost_b
            pick_a_list = []
        cost_c = best_ex_prev_cost + fin_free * fout + fam_sw
        use_c = cost_c < best
        new_ff_cost = np.where(use_c, cost_c, best)

        ff_back.append(
            (
                use_b.tolist(),
                use_c.tolist(),
                pick_a_list,
                feas.tolist(),
                best_ff_prev,
                best_ex_prev,
                free_in,
                penalty,
                fam_sw,
                ff_coupled_arr,
                outs.tolist(),
            )
        )

        # Extern targets: strict-< scans on exact ints (stay, param
        # switch, family switch, FlexFlow exit — in that order).
        new_ex_cost: List[int] = []
        layer_recs: List[Tuple[str, int, int, str]] = []
        for s, state in enumerate(states):
            step = ext_cycles[s][idx]
            cost = ex_cost[s] + step
            rec = ("ex", s, 0, "")
            for o, other in enumerate(states):
                if o == s or other.family != state.family:
                    continue
                cand = ex_cost[o] + par_sw + step
                if cand < cost:
                    cost, rec = cand, ("ex", o, par_sw, "param")
            for o, other in enumerate(states):
                if other.family == state.family:
                    continue
                cand = ex_cost[o] + fam_sw + step
                if cand < cost:
                    cost, rec = cand, ("ex", o, fam_sw, "family")
            cand = best_ff_prev_cost + fam_sw + step
            if cand < cost:
                cost, rec = cand, ("ff", best_ff_prev, fam_sw, "family")
            new_ex_cost.append(cost)
            layer_recs.append(rec)
        ex_back.append(layer_recs)

        ff_cost = new_ff_cost
        ff_coupled_arr, ff_coupled_ok = coupled_arr, coupled_ok
        ff_bucket_first = bucket_first
        ex_cost = new_ex_cost

    # Final selection: the pruned FlexFlow survivor first (the mapper's
    # (cost, ceil(M/Tm), triple) key collapsed it already), then extern
    # states in order, strict < throughout.
    assert len(ff_cost) == 1
    kind, j, final_cost = "ff", 0, int(ff_cost[0])
    for s in range(len(states)):
        if ex_cost[s] < final_cost:
            kind, j, final_cost = "ex", s, ex_cost[s]

    steps_rev: List[_TraceStep] = []
    for lidx in range(len(contexts) - 1, 0, -1):
        (
            use_b, use_c, pick_a, feas_list, best_ff_prev, best_ex_prev,
            free_in, penalty, fam_sw, prev_coupled, outs_list,
        ) = ff_back[lidx - 1]
        if kind == "ff":
            out_triple = tuple(outs_list[j])
            if use_c[j]:
                steps_rev.append(
                    ("flexflow", (), free_in, out_triple, fam_sw, "family")
                )
                kind, j = "ex", best_ex_prev
            elif use_b[j]:
                steps_rev.append(
                    ("flexflow", (), free_in, out_triple, penalty, "relayout")
                )
                kind, j = "ff", best_ff_prev
            else:
                winner = feas_list[pick_a[j]]
                coupled_in = tuple(prev_coupled[winner].tolist())
                steps_rev.append(
                    ("flexflow", (), coupled_in, out_triple, 0, "")
                )
                kind, j = "ff", winner
        else:
            state = states[j]
            prev_kind, prev_idx, reconf, reconf_kind = ex_back[lidx - 1][j]
            steps_rev.append(
                (state.family, state.params, None, None, reconf, reconf_kind)
            )
            kind, j = prev_kind, prev_idx
    if kind == "ff":
        steps_rev.append(
            ("flexflow", (), free_in_first, tuple(first_outs_list[j]), 0, "")
        )
    else:
        state = states[j]
        steps_rev.append((state.family, state.params, None, None, 0, ""))

    counters = {
        "output_candidates": total_candidates,
        "candidates_pruned": total_candidates - kept_candidates,
        "configs_evaluated": kept_candidates,
        "extern_states": len(states),
    }
    return final_cost, tuple(reversed(steps_rev)), counters


# -- entry point --------------------------------------------------------------


def _fixed_totals(
    network: Network,
    array_dim: int,
    states: Sequence[ExternState],
    ext_cycles: List[List[int]],
) -> Tuple[Dict[str, int], Dict[str, str]]:
    totals = {"flexflow": map_network(network, array_dim).total_cycles}
    params = {"flexflow": "coupling DP"}
    for family in EXTERN_FAMILIES:
        best: Optional[Tuple[int, str]] = None
        for s, state in enumerate(states):
            if state.family != family:
                continue
            total = sum(ext_cycles[s])
            if best is None or total < best[0]:
                best = (total, state.label)
        assert best is not None
        totals[family], params[family] = best
    return totals, params


def solve_per_layer(
    network: Network,
    array_dim: int = 16,
    *,
    reconfig_scale: float = 1.0,
) -> PerLayerPlan:
    """Solve the per-layer engine/dataflow schedule for one network.

    Returns the exact optimum over the unified state space (FlexFlow
    unrollings plus the extern grid) under the reconfiguration-cost
    model, together with every family's best *fixed* total for
    comparison.
    """
    if array_dim <= 0:
        raise ConfigurationError(f"array_dim must be positive, got {array_dim}")
    contexts = network.conv_contexts()
    if not contexts:
        raise MappingError(f"network {network.name!r} has no CONV layers")
    layers = [ctx.layer for ctx in contexts]
    row_limit, col_limit = _usable_limits(array_dim, None)
    cost_model = ReconfigCostModel(array_dim, reconfig_scale)
    states = family_param_states(layers, array_dim)
    num_pes = array_dim * array_dim

    with current_tracer().span(
        f"dse_per_layer:{network.name}",
        category="dse",
        labels={"dim": str(array_dim), "scale": f"{reconfig_scale:g}"},
    ) as span:
        ext_cycles = _extern_cycle_rows(states, layers, num_pes)
        final_cost, trace, counters = _solve_batched(
            contexts, array_dim, row_limit, col_limit, states,
            ext_cycles, cost_model,
        )
        totals, fixed_params = _fixed_totals(
            network, array_dim, states, ext_cycles
        )

        state_index = {(st.family, st.params): s for s, st in enumerate(states)}
        technology = TechnologyModel()
        choices: List[LayerChoice] = []
        energy = 0.0
        for idx, (ctx, step) in enumerate(zip(contexts, trace)):
            family, fam_params, in_triple, out_triple, reconf, reconf_kind = step
            if family == "flexflow":
                compute = _output_steps(ctx.layer, out_triple) * _input_steps(
                    ctx.layer, in_triple
                )
            else:
                compute = ext_cycles[state_index[(family, fam_params)]][idx]
            energy += cost_model.switch_energy_pj(reconf_kind, technology)
            choices.append(
                LayerChoice(
                    layer=ctx.layer,
                    family=family,
                    params=fam_params,
                    in_triple=in_triple,
                    out_triple=out_triple,
                    compute_cycles=compute,
                    reconfig_cycles=reconf,
                    reconfig_kind=reconf_kind,
                )
            )
        plan = PerLayerPlan(
            network_name=network.name,
            array_dim=array_dim,
            reconfig_scale=reconfig_scale,
            choices=tuple(choices),
            fixed_totals=totals,
            fixed_params=fixed_params,
            reconfig_energy_pj=energy,
        )
        assert plan.total_cycles == final_cost, (
            "DP cost must match reconstruction"
        )
        # The DP's state space contains every fixed schedule, so the
        # optimum can never lose to one.
        assert plan.total_cycles <= plan.best_fixed_cycles, (
            "per-layer optimum must not exceed the best fixed dataflow"
        )
        for choice in plan.choices:
            with current_tracer().span(
                f"choice:{choice.layer.name}",
                category="dse",
                labels={"family": choice.family, "config": choice.label},
            ) as choice_span:
                choice_span.add_counters(
                    {
                        "compute_cycles": choice.compute_cycles,
                        "reconfig_cycles": choice.reconfig_cycles,
                    }
                )
        span_counters = {
            "conv_layers": len(contexts),
            "plan_cycles": plan.total_cycles,
            "reconfig_cycles": plan.total_reconfig_cycles,
            "switches": plan.switches,
            "families": len(plan.families),
        }
        span_counters.update(counters)
        span.add_counters(span_counters)
    REGISTRY.counter("dse.per_layer_solves").inc()
    REGISTRY.histogram("dse.per_layer_switches").observe(plan.switches)
    return plan
