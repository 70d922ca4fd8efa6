"""Style-restricted mapping: the complementary-parallelism ablation.

The paper's central claim (Section 4.2) is that *mixing* parallelism
types — FP+NP across PE rows, FP+SP within rows — is what keeps the array
full; any single parallelism type strands resources on some layer shapes.
This module makes that claim directly measurable: it maps layers under a
restriction to one of the eight processing styles (e.g. SP-only, the
Systolic style; NP-only, the 2D-Mapping style) on the *same* FlexFlow
array, so the utilization gap is attributable purely to the dataflow's
style flexibility rather than to micro-architecture differences.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dataflow.mapper import LayerMapping, _steps_array, candidate_array
from repro.dataflow.styles import ProcessingStyle
from repro.dataflow.unrolling import UnrollingFactors
from repro.dataflow.utilization import utilization_report
from repro.nn.layers import ConvLayer
from repro.nn.network import Network


def _style_caps(
    style: ProcessingStyle, layer: ConvLayer
) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """Factor upper bounds per side for a style.

    A dimension not exploited by the style is pinned to 1 for *both* its
    loops; an exploited dimension keeps its natural bounds.
    """
    fp = layer.out_maps if style.multi_feature_map else 1
    fp_in = layer.in_maps if style.multi_feature_map else 1
    np_ = layer.out_size if style.multi_neuron else 1
    sp = layer.kernel if style.multi_synapse else 1
    input_caps = (fp_in, sp, sp)  # (Tn, Ti, Tj)
    output_caps = (fp, np_, np_)  # (Tm, Tr, Tc)
    return input_caps, output_caps


def map_layer_with_style(
    layer: ConvLayer,
    array_dim: int,
    style: ProcessingStyle,
    *,
    tr_tc_bound: Optional[int] = None,
) -> LayerMapping:
    """Best mapping of a layer using only one processing style.

    Note that restricted styles may not *reach* the style's "Multiple"
    designations on degenerate layers (e.g. NP-only on a 1x1 output map
    collapses to SFSNSS); the restriction is an upper bound, matching how
    a rigid architecture degrades on mismatched shapes.
    """
    input_caps, output_caps = _style_caps(style, layer)
    in_dims = (layer.in_maps, layer.kernel, layer.kernel)
    out_bound = layer.out_size if tr_tc_bound is None else min(
        layer.out_size, tr_tc_bound
    )
    out_dims = (layer.out_maps, layer.out_size, layer.out_size)
    out_caps = (
        output_caps[0],
        min(output_caps[1], out_bound),
        min(output_caps[2], out_bound),
    )

    # Both arrays are in lexicographic order and always hold (1, 1, 1), so
    # the first minimum is the smallest (steps, triple) pair.
    ins = candidate_array(in_dims, array_dim, input_caps)
    outs = candidate_array(out_dims, array_dim, out_caps)
    tn, ti, tj = ins[int(np.argmin(_steps_array(in_dims, ins)))].tolist()
    tm, tr, tc = outs[int(np.argmin(_steps_array(out_dims, outs)))].tolist()
    factors = UnrollingFactors(tm=tm, tn=tn, tr=tr, tc=tc, ti=ti, tj=tj)
    factors.check(layer, array_dim, tr_tc_bound=tr_tc_bound)
    return LayerMapping(
        layer=layer,
        factors=factors,
        array_dim=array_dim,
        utilization=utilization_report(layer, factors, array_dim),
        compute_cycles=factors.outer_iterations(layer),
    )


def network_utilization_by_style(
    network: Network, array_dim: int, style: ProcessingStyle
) -> float:
    """MAC-weighted utilization of a whole network under one style."""
    total_macs = 0
    total_cycles = 0
    for ctx in network.conv_contexts():
        mapping = map_layer_with_style(
            ctx.layer, array_dim, style, tr_tc_bound=ctx.tr_tc_bound
        )
        total_macs += ctx.layer.macs
        total_cycles += mapping.compute_cycles
    if total_cycles == 0:
        return 0.0
    return total_macs / (total_cycles * array_dim**2)
