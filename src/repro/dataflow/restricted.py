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

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.dataflow.mapper import (
    LayerMapping,
    _fewest_steps,
    _input_space,
    _output_space,
    _steps_array,
    candidate_array,
)
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


def network_utilization_by_styles(
    network: Network, array_dim: int, styles: Iterable[ProcessingStyle]
) -> Dict[ProcessingStyle, float]:
    """MAC-weighted utilization of a whole network under each style.

    Style by style, the total is the sum of ``map_layer_with_style``'s
    compute cycles over the network's CONV layers, but each layer side is
    enumerated once at ``array_dim`` under its natural caps.  Every style
    cap is at most the natural one, so a style's candidates are that
    table masked by its :func:`_style_caps` factor by factor, and its
    cycles are the fewest input steps times the fewest output steps.
    """
    styles = tuple(styles)
    total_macs = 0
    total_cycles = np.zeros(len(styles), dtype=np.int64)
    for ctx in network.conv_contexts():
        layer = ctx.layer
        in_dims, natural_in = _input_space(layer)
        out_dims, natural_out = _output_space(layer, ctx.tr_tc_bound)
        ins = candidate_array(in_dims, array_dim, natural_in)
        outs = candidate_array(out_dims, array_dim, natural_out)
        # (styles, side, factor): each style's input and output caps.
        caps = np.array(
            [_style_caps(style, layer) for style in styles], dtype=np.int64
        ).reshape(len(styles), 2, 3)
        keep_in = (ins[None, :, :] <= caps[:, None, 0, :]).all(axis=2)
        keep_out = (outs[None, :, :] <= caps[:, None, 1, :]).all(axis=2)
        total_cycles += _fewest_steps(in_dims, ins, keep_in) * _fewest_steps(
            out_dims, outs, keep_out
        )
        total_macs += layer.macs
    return {
        style: (
            total_macs / (int(cycles) * array_dim**2) if cycles else 0.0
        )
        for style, cycles in zip(styles, total_cycles)
    }


def network_utilization_by_style(
    network: Network, array_dim: int, style: ProcessingStyle
) -> float:
    """MAC-weighted utilization of a whole network under one style."""
    return network_utilization_by_styles(network, array_dim, (style,))[style]
