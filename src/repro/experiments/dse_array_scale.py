"""Extension study: design-space exploration of the engine scale.

For each workload, sweep the PE array dimension and report performance
per unit area (GOPS/mm^2) and per watt — the question a downstream user
actually faces: *how big should the FlexFlow array be for my network?*
Small networks stop scaling once the array exceeds their parallelism;
AlexNet/VGG keep paying off.  Not a paper artifact, but directly enabled
by the Figure 19 machinery.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.accelerators.base import NetworkResult
from repro.arch.area import area_report
from repro.arch.config import ArchConfig
from repro.experiments.common import ExperimentResult, evaluate_sweep
from repro.nn.workloads import WORKLOAD_NAMES, get_workload

DEFAULT_SCALES = (8, 16, 32, 64)


def scale_points(
    results: Mapping[int, NetworkResult],
    dims: Sequence[int],
    areas: Optional[Mapping[int, float]] = None,
) -> Tuple[List[Tuple[NetworkResult, float, float]], Optional[int]]:
    """One workload's array-scale sweep as density points.

    Returns each dim's ``(result, area_mm2, gops_per_mm2)`` in ``dims``
    order, plus the first dim with the highest GOPS/mm^2 (a strict ``>``
    scan in ``dims`` order, so the answer never depends on which other
    points were swept alongside).  ``results`` maps each dim to its
    FlexFlow result; ``areas`` maps each dim to its array area, computed
    from the default :class:`ArchConfig` scaled to that dim when omitted.
    """
    if areas is None:
        base = ArchConfig()
        areas = {
            dim: area_report("flexflow", base.scaled_to(dim)).total_mm2
            for dim in dims
        }
    points = []
    best_dim, best_density = None, -1.0
    for dim in dims:
        result, area = results[dim], areas[dim]
        density = result.gops / area
        points.append((result, area, density))
        if density > best_density:
            best_dim, best_density = dim, density
    return points, best_dim


def run(
    workloads: Sequence[str] = tuple(WORKLOAD_NAMES),
    scales: Sequence[int] = DEFAULT_SCALES,
    config: Optional[ArchConfig] = None,
) -> ExperimentResult:
    base = config or ArchConfig()
    # Each scale's config and area are computed once for every workload;
    # the (workload x dim) grid itself is evaluated as one batched sweep
    # — every design point funnels through the vectorized
    # candidate-scoring mapper, deduped per unique (network, array_dim,
    # mask) by the mapping memo.
    per_dim = [
        (dim, base.scaled_to(dim)) for dim in scales
    ]
    areas = {
        dim: area_report("flexflow", cfg).total_mm2 for dim, cfg in per_dim
    }
    networks = {name: get_workload(name) for name in workloads}
    results = evaluate_sweep(
        "dse_array_scale",
        [
            ((name, dim), "flexflow", networks[name], cfg)
            for name in workloads
            for dim, cfg in per_dim
        ],
    )
    rows = []
    for name in workloads:
        points, best_scale = scale_points(
            {dim: results[(name, dim)] for dim in scales}, scales, areas
        )
        row = {"workload": name}
        for dim, (_result, _area, density) in zip(scales, points):
            row[f"gops_per_mm2_at_{dim}"] = density
        row["best_scale"] = f"{best_scale}x{best_scale}"
        rows.append(row)
    return ExperimentResult(
        experiment_id="dse",
        title="Design-space exploration: GOPS/mm^2 vs. FlexFlow array scale",
        rows=rows,
        notes=(
            "Compute density peaks where the workload's parallelism matches"
            " the array; bigger engines only pay off for AlexNet/VGG-class"
            " networks."
        ),
    )
