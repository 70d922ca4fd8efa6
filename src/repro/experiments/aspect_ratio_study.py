"""Extension study: rectangular PE arrays at a fixed 256-PE budget.

The paper's square 16x16 unit splits Eq. 1's two packing constraints
evenly; this study asks whether any ``rows x cols`` factorization of the
same 256-PE budget maps each workload better, and by how much — i.e. how
much utilization the square shape leaves on the table.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.arch.config import ArchConfig
from repro.dataflow.rectangular import (
    aspect_ratio_candidates,
    aspect_ratio_shapes,
    best_shape,
    shape_utilizations,
)
from repro.experiments.common import ExperimentResult, sweep_span
from repro.nn.workloads import WORKLOAD_NAMES, get_workload


def run(
    workloads: Sequence[str] = tuple(WORKLOAD_NAMES),
    pe_budget: int = 256,
    config: Optional[ArchConfig] = None,
) -> ExperimentResult:
    rows = []
    square_dim = int(pe_budget**0.5)
    # One pass per workload scores every candidate shape plus the square
    # baseline; the span records the sweep's full grid size.
    shape_count = len(aspect_ratio_candidates(pe_budget))
    shapes = aspect_ratio_shapes(pe_budget)
    with sweep_span(
        "aspect_ratio_study",
        configs_evaluated=len(workloads) * (shape_count + 1),
    ):
        for name in workloads:
            network = get_workload(name)
            *utilizations, square_util = shape_utilizations(
                network, pe_budget, shapes + [(square_dim, square_dim)]
            )
            (best_rows, best_cols), best_util = best_shape(shapes, utilizations)
            rows.append(
                {
                    "workload": name,
                    "square_util": square_util,
                    "best_shape": f"{best_rows}x{best_cols}",
                    "best_util": best_util,
                    "gain": best_util / square_util if square_util else float("inf"),
                }
            )
    return ExperimentResult(
        experiment_id="aspect",
        title=f"Rectangular-array study at a {pe_budget}-PE budget",
        rows=rows,
        notes=(
            "square_util uses greedy per-layer mapping on the square shape"
            " (same optimizer as the rectangular sweep, so the comparison"
            " isolates the shape)."
        ),
    )
