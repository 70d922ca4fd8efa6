"""Ablation: the complementary-parallelism principle, measured directly.

DESIGN.md's central design choice is letting the mapper mix FP/NP/SP.
This ablation maps every workload on the *same* FlexFlow array under four
style restrictions —

* ``SFSNMS`` (SP only — the Systolic style),
* ``SFMNSS`` (NP only — the 2D-Mapping style),
* ``MFSNSS`` (FP only — the Tiling style),
* ``MFMNMS`` (everything — FlexFlow),

so the utilization gaps isolate the dataflow-flexibility contribution
from all micro-architectural differences between the baselines.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.arch.config import ArchConfig
from repro.dataflow.mapper import map_network
from repro.dataflow.restricted import network_utilization_by_styles
from repro.dataflow.styles import ProcessingStyle
from repro.experiments.common import ExperimentResult
from repro.nn.workloads import WORKLOAD_NAMES, get_workload

#: Single-parallelism restrictions (the rigid baselines' styles) plus
#: one-dimension knock-outs (remove FP / NP / SP from the full mix).
ABLATION_STYLES = (
    ProcessingStyle.SFSNMS,
    ProcessingStyle.SFMNSS,
    ProcessingStyle.MFSNSS,
    ProcessingStyle.SFMNMS,  # no FP
    ProcessingStyle.MFSNMS,  # no NP
    ProcessingStyle.MFMNSS,  # no SP
)


def run(
    workloads: Sequence[str] = tuple(WORKLOAD_NAMES),
    array_dim: int = 16,
    config: Optional[ArchConfig] = None,
) -> ExperimentResult:
    rows = []
    for name in workloads:
        network = get_workload(name)
        row = {"workload": name}
        by_style = network_utilization_by_styles(
            network, array_dim, ABLATION_STYLES
        )
        for style, utilization in by_style.items():
            label = f"{style.name} ({'+'.join(style.parallelism_types)})"
            row[label] = utilization
        row["MFMNMS (FlexFlow)"] = map_network(
            network, array_dim
        ).overall_utilization
        rows.append(row)
    return ExperimentResult(
        experiment_id="ablation_styles",
        title="Utilization under single-parallelism restrictions vs. full mixing",
        rows=rows,
        notes=(
            "Same PE array, same mapper — only the allowed processing style"
            " changes. The MFMNMS column's margin is the complementary-"
            "parallelism principle's direct contribution."
        ),
    )
