"""FlexFlow's core dataflow machinery: factors, styles, utilization, mapping."""

from repro.dataflow.grouping import GroupGeometry
from repro.dataflow.mapper import (
    LayerMapping,
    NetworkMapping,
    clear_mapping_cache,
    coupled_input_triple,
    input_candidates,
    map_layer,
    map_network,
    mapping_cache_info,
    output_candidates,
    relayout_penalty_cycles,
)
from repro.dataflow.occupancy import OccupancyMap, PERole, occupancy_map
from repro.dataflow.placement import (
    KernelPlacement,
    NeuronPlacement,
    ipdr_replication_factor,
    kernel_placement_for_layer,
    neuron_placement_for_layer,
    physical_pe_targets,
)
from repro.dataflow.schedule import (
    CycleReads,
    kernel_schedule,
    neuron_schedule,
    verify_conflict_free,
)
from repro.dataflow.restricted import (
    map_layer_with_style,
    network_utilization_by_style,
    network_utilization_by_styles,
)
from repro.dataflow.styles import ARCHITECTURE_STYLES, ProcessingStyle, classify
from repro.dataflow.unrolling import (
    UnrollingFactors,
    ceil_div,
    useful_values,
)
from repro.dataflow.utilization import (
    UtilizationReport,
    column_utilization,
    row_utilization,
    total_utilization,
    utilization_report,
)

__all__ = [
    "GroupGeometry",
    "OccupancyMap",
    "PERole",
    "occupancy_map",
    "NeuronPlacement",
    "KernelPlacement",
    "ipdr_replication_factor",
    "neuron_placement_for_layer",
    "kernel_placement_for_layer",
    "physical_pe_targets",
    "LayerMapping",
    "NetworkMapping",
    "map_layer",
    "map_network",
    "mapping_cache_info",
    "clear_mapping_cache",
    "input_candidates",
    "output_candidates",
    "coupled_input_triple",
    "relayout_penalty_cycles",
    "map_layer_with_style",
    "network_utilization_by_style",
    "network_utilization_by_styles",
    "CycleReads",
    "neuron_schedule",
    "kernel_schedule",
    "verify_conflict_free",
    "ProcessingStyle",
    "ARCHITECTURE_STYLES",
    "classify",
    "UnrollingFactors",
    "ceil_div",
    "useful_values",
    "UtilizationReport",
    "row_utilization",
    "column_utilization",
    "total_utilization",
    "utilization_report",
]
