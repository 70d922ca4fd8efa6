"""FlexFlow's core dataflow machinery: factors, styles, utilization, mapping."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".grouping": ("GroupGeometry",),
        ".occupancy": ("OccupancyMap", "PERole", "occupancy_map"),
        ".placement": (
            "NeuronPlacement",
            "KernelPlacement",
            "ipdr_replication_factor",
            "neuron_placement_for_layer",
            "kernel_placement_for_layer",
            "physical_pe_targets",
        ),
        ".mapper": (
            "LayerMapping",
            "NetworkMapping",
            "map_layer",
            "map_network",
            "mapping_cache_info",
            "clear_mapping_cache",
            "coupled_input_triple",
            "relayout_penalty_cycles",
        ),
        ".restricted": (
            "map_layer_with_style",
            "network_utilization_by_styles",
        ),
        ".schedule": (
            "CycleReads",
            "neuron_schedule",
            "kernel_schedule",
            "verify_conflict_free",
        ),
        ".styles": ("ProcessingStyle", "ARCHITECTURE_STYLES", "classify"),
        ".unrolling": ("UnrollingFactors", "ceil_div", "useful_values"),
        ".utilization": (
            "UtilizationReport",
            "row_utilization",
            "column_utilization",
            "total_utilization",
            "utilization_report",
        ),
    },
)
