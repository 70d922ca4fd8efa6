"""Evaluation metrics: performance, energy, traffic, scalability."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".performance": (
            "nominal_gops",
            "achievable_fraction",
            "speedup_matrix",
        ),
        ".energy": (
            "energy_uj",
            "power_mw",
            "efficiency_ratio_matrix",
            "energy_per_mac_pj",
            "energy_delay_product",
            "edp_ratio_matrix",
        ),
        ".traffic": (
            "transmission_volume_words",
            "transmission_volume_kb",
            "dram_accesses_per_op",
            "reuse_factor",
            "volume_ratio_matrix",
        ),
        ".roofline": (
            "DEFAULT_BANDWIDTHS",
            "RooflinePoint",
            "bandwidth_sweep",
            "required_bandwidth",
        ),
        ".scalability": (
            "DEFAULT_SCALES",
            "ScalePoint",
            "scalability_sweep",
            "utilization_sensitivity",
        ),
    },
)
