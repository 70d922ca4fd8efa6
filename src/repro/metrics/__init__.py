"""Evaluation metrics: performance, energy, traffic, scalability."""

from repro.metrics.energy import (
    edp_ratio_matrix,
    efficiency_ratio_matrix,
    energy_delay_product,
    energy_per_mac_pj,
    energy_uj,
    power_mw,
)
from repro.metrics.performance import (
    achievable_fraction,
    nominal_gops,
    speedup_matrix,
)
from repro.metrics.roofline import (
    DEFAULT_BANDWIDTHS,
    RooflinePoint,
    bandwidth_sweep,
    required_bandwidth,
)
from repro.metrics.scalability import (
    DEFAULT_SCALES,
    ScalePoint,
    scalability_sweep,
    utilization_sensitivity,
)
from repro.metrics.traffic import (
    dram_accesses_per_op,
    reuse_factor,
    transmission_volume_kb,
    transmission_volume_words,
    volume_ratio_matrix,
)

__all__ = [
    "nominal_gops",
    "achievable_fraction",
    "speedup_matrix",
    "energy_uj",
    "power_mw",
    "efficiency_ratio_matrix",
    "energy_per_mac_pj",
    "energy_delay_product",
    "edp_ratio_matrix",
    "transmission_volume_words",
    "transmission_volume_kb",
    "dram_accesses_per_op",
    "reuse_factor",
    "volume_ratio_matrix",
    "DEFAULT_BANDWIDTHS",
    "RooflinePoint",
    "bandwidth_sweep",
    "required_bandwidth",
    "DEFAULT_SCALES",
    "ScalePoint",
    "scalability_sweep",
    "utilization_sensitivity",
]
