"""Energy metrics: power efficiency, energy ratios (Figure 18)."""

from __future__ import annotations

from typing import Dict, Mapping

from repro.accelerators.base import NetworkResult
from repro.errors import ConfigurationError


def energy_uj(result: NetworkResult) -> float:
    """Figure 18(b): chip energy to complete the workload's CONV layers."""
    return result.energy_uj


def power_mw(result: NetworkResult) -> float:
    """Figure 18(c): average chip power during the run."""
    return result.power_mw


def efficiency_ratio_matrix(
    results: Mapping[str, NetworkResult], reference: str = "flexflow"
) -> Dict[str, float]:
    """``reference``'s power-efficiency gain over each other architecture."""
    if reference not in results:
        raise ConfigurationError(f"reference {reference!r} not in results")
    ref = results[reference].gops_per_watt
    return {
        kind: ref / result.gops_per_watt if result.gops_per_watt else float("inf")
        for kind, result in results.items()
        if kind != reference
    }


def energy_per_mac_pj(result: NetworkResult) -> float:
    """Chip energy per multiply-accumulate — the efficiency primitive."""
    macs = result.total_macs
    if macs == 0:
        return 0.0
    return result.power_report().total_energy_pj / macs


def energy_delay_product(result: NetworkResult) -> float:
    """EDP in joule-seconds: energy x runtime.

    The combined figure of merit that penalizes trading performance for
    efficiency (or vice versa); FlexFlow's simultaneous wins on both make
    its EDP gap over the baselines larger than either individual gap.
    """
    energy_j = result.power_report().total_energy_pj * 1e-12
    return energy_j * result.runtime_s


def edp_ratio_matrix(
    results: Mapping[str, NetworkResult], reference: str = "flexflow"
) -> Dict[str, float]:
    """Each architecture's EDP relative to ``reference`` (higher = worse)."""
    if reference not in results:
        raise ConfigurationError(f"reference {reference!r} not in results")
    ref = energy_delay_product(results[reference])
    return {
        kind: energy_delay_product(result) / ref if ref else float("inf")
        for kind, result in results.items()
        if kind != reference
    }
