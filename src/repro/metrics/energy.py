"""Energy metrics: Figure 18's power-efficiency ratios."""

from __future__ import annotations

from typing import Dict, Mapping

from repro.accelerators.base import NetworkResult
from repro.errors import ConfigurationError


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
