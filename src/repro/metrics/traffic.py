"""Data-movement metrics: Figure 17's transmission volume."""

from __future__ import annotations

from typing import Dict, Mapping

from repro.accelerators.base import NetworkResult


def transmission_volume_kb(result: NetworkResult) -> float:
    """Figure 17's metric: KiB crossing the on-chip-buffer boundary.

    The paper uses this volume as the inverse proxy for data reusability —
    an architecture that re-reads the same word many times moves more.
    """
    word_bytes = result.config.technology.word_bytes
    return result.buffer_traffic_words * word_bytes / 1024.0


def volume_ratio_matrix(
    results: Mapping[str, NetworkResult], reference: str = "flexflow"
) -> Dict[str, float]:
    """How many times more data each architecture moves vs. ``reference``."""
    ref = results[reference].buffer_traffic_words
    return {
        kind: result.buffer_traffic_words / ref if ref else float("inf")
        for kind, result in results.items()
        if kind != reference
    }
