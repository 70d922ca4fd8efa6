"""Workload statistics: the parallelism mix of each CONV layer.

Section 3 of the paper reasons about which parallelism dimension
(feature map / neuron / synapse) dominates a layer — the "dominant
parallel type varies dramatically" observation that motivates FlexFlow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.nn.layers import ConvLayer
from repro.nn.network import Network


@dataclass(frozen=True)
class ParallelismProfile:
    """The sizes of the three parallelism dimensions for one CONV layer.

    ``feature_map`` is ``M x N`` (how many (input, output) map pairs exist),
    ``neuron`` is ``S^2`` (neurons per output map), ``synapse`` is ``K^2``
    (synapses per kernel).  The *dominant* dimension is the largest; the
    paper's Figure 1 argument is that it flips between layers.
    """

    name: str
    feature_map: int
    neuron: int
    synapse: int

    @property
    def dominant(self) -> str:
        ranked = sorted(
            (
                ("FP", self.feature_map),
                ("NP", self.neuron),
                ("SP", self.synapse),
            ),
            key=lambda pair: pair[1],
            reverse=True,
        )
        return ranked[0][0]


def parallelism_profile(layer: ConvLayer) -> ParallelismProfile:
    """Quantify the FP/NP/SP dimensions of one CONV layer."""
    return ParallelismProfile(
        name=layer.name,
        feature_map=layer.out_maps * layer.in_maps,
        neuron=layer.out_size * layer.out_size,
        synapse=layer.kernel * layer.kernel,
    )


def dominant_parallelism_by_layer(network: Network) -> Dict[str, str]:
    """Map each CONV layer name to its dominant parallelism type."""
    return {
        layer.name: parallelism_profile(layer).dominant
        for layer in network.conv_layers
    }
