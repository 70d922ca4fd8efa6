"""Golden whole-network execution.

Runs every layer of a :class:`~repro.nn.network.Network` in sequence with
the NumPy reference kernels (deterministic per layer spec), producing the
per-layer activations the functional network simulator must match.

``JoinLayer`` semantics: the reproduction models AlexNet's second tower by
duplicating the first (Table 1 lists one of two *identical* layer-parts),
so a join concatenates the input with itself along the map axis.  Both
this golden runner and the simulator implement the same rule, so the
comparison stays meaningful.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer, FCLayer, JoinLayer, PoolLayer
from repro.nn.network import Network
from repro.nn.reference import (
    run_conv_layer,
    run_fc_layer,
    run_pool_layer,
    synthetic_values,
)


def make_network_inputs(network: Network, *, seed_tag: Optional[str] = None) -> np.ndarray:
    """Deterministic input plane for a network."""
    spec = network.input_spec
    return synthetic_values(
        seed_tag or f"net:{network.name}:{spec.shape}", spec.shape
    )


def run_join_layer(layer: JoinLayer, inputs: np.ndarray) -> np.ndarray:
    """Duplicate-and-concatenate along the map axis (see module docstring)."""
    if inputs.shape[0] != layer.in_maps:
        raise SpecificationError(
            f"{layer.name}: {inputs.shape[0]} maps != expected {layer.in_maps}"
        )
    copies, remainder = divmod(layer.out_maps, layer.in_maps)
    if remainder:
        raise SpecificationError(
            f"{layer.name}: out_maps {layer.out_maps} not a multiple of"
            f" in_maps {layer.in_maps}"
        )
    return np.concatenate([inputs] * copies, axis=0)


def run_network(
    network: Network, inputs: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Execute every layer; returns ``(final_output, per_layer_outputs)``."""
    current = inputs if inputs is not None else make_network_inputs(network)
    if tuple(current.shape) != network.input_spec.shape:
        raise SpecificationError(
            f"{network.name}: inputs shape {current.shape} !="
            f" {network.input_spec.shape}"
        )
    activations: Dict[str, np.ndarray] = {}
    for layer in network.layers:
        if isinstance(layer, ConvLayer):
            current = run_conv_layer(layer, current)
        elif isinstance(layer, PoolLayer):
            current = run_pool_layer(layer, current)
        elif isinstance(layer, JoinLayer):
            current = run_join_layer(layer, current)
        elif isinstance(layer, FCLayer):
            current = run_fc_layer(layer, current)
        else:  # pragma: no cover
            raise SpecificationError(f"unsupported layer {type(layer).__name__}")
        activations[layer.name] = current
    return current, activations
