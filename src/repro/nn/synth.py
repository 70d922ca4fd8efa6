"""Synthetic CNN generation: random, always-valid workloads.

The six Table 1 networks are fixed points; property tests and
design-space exploration also need *families* of workloads with
controlled shape statistics.  :func:`random_network` draws layer chains
that are valid by construction (every CONV fits its input, pools
subsample legally, the FC head consumes the flattened tail), with knobs
for depth, channel growth, and kernel sizes.

Determinism: networks are generated from an explicit seed so test
failures reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer, FCLayer, InputSpec, PoolLayer
from repro.nn.network import Network


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the random-network generator."""

    min_conv_layers: int = 2
    max_conv_layers: int = 5
    min_input_size: int = 16
    max_input_size: int = 64
    max_maps: int = 64
    max_kernel: int = 7
    pool_probability: float = 0.5
    fc_head: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.min_conv_layers <= self.max_conv_layers:
            raise SpecificationError("invalid conv-layer count range")
        if not 4 <= self.min_input_size <= self.max_input_size:
            raise SpecificationError("invalid input size range")
        if self.max_maps < 1 or self.max_kernel < 1:
            raise SpecificationError("max_maps and max_kernel must be >= 1")
        if not 0.0 <= self.pool_probability <= 1.0:
            raise SpecificationError("pool_probability must be in [0, 1]")


def random_network(
    seed: int, spec: Optional[SynthSpec] = None, *, name: Optional[str] = None
) -> Network:
    """Generate one random, shape-valid CNN.

    Args:
        seed: RNG seed — equal seeds give equal networks.
        spec: generator knobs (defaults are LeNet-to-mid-size CNNs).
        name: network name (defaults to ``synth-<seed>``).
    """
    spec = spec or SynthSpec()
    rng = random.Random(seed)
    depth = rng.randint(spec.min_conv_layers, spec.max_conv_layers)
    size = rng.randint(spec.min_input_size, spec.max_input_size)
    maps = rng.choice([1, 1, 3])  # grayscale-biased inputs
    input_spec = InputSpec(maps=maps, size=size)

    layers: List = []
    for index in range(depth):
        max_k = min(spec.max_kernel, size - 1)
        if max_k < 1:
            break
        kernel = rng.randint(1, max_k)
        out_size = size - kernel + 1
        out_maps = min(spec.max_maps, maps * rng.choice([1, 2, 2, 4]))
        layers.append(
            ConvLayer(
                f"C{index + 1}",
                in_maps=maps,
                out_maps=out_maps,
                out_size=out_size,
                kernel=kernel,
            )
        )
        maps, size = out_maps, out_size
        can_pool = size >= 4 and index < depth - 1
        if can_pool and rng.random() < spec.pool_probability:
            pooled = size // 2
            layers.append(
                PoolLayer(
                    f"S{index + 1}",
                    maps=maps,
                    in_size=size,
                    out_size=pooled,
                    window=2,
                )
            )
            size = pooled
        if size < 2:
            break

    if not any(isinstance(layer, ConvLayer) for layer in layers):
        # Degenerate draw (tiny input): fall back to a minimal valid conv.
        layers = [
            ConvLayer("C1", in_maps=maps, out_maps=maps, out_size=size - 1, kernel=2)
        ]
        maps, size = maps, size - 1

    if spec.fc_head:
        flat = maps * size * size
        classes = rng.choice([10, 16, 43, 100])
        layers.append(FCLayer("FC", in_neurons=flat, out_neurons=classes))

    return Network(name or f"synth-{seed}", input_spec, layers)
