"""Network container with shape inference and validation.

A :class:`Network` is an ordered sequence of layer specifications starting
from an :class:`~repro.nn.layers.InputSpec`.  Construction validates that
consecutive layers chain: each CONV layer's input shape must equal the
previous layer's output shape, pooling windows must divide their inputs,
and FC layers must consume exactly the flattened previous output.

The container also provides the derived quantities the mapper and the
experiment harness need: the list of CONV layers with their *successor
context* (next CONV kernel ``K'`` and intervening pool window ``P``, which
bound ``Tr``/``Tc`` in Eq. 1), total operation counts, and per-layer
summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer, FCLayer, InputSpec, JoinLayer, PoolLayer

Layer = Union[ConvLayer, PoolLayer, FCLayer, JoinLayer]


@dataclass(frozen=True)
class ConvContext:
    """A CONV layer together with its Eq. 1 successor constraints.

    Attributes:
        layer: the CONV layer itself.
        index: the layer's position within the network's layer list.
        next_kernel: kernel size ``K'`` of the next CONV layer, or ``None``
            when this is the last CONV layer.
        pool_window: window ``P`` of the POOL layer between this CONV layer
            and the next one; 1 when no pooling intervenes.
    """

    layer: ConvLayer
    index: int
    next_kernel: Optional[int]
    pool_window: int

    @property
    def tr_tc_bound(self) -> Optional[int]:
        """Upper bound ``P * K'`` on ``Tr`` and ``Tc`` (Eq. 1), if any."""
        if self.next_kernel is None:
            return None
        return self.pool_window * self.next_kernel


class Network:
    """An ordered, shape-checked CNN specification.

    A network is immutable once built: assigning ``name``, ``input_spec``
    or ``layers`` raises :class:`AttributeError`.  That lets it cache its
    hash and its :meth:`conv_contexts`, and lets one build be shared by
    every memo and experiment that keys on it.  The hash covers ``str``
    names, which are salted per process, so pickling rebuilds the network
    from its fields and never carries a cached hash across processes.

    Args:
        name: workload name (e.g. ``"LeNet-5"``).
        input_spec: the input plane.
        layers: CONV / POOL / FC layers in execution order.

    Raises:
        SpecificationError: when consecutive shapes do not chain.
    """

    __slots__ = ("name", "input_spec", "layers", "_hash", "_contexts")

    def __init__(self, name: str, input_spec: InputSpec, layers: Sequence[Layer]):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "input_spec", input_spec)
        init(self, "layers", tuple(layers))
        init(self, "_hash", None)
        init(self, "_contexts", None)
        if not self.layers:
            raise SpecificationError(f"network {name!r} has no layers")
        self._validate()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Network is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Network is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), (self.name, self.input_spec, self.layers))

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        maps, size = self.input_spec.maps, self.input_spec.size
        flattened: Optional[int] = None  # set once an FC layer is reached
        for layer in self.layers:
            if isinstance(layer, ConvLayer):
                if flattened is not None:
                    raise SpecificationError(
                        f"{self.name}: CONV layer {layer.name!r} after FC layers"
                    )
                if layer.in_maps != maps:
                    raise SpecificationError(
                        f"{self.name}/{layer.name}: expects {layer.in_maps} input"
                        f" maps but previous layer produces {maps}"
                    )
                if layer.in_size != size:
                    raise SpecificationError(
                        f"{self.name}/{layer.name}: expects {layer.in_size}x"
                        f"{layer.in_size} inputs but previous layer produces"
                        f" {size}x{size}"
                    )
                maps, size = layer.out_maps, layer.out_size
            elif isinstance(layer, PoolLayer):
                if flattened is not None:
                    raise SpecificationError(
                        f"{self.name}: POOL layer {layer.name!r} after FC layers"
                    )
                if layer.maps != maps:
                    raise SpecificationError(
                        f"{self.name}/{layer.name}: pools {layer.maps} maps but"
                        f" previous layer produces {maps}"
                    )
                if layer.in_size != size:
                    raise SpecificationError(
                        f"{self.name}/{layer.name}: expects {layer.in_size}x"
                        f"{layer.in_size} inputs but previous layer produces"
                        f" {size}x{size}"
                    )
                size = layer.out_size
            elif isinstance(layer, JoinLayer):
                if flattened is not None:
                    raise SpecificationError(
                        f"{self.name}: JOIN layer {layer.name!r} after FC layers"
                    )
                if layer.in_maps != maps or layer.size != size:
                    raise SpecificationError(
                        f"{self.name}/{layer.name}: joins {layer.in_maps} maps"
                        f" @{layer.size} but previous layer produces {maps}"
                        f" maps @{size}"
                    )
                maps = layer.out_maps
            elif isinstance(layer, FCLayer):
                if flattened is None:
                    flattened = maps * size * size
                if layer.in_neurons != flattened:
                    raise SpecificationError(
                        f"{self.name}/{layer.name}: expects {layer.in_neurons}"
                        f" inputs but previous layer produces {flattened}"
                    )
                flattened = layer.out_neurons
            else:  # pragma: no cover - guarded by type checks upstream
                raise SpecificationError(
                    f"{self.name}: unsupported layer type {type(layer).__name__}"
                )

    # -- accessors -----------------------------------------------------------

    @property
    def conv_layers(self) -> List[ConvLayer]:
        """The CONV layers in execution order."""
        return [l for l in self.layers if isinstance(l, ConvLayer)]

    @property
    def pool_layers(self) -> List[PoolLayer]:
        return [l for l in self.layers if isinstance(l, PoolLayer)]

    @property
    def fc_layers(self) -> List[FCLayer]:
        return [l for l in self.layers if isinstance(l, FCLayer)]

    def conv_contexts(self) -> Tuple[ConvContext, ...]:
        """CONV layers annotated with Eq. 1 successor constraints.

        For each CONV layer, find the next CONV layer (``K'``) and the pool
        window ``P`` of any POOL layer between the two (``P = 1`` when the
        layers are adjacent).  Derived once per network and cached.
        """
        if self._contexts is None:
            object.__setattr__(self, "_contexts", self._derive_contexts())
        return self._contexts

    def _derive_contexts(self) -> Tuple[ConvContext, ...]:
        contexts: List[ConvContext] = []
        layer_list = list(self.layers)
        for idx, layer in enumerate(layer_list):
            if not isinstance(layer, ConvLayer):
                continue
            next_kernel: Optional[int] = None
            pool_window = 1
            for follower in layer_list[idx + 1:]:
                if isinstance(follower, PoolLayer):
                    pool_window = follower.window
                elif isinstance(follower, JoinLayer):
                    continue  # zero-compute re-grouping; keep scanning
                elif isinstance(follower, ConvLayer):
                    next_kernel = follower.kernel
                    break
                else:  # FC layer ends the CONV chain
                    break
            contexts.append(
                ConvContext(
                    layer=layer,
                    index=idx,
                    next_kernel=next_kernel,
                    pool_window=pool_window if next_kernel is not None else 1,
                )
            )
        return tuple(contexts)

    # -- aggregate statistics --------------------------------------------------

    @property
    def total_macs(self) -> int:
        """MACs across all CONV and FC layers (POOL contributes none)."""
        total = 0
        for layer in self.layers:
            if isinstance(layer, (ConvLayer, FCLayer)):
                total += layer.macs
        return total

    @property
    def total_ops(self) -> int:
        """Arithmetic ops across all layers, the paper's GOPS numerator."""
        total = 0
        for layer in self.layers:
            total += layer.ops
        return total

    @property
    def conv_macs(self) -> int:
        return sum(l.macs for l in self.conv_layers)

    @property
    def conv_ops(self) -> int:
        return sum(l.ops for l in self.conv_layers)

    def conv_fraction(self) -> float:
        """Fraction of total MACs spent in CONV layers.

        The paper notes CONV layers take >90 % of compute for typical CNNs;
        this lets tests assert that property for the Table 1 workloads that
        include FC layers.
        """
        total = self.total_macs
        if total == 0:
            return 0.0
        return self.conv_macs / total

    def describe(self) -> str:
        """Multi-line summary in the style of Table 1."""
        lines = [f"{self.name}", f"  {self.input_spec.describe()}"]
        for layer in self.layers:
            lines.append(f"  {layer.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Network({self.name!r}, {len(self.layers)} layers)"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same name, input plane, and layer sequence."""
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.name == other.name
            and self.input_spec == other.input_spec
            and self.layers == other.layers
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.name, self.input_spec, self.layers))
            )
        return self._hash

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)
