"""The six practical CNN workloads of Table 1.

Layer shapes are transcribed from the paper's Table 1.  Pooling layers are
not listed there, but the layer-size chains imply them; each builder
documents how its chain closes.  Two table quirks are handled explicitly:

* **AlexNet** lists one of two identical layer-parts; layers C5-C7 consume
  both halves (e.g. C5 has 256 input maps while C3 lists 128 outputs).  A
  zero-compute :class:`~repro.nn.layers.JoinLayer` models the two-tower
  concatenation.
* **VGG-11** row C9 reads ``128@21x21``, which is inconsistent with C11's
  512 input maps and with 23 - 3 + 1 = 21; we use ``512@21x21`` (the
  evident typo fix).

The registry functions at the bottom are the public lookup API used by the
experiment harness (``get_workload("LeNet-5")`` etc.).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer, FCLayer, InputSpec, JoinLayer, PoolLayer
from repro.nn.network import Network


def build_pv() -> Network:
    """PV — pedestrian and vehicle recognition [Wang & Xu, ICIMCS'15].

    Chain: 50 -> C1(6) -> 45 -> pool2 -> 22 (truncating: 45 is odd)
    -> C3(3) -> 20 -> pool2 -> 10 -> C5(3) -> 8 -> C6(3) -> 6 -> C7(3) -> 4.
    """
    return Network(
        "PV",
        InputSpec(maps=1, size=50),
        [
            ConvLayer("C1", in_maps=1, out_maps=8, out_size=45, kernel=6),
            PoolLayer("S2", maps=8, in_size=45, out_size=22, window=2),
            ConvLayer("C3", in_maps=8, out_maps=12, out_size=20, kernel=3),
            PoolLayer("S4", maps=12, in_size=20, out_size=10, window=2),
            ConvLayer("C5", in_maps=12, out_maps=16, out_size=8, kernel=3),
            ConvLayer("C6", in_maps=16, out_maps=10, out_size=6, kernel=3),
            ConvLayer("C7", in_maps=10, out_maps=6, out_size=4, kernel=3),
        ],
    )


def build_fr() -> Network:
    """FR — face recognition [Dawwd & Mahmood, IDT'09].

    Chain: 32 -> C1(5) -> 28 -> pool2 (overlapped, 28 -> 13) -> C3(4) -> 10.
    """
    return Network(
        "FR",
        InputSpec(maps=1, size=32),
        [
            ConvLayer("C1", in_maps=1, out_maps=4, out_size=28, kernel=5),
            PoolLayer("S2", maps=4, in_size=28, out_size=13, window=2),
            ConvLayer("C3", in_maps=4, out_maps=16, out_size=10, kernel=4),
            PoolLayer("S4", maps=16, in_size=10, out_size=5, window=2),
            FCLayer("F5", in_neurons=16 * 5 * 5, out_neurons=40),
        ],
    )


def build_lenet5() -> Network:
    """LeNet-5 — handwriting recognition [LeCun et al., 1998].

    Chain: 32 -> C1(5) -> 28 -> pool2 -> 14 -> C3(5) -> 10 -> pool2 -> 5
    -> F5(120) -> F6(84) -> OUT(10).
    """
    return Network(
        "LeNet-5",
        InputSpec(maps=1, size=32),
        [
            ConvLayer("C1", in_maps=1, out_maps=6, out_size=28, kernel=5),
            PoolLayer("S2", maps=6, in_size=28, out_size=14, window=2),
            ConvLayer("C3", in_maps=6, out_maps=16, out_size=10, kernel=5),
            PoolLayer("S4", maps=16, in_size=10, out_size=5, window=2),
            FCLayer("F5", in_neurons=16 * 5 * 5, out_neurons=120),
            FCLayer("F6", in_neurons=120, out_neurons=84),
            FCLayer("OUT", in_neurons=84, out_neurons=10),
        ],
    )


def build_hg() -> Network:
    """HG — hand gesture recognition [Lin et al., CASE'14].

    Chain: 28 -> C1(5) -> 24 -> pool2 (truncating, 24 -> 11) -> C3(4) -> 8.
    """
    return Network(
        "HG",
        InputSpec(maps=1, size=28),
        [
            ConvLayer("C1", in_maps=1, out_maps=6, out_size=24, kernel=5),
            PoolLayer("S2", maps=6, in_size=24, out_size=11, window=2),
            ConvLayer("C3", in_maps=6, out_maps=12, out_size=8, kernel=4),
        ],
    )


def build_alexnet() -> Network:
    """AlexNet [Krizhevsky et al., 2012] — one of two identical layer-parts.

    Table 1 lists the half-tower kernel counts (48/128/192/192/128); the
    C5-C7 inputs span both towers (256 = 2 x 128, and 192 each), modelled by
    JOIN layers.  C1 runs stride 4 on a 224-pixel input (implied padding),
    and C3/C5/C6/C7 use same-padding as in the original network.
    """
    return Network(
        "AlexNet",
        InputSpec(maps=3, size=224),
        [
            ConvLayer(
                "C1", in_maps=3, out_maps=48, out_size=55, kernel=11,
                stride=4, explicit_in_size=224,
            ),
            PoolLayer("P1", maps=48, in_size=55, out_size=27, window=3),
            ConvLayer(
                "C3", in_maps=48, out_maps=128, out_size=27, kernel=5,
                explicit_in_size=27,
            ),
            PoolLayer("P3", maps=128, in_size=27, out_size=13, window=3),
            JoinLayer("J4", in_maps=128, out_maps=256, size=13),
            ConvLayer(
                "C5", in_maps=256, out_maps=192, out_size=13, kernel=3,
                explicit_in_size=13,
            ),
            ConvLayer(
                "C6", in_maps=192, out_maps=192, out_size=13, kernel=3,
                explicit_in_size=13,
            ),
            ConvLayer(
                "C7", in_maps=192, out_maps=128, out_size=13, kernel=3,
                explicit_in_size=13,
            ),
            PoolLayer("P5", maps=128, in_size=13, out_size=6, window=3),
            JoinLayer("J6", in_maps=128, out_maps=256, size=6),
            FCLayer("F6", in_neurons=256 * 6 * 6, out_neurons=4096),
            FCLayer("F7", in_neurons=4096, out_neurons=4096),
            FCLayer("F8", in_neurons=4096, out_neurons=1000),
        ],
    )


def build_vgg11() -> Network:
    """VGG-11 [Simonyan & Zisserman, 2014] with Table 1's valid-conv sizes.

    Table 1 models VGG-11 without padding (C1 produces 222 = 224 - 3 + 1),
    with truncating 2x2 pools closing every chain:
    224 -> 222 -> 111 -> 109 -> 54 -> 52 -> 50 -> 25 -> 23 -> 21 -> 10
    -> 8 -> 6 -> 3.  Row C9's ``128@21x21`` is the documented typo; we use
    512 output maps.
    """
    return Network(
        "VGG-11",
        InputSpec(maps=3, size=224),
        [
            ConvLayer("C1", in_maps=3, out_maps=64, out_size=222, kernel=3),
            PoolLayer("P2", maps=64, in_size=222, out_size=111, window=2),
            ConvLayer("C3", in_maps=64, out_maps=128, out_size=109, kernel=3),
            PoolLayer("P4", maps=128, in_size=109, out_size=54, window=2),
            ConvLayer("C5", in_maps=128, out_maps=256, out_size=52, kernel=3),
            ConvLayer("C6", in_maps=256, out_maps=256, out_size=50, kernel=3),
            PoolLayer("P7", maps=256, in_size=50, out_size=25, window=2),
            ConvLayer("C8", in_maps=256, out_maps=512, out_size=23, kernel=3),
            ConvLayer("C9", in_maps=512, out_maps=512, out_size=21, kernel=3),
            PoolLayer("P10", maps=512, in_size=21, out_size=10, window=2),
            ConvLayer("C11", in_maps=512, out_maps=512, out_size=8, kernel=3),
            ConvLayer("C12", in_maps=512, out_maps=512, out_size=6, kernel=3),
            PoolLayer("P13", maps=512, in_size=6, out_size=3, window=2),
            FCLayer("F14", in_neurons=512 * 3 * 3, out_neurons=4096),
            FCLayer("F15", in_neurons=4096, out_neurons=4096),
            FCLayer("F16", in_neurons=4096, out_neurons=1000),
        ],
    )


#: Builders for the six evaluation workloads, in the paper's order.
_BUILDERS: Dict[str, Callable[[], Network]] = {
    "PV": build_pv,
    "FR": build_fr,
    "LeNet-5": build_lenet5,
    "HG": build_hg,
    "AlexNet": build_alexnet,
    "VGG-11": build_vgg11,
}

#: All workload names, in the paper's presentation order.
WORKLOAD_NAMES: List[str] = list(_BUILDERS)

#: The four small workloads used in Tables 3 and 4.
SMALL_WORKLOAD_NAMES: List[str] = ["PV", "FR", "LeNet-5", "HG"]


#: One build per workload per process, made on first use.
_BUILT: Dict[str, Network] = {}


def get_workload(name: str) -> Network:
    """The named Table 1 workload, shared by every caller in the process.

    The first call builds it; later calls return the same immutable
    :class:`~repro.nn.network.Network`, so its cached hash and conv
    contexts serve every memo keyed on it.

    Raises:
        SpecificationError: for unknown workload names (the message lists
            the valid ones).
    """
    network = _BUILT.get(name)
    if network is None:
        try:
            builder = _BUILDERS[name]
        except KeyError:
            raise SpecificationError(
                f"unknown workload {name!r}; available: {', '.join(WORKLOAD_NAMES)}"
            ) from None
        # setdefault keeps the first build if two threads race here.
        network = _BUILT.setdefault(name, builder())
    return network


def all_workloads() -> List[Network]:
    """All six Table 1 workloads, in the paper's order."""
    return [get_workload(name) for name in WORKLOAD_NAMES]


def small_workloads() -> List[Network]:
    """The four small workloads of Tables 3 and 4 (PV, FR, LeNet-5, HG)."""
    return [get_workload(name) for name in SMALL_WORKLOAD_NAMES]
