"""Tests pinning the Table 1 workload transcriptions."""

import pytest

from repro.errors import SpecificationError
from repro.nn import (
    SMALL_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    all_workloads,
    get_workload,
    small_workloads,
)

# (workload, layer, N, M, S, K) rows straight from Table 1.
TABLE1_ROWS = [
    ("PV", "C1", 1, 8, 45, 6),
    ("PV", "C3", 8, 12, 20, 3),
    ("PV", "C5", 12, 16, 8, 3),
    ("PV", "C6", 16, 10, 6, 3),
    ("PV", "C7", 10, 6, 4, 3),
    ("FR", "C1", 1, 4, 28, 5),
    ("FR", "C3", 4, 16, 10, 4),
    ("LeNet-5", "C1", 1, 6, 28, 5),
    ("LeNet-5", "C3", 6, 16, 10, 5),
    ("HG", "C1", 1, 6, 24, 5),
    ("HG", "C3", 6, 12, 8, 4),
    ("AlexNet", "C1", 3, 48, 55, 11),
    ("AlexNet", "C3", 48, 128, 27, 5),
    ("AlexNet", "C5", 256, 192, 13, 3),
    ("AlexNet", "C6", 192, 192, 13, 3),
    ("AlexNet", "C7", 192, 128, 13, 3),
    ("VGG-11", "C1", 3, 64, 222, 3),
    ("VGG-11", "C3", 64, 128, 109, 3),
    ("VGG-11", "C5", 128, 256, 52, 3),
    ("VGG-11", "C6", 256, 256, 50, 3),
    ("VGG-11", "C8", 256, 512, 23, 3),
    ("VGG-11", "C9", 512, 512, 21, 3),  # 512, not the table's typo'd 128
    ("VGG-11", "C11", 512, 512, 8, 3),
    ("VGG-11", "C12", 512, 512, 6, 3),
]


@pytest.mark.parametrize("workload,layer,n,m,s,k", TABLE1_ROWS)
def test_table1_row(workload, layer, n, m, s, k):
    net = get_workload(workload)
    layers = {l.name: l for l in net.conv_layers}
    assert layer in layers, f"{workload} missing {layer}"
    conv = layers[layer]
    assert conv.in_maps == n
    assert conv.out_maps == m
    assert conv.out_size == s
    assert conv.kernel == k


def test_registry_has_six_workloads():
    assert WORKLOAD_NAMES == ["PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"]
    assert len(all_workloads()) == 6


def test_small_workloads_are_the_table34_four():
    assert SMALL_WORKLOAD_NAMES == ["PV", "FR", "LeNet-5", "HG"]
    assert [n.name for n in small_workloads()] == SMALL_WORKLOAD_NAMES


def test_unknown_workload_lists_alternatives():
    with pytest.raises(SpecificationError, match="LeNet-5"):
        get_workload("ResNet")


def test_get_workload_returns_one_shared_build():
    # Networks are immutable, so every caller can share one build (and
    # its cached hash and conv contexts).
    assert get_workload("PV") is get_workload("PV")
    assert all(
        net is get_workload(net.name) for net in all_workloads()
    )
    assert all(
        net is get_workload(net.name) for net in small_workloads()
    )


def test_alexnet_c1_stride_and_input():
    net = get_workload("AlexNet")
    c1 = net.conv_layers[0]
    assert c1.stride == 4
    assert c1.in_size == 224  # Table 1 input plane, padding implied
    assert c1.padding == 3


def test_alexnet_join_bridges_towers():
    net = get_workload("AlexNet")
    c5 = {l.name: l for l in net.conv_layers}["C5"]
    assert c5.in_maps == 256  # both towers


def test_conv_dominates_compute_for_big_nets():
    # The paper: CONV layers take >90 % of computation for typical CNNs.
    for name in ("AlexNet", "VGG-11"):
        net = get_workload(name)
        assert net.conv_fraction() > 0.8, name


def test_vgg_total_macs_scale():
    # VGG-11 at Table 1 sizes is ~5.2 GMAC; pin the order of magnitude so
    # accidental shape edits are caught.
    net = get_workload("VGG-11")
    assert 4e9 < net.total_macs < 7e9


def test_every_workload_has_conv_contexts_with_bounds():
    for net in all_workloads():
        contexts = net.conv_contexts()
        assert len(contexts) == len(net.conv_layers)
        # every non-final context carries a Tr/Tc bound
        for ctx in contexts[:-1]:
            assert ctx.tr_tc_bound is not None and ctx.tr_tc_bound >= 1
        assert contexts[-1].tr_tc_bound is None
