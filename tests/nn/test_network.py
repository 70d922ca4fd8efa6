"""Unit tests for the Network container: chaining, contexts, statistics."""

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import SpecificationError
from repro.nn import ConvLayer, FCLayer, InputSpec, JoinLayer, Network, PoolLayer


def small_net():
    return Network(
        "toy",
        InputSpec(maps=1, size=12),
        [
            ConvLayer("C1", in_maps=1, out_maps=4, out_size=10, kernel=3),
            PoolLayer("S2", maps=4, in_size=10, out_size=5, window=2),
            ConvLayer("C3", in_maps=4, out_maps=8, out_size=3, kernel=3),
            FCLayer("F4", in_neurons=8 * 3 * 3, out_neurons=10),
        ],
    )


class TestValidation:
    def test_valid_network_constructs(self):
        net = small_net()
        assert len(net) == 4

    def test_empty_network_rejected(self):
        with pytest.raises(SpecificationError):
            Network("empty", InputSpec(1, 8), [])

    def test_conv_map_mismatch_rejected(self):
        with pytest.raises(SpecificationError, match="input"):
            Network(
                "bad",
                InputSpec(maps=1, size=12),
                [ConvLayer("C1", in_maps=2, out_maps=4, out_size=10, kernel=3)],
            )

    def test_conv_size_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            Network(
                "bad",
                InputSpec(maps=1, size=12),
                [ConvLayer("C1", in_maps=1, out_maps=4, out_size=4, kernel=3)],
            )

    def test_pool_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            Network(
                "bad",
                InputSpec(maps=1, size=12),
                [
                    ConvLayer("C1", in_maps=1, out_maps=4, out_size=10, kernel=3),
                    PoolLayer("S2", maps=4, in_size=8, out_size=4, window=2),
                ],
            )

    def test_fc_size_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            Network(
                "bad",
                InputSpec(maps=1, size=12),
                [
                    ConvLayer("C1", in_maps=1, out_maps=4, out_size=10, kernel=3),
                    FCLayer("F2", in_neurons=99, out_neurons=10),
                ],
            )

    def test_conv_after_fc_rejected(self):
        with pytest.raises(SpecificationError, match="after FC"):
            Network(
                "bad",
                InputSpec(maps=1, size=12),
                [
                    ConvLayer("C1", in_maps=1, out_maps=4, out_size=10, kernel=3),
                    FCLayer("F2", in_neurons=400, out_neurons=10),
                    ConvLayer("C3", in_maps=4, out_maps=4, out_size=8, kernel=3),
                ],
            )

    def test_join_layer_regroups_maps(self):
        net = Network(
            "towers",
            InputSpec(maps=1, size=6),
            [
                ConvLayer("C1", in_maps=1, out_maps=4, out_size=4, kernel=3),
                JoinLayer("J1", in_maps=4, out_maps=8, size=4),
                ConvLayer("C2", in_maps=8, out_maps=2, out_size=2, kernel=3),
            ],
        )
        assert net.conv_layers[1].in_maps == 8

    def test_join_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            Network(
                "bad",
                InputSpec(maps=1, size=6),
                [
                    ConvLayer("C1", in_maps=1, out_maps=4, out_size=4, kernel=3),
                    JoinLayer("J1", in_maps=5, out_maps=8, size=4),
                ],
            )

    def test_chained_fc_layers(self):
        net = Network(
            "fcs",
            InputSpec(maps=1, size=4),
            [
                FCLayer("F1", in_neurons=16, out_neurons=8),
                FCLayer("F2", in_neurons=8, out_neurons=4),
            ],
        )
        assert len(net.fc_layers) == 2


class TestConvContexts:
    def test_context_sees_next_kernel_and_pool(self):
        net = small_net()
        contexts = net.conv_contexts()
        assert len(contexts) == 2
        first, last = contexts
        assert first.layer.name == "C1"
        assert first.next_kernel == 3
        assert first.pool_window == 2
        assert first.tr_tc_bound == 6  # P * K' = 2 * 3
        assert last.next_kernel is None
        assert last.tr_tc_bound is None

    def test_adjacent_convs_have_pool_window_one(self):
        net = Network(
            "adj",
            InputSpec(maps=1, size=8),
            [
                ConvLayer("C1", in_maps=1, out_maps=2, out_size=6, kernel=3),
                ConvLayer("C2", in_maps=2, out_maps=2, out_size=4, kernel=3),
            ],
        )
        ctx = net.conv_contexts()[0]
        assert ctx.pool_window == 1
        assert ctx.tr_tc_bound == 3

    def test_join_does_not_break_context_scan(self):
        net = Network(
            "towers",
            InputSpec(maps=1, size=6),
            [
                ConvLayer("C1", in_maps=1, out_maps=4, out_size=4, kernel=3),
                JoinLayer("J1", in_maps=4, out_maps=8, size=4),
                ConvLayer("C2", in_maps=8, out_maps=2, out_size=2, kernel=3),
            ],
        )
        ctx = net.conv_contexts()[0]
        assert ctx.next_kernel == 3


class TestStatistics:
    def test_total_macs_sums_conv_and_fc(self):
        net = small_net()
        conv_macs = sum(l.macs for l in net.conv_layers)
        fc_macs = sum(l.macs for l in net.fc_layers)
        assert net.total_macs == conv_macs + fc_macs

    def test_conv_fraction_between_zero_and_one(self):
        net = small_net()
        assert 0.0 < net.conv_fraction() <= 1.0

    def test_describe_contains_layer_names(self):
        text = small_net().describe()
        for name in ("C1", "S2", "C3", "F4"):
            assert name in text

    def test_iteration(self):
        net = small_net()
        assert [l.name for l in net] == ["C1", "S2", "C3", "F4"]


def _compare_with_fresh_build(payload: bytes):
    """Runs in a spawned process: the shipped network against a new build."""
    from repro.nn.workloads import get_workload

    shipped = pickle.loads(payload)
    fresh = get_workload(shipped.name)
    return (
        shipped == fresh,
        hash(shipped) == hash(fresh),
        {fresh: "hit"}.get(shipped),
    )


class TestImmutability:
    @pytest.mark.parametrize("attr", ["name", "input_spec", "layers", "extra"])
    def test_assigning_an_attribute_raises(self, attr):
        net = small_net()
        with pytest.raises(AttributeError, match="immutable"):
            setattr(net, attr, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(net, attr)
        assert net == small_net()

    def test_conv_contexts_cached_as_a_tuple(self):
        net = small_net()
        contexts = net.conv_contexts()
        assert isinstance(contexts, tuple)
        assert net.conv_contexts() is contexts

    def test_hash_and_equality_stay_structural(self):
        net = small_net()
        assert hash(net) == hash(net) == hash(small_net())
        assert net == small_net()

    def test_pickled_network_matches_fresh_build_in_spawned_process(
        self, monkeypatch
    ):
        from repro.nn.workloads import get_workload

        net = get_workload("LeNet-5")
        hash(net)  # the cached hash must not travel with the pickle
        # Give the child a different string-hash salt than this process.
        seed = os.environ.get("PYTHONHASHSEED", "")
        monkeypatch.setenv(
            "PYTHONHASHSEED", str(int(seed) + 1) if seed.isdigit() else "1"
        )
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            equal, same_hash, lookup = pool.submit(
                _compare_with_fresh_build, pickle.dumps(net)
            ).result(timeout=120)
        assert equal and same_hash and lookup == "hit"
