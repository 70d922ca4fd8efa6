"""Tests for unrolling factors and Eq. 1 feasibility."""

import random

import pytest

from repro.dataflow import UnrollingFactors, ceil_div, useful_values
from repro.errors import MappingError
from repro.nn import ConvLayer
from tests import dse_oracle
from tests.dse_oracle import iter_triples


def layer_c3():
    # LeNet-5 C3: N=6, M=16, S=10, K=5.
    return ConvLayer("C3", in_maps=6, out_maps=16, out_size=10, kernel=5)


class TestCeilDiv:
    @pytest.mark.parametrize(
        "value,divisor,expected",
        [(10, 3, 4), (10, 5, 2), (1, 16, 1), (0, 4, 0), (16, 16, 1)],
    )
    def test_values(self, value, divisor, expected):
        assert ceil_div(value, divisor) == expected

    def test_zero_divisor_rejected(self):
        with pytest.raises(MappingError):
            ceil_div(10, 0)

    def test_negative_divisor_rejected(self):
        with pytest.raises(MappingError):
            ceil_div(10, -2)

    def test_negative_value_rejected(self):
        # ceil_div operates on counts; a negative value is an upstream bug
        # and must not silently return the floor-like -(-(-5)//2) == -2.
        with pytest.raises(MappingError, match="non-negative"):
            ceil_div(-5, 2)

    def test_zero_value_allowed(self):
        assert ceil_div(0, 7) == 0


class TestUnrollingFactors:
    def test_triples(self):
        f = UnrollingFactors(tm=3, tn=1, tr=1, tc=5, ti=3, tj=5)
        assert f.input_triple == (1, 3, 5)
        assert f.output_triple == (3, 1, 5)
        assert f.row_occupancy == 15
        assert f.column_occupancy == 15

    def test_nonpositive_rejected(self):
        with pytest.raises(MappingError):
            UnrollingFactors(tm=0, tn=1, tr=1, tc=1, ti=1, tj=1)

    def test_check_passes_for_table4_lenet_c1(self):
        c1 = ConvLayer("C1", in_maps=1, out_maps=6, out_size=28, kernel=5)
        f = UnrollingFactors(tm=3, tn=1, tr=1, tc=5, ti=3, tj=5)
        f.check(c1, 16, tr_tc_bound=10)  # P=2, K'=5

    def test_check_rejects_dimension_overflow(self):
        f = UnrollingFactors(tm=1, tn=7, tr=1, tc=1, ti=1, tj=1)
        with pytest.raises(MappingError, match="tn"):
            f.check(layer_c3(), 16)

    def test_check_rejects_row_packing_overflow(self):
        f = UnrollingFactors(tm=1, tn=6, tr=1, tc=1, ti=3, tj=1)
        with pytest.raises(MappingError, match="Tn\\*Ti\\*Tj"):
            f.check(layer_c3(), 16)

    def test_check_rejects_column_packing_overflow(self):
        f = UnrollingFactors(tm=16, tn=1, tr=2, tc=1, ti=1, tj=1)
        with pytest.raises(MappingError, match="Tm\\*Tr\\*Tc"):
            f.check(layer_c3(), 16)

    def test_check_rejects_successor_bound(self):
        f = UnrollingFactors(tm=1, tn=1, tr=8, tc=1, ti=1, tj=1)
        with pytest.raises(MappingError, match="P\\*K'"):
            f.check(layer_c3(), 16, tr_tc_bound=6)

    def test_is_feasible_predicate(self):
        good = UnrollingFactors(tm=1, tn=1, tr=1, tc=1, ti=1, tj=1)
        bad = UnrollingFactors(tm=32, tn=1, tr=1, tc=1, ti=1, tj=1)
        assert good.is_feasible(layer_c3(), 16)
        assert not bad.is_feasible(layer_c3(), 16)

    def test_outer_iterations_product(self):
        layer = layer_c3()
        f = UnrollingFactors(tm=16, tn=3, tr=1, tc=1, ti=1, tj=5)
        # in: ceil(6/3)*ceil(5/1)*ceil(5/5) = 2*5*1 = 10
        assert f.input_iterations(layer) == 10
        # out: ceil(16/16)*ceil(10/1)*ceil(10/1) = 100
        assert f.output_iterations(layer) == 100
        assert f.outer_iterations(layer) == 1000

    def test_describe(self):
        f = UnrollingFactors(tm=1, tn=2, tr=3, tc=4, ti=5, tj=6)
        assert f.describe() == "<Tm=1, Tn=2, Tr=3, Tc=4, Ti=5, Tj=6>"


class TestUsefulValues:
    def test_small_dimension_all_values(self):
        assert useful_values(4, 16) == (1, 2, 4)

    def test_values_cover_all_quotients(self):
        # Every achievable ceil(28/T) quotient is achieved by some value.
        values = useful_values(28, 28)
        quotients = {ceil_div(28, t) for t in values}
        all_quotients = {ceil_div(28, t) for t in range(1, 29)}
        assert quotients == all_quotients

    def test_respects_limit(self):
        assert max(useful_values(28, 10)) <= 10

    def test_always_contains_one(self):
        assert 1 in useful_values(100, 3)

    def test_much_smaller_than_dimension(self):
        assert len(useful_values(512, 512)) < 2 * 24 + 2  # ~2*sqrt(512)

    def test_invalid_rejected(self):
        with pytest.raises(MappingError):
            useful_values(0, 4)
        with pytest.raises(MappingError):
            useful_values(4, 0)

    def test_block_walk_matches_every_quotient_loop(self):
        # The loop's set at limit L is its full set clipped to L, so one
        # loop per dimension checks every limit below.
        for dimension in range(1, 4097):
            full = dse_oracle.useful_values(dimension, dimension)
            limits = {1, 2, 3, 16, 97, max(1, dimension // 2), dimension - 1,
                      dimension, dimension + 7}
            for limit in limits - {0}:
                want = tuple(v for v in full if v <= limit)
                assert useful_values(dimension, limit) == want, (dimension, limit)

    def test_block_walk_matches_loop_on_large_dimensions(self):
        rng = random.Random(26)
        for dimension in [9216, 10**5] + rng.sample(range(4097, 10**5), 12):
            for limit in (1, 256, 4096, dimension):
                assert useful_values(dimension, limit) == dse_oracle.useful_values(
                    dimension, limit
                ), (dimension, limit)


class TestIterTriples:
    def test_product_bounded(self):
        for triple in iter_triples((6, 5, 5), 16, (6, 5, 5)):
            a, b, c = triple
            assert a * b * c <= 16

    def test_respects_caps(self):
        for _a, b, c in iter_triples((16, 10, 10), 16, (16, 6, 6)):
            assert b <= 6 and c <= 6

    def test_contains_trivial_triple(self):
        assert (1, 1, 1) in set(iter_triples((6, 5, 5), 16, (6, 5, 5)))

    def test_zero_limit_rejected(self):
        with pytest.raises(MappingError):
            list(iter_triples((2, 2, 2), 0, (2, 2, 2)))
