"""Tests for AvailabilityMask and the greedy live-subgrid remapping."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import AvailabilityMask, LiveGrid, live_grid


class TestAvailabilityMask:
    def test_healthy_has_no_dead(self):
        mask = AvailabilityMask.healthy(8)
        assert mask.is_healthy
        assert mask.num_dead == 0
        assert mask.num_live == 64

    def test_dead_normalized_to_int_tuples(self):
        mask = AvailabilityMask(array_dim=4, dead=frozenset({(1, 2)}))
        assert mask.is_dead(1, 2)
        assert not mask.is_dead(2, 1)
        assert mask.num_dead == 1

    def test_out_of_range_pe_rejected(self):
        with pytest.raises(ConfigurationError):
            AvailabilityMask(array_dim=4, dead=frozenset({(4, 0)}))
        with pytest.raises(ConfigurationError):
            AvailabilityMask(array_dim=4, dead=frozenset({(0, -1)}))

    def test_malformed_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            AvailabilityMask(array_dim=4, dead=frozenset({(1, 2, 3)}))

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            AvailabilityMask(array_dim=0)
        with pytest.raises(ConfigurationError):
            AvailabilityMask(array_dim=True)

    def test_from_failures_expands_rows_and_cols(self):
        mask = AvailabilityMask.from_failures(
            4, dead_rows=[1], dead_cols=[2], dead_pes=[(0, 0)]
        )
        assert mask.is_dead(1, 0) and mask.is_dead(1, 3)
        assert mask.is_dead(0, 2) and mask.is_dead(3, 2)
        assert mask.is_dead(0, 0)
        # row 1 (4 PEs) + col 2 (4 PEs) - overlap (1,2) + (0,0) = 8
        assert mask.num_dead == 8

    def test_from_failures_range_checks(self):
        with pytest.raises(ConfigurationError):
            AvailabilityMask.from_failures(4, dead_rows=[4])
        with pytest.raises(ConfigurationError):
            AvailabilityMask.from_failures(4, dead_cols=[-1])

    def test_describe_ascii_map(self):
        mask = AvailabilityMask.from_failures(3, dead_pes=[(0, 1)])
        assert mask.describe() == ".X.\n...\n..."

    def test_hashable_for_cache_keys(self):
        mask = AvailabilityMask.from_failures(4, dead_pes=[(0, 0)])
        assert hash(mask) == hash(
            AvailabilityMask.from_failures(4, dead_pes=[(0, 0)])
        )


class TestLiveGrid:
    def test_healthy_grid_is_identity(self):
        grid = live_grid(AvailabilityMask.healthy(4))
        assert grid.rows == (0, 1, 2, 3)
        assert grid.cols == (0, 1, 2, 3)
        assert grid.usable_pes == 16
        assert grid.physical_row(2) == 2

    def test_selected_subgrid_is_fault_free(self):
        mask = AvailabilityMask.from_failures(
            6, dead_pes=[(0, 0), (0, 3), (2, 1), (4, 4), (5, 0)]
        )
        grid = live_grid(mask)
        for row in grid.rows:
            for col in grid.cols:
                assert not mask.is_dead(row, col)

    def test_dead_row_retired_wholesale(self):
        mask = AvailabilityMask.from_failures(4, dead_rows=[2])
        grid = live_grid(mask)
        assert grid.rows == (0, 1, 3)
        assert grid.cols == (0, 1, 2, 3)

    def test_dead_col_retired_wholesale(self):
        mask = AvailabilityMask.from_failures(4, dead_cols=[0])
        grid = live_grid(mask)
        assert grid.rows == (0, 1, 2, 3)
        assert grid.cols == (1, 2, 3)

    def test_memoized_per_mask_and_cleared_with_mapping_memos(self):
        from repro.dataflow import clear_mapping_cache

        clear_mapping_cache()
        grid = live_grid(AvailabilityMask.from_failures(8, dead_pes=[(1, 2)]))
        again = live_grid(AvailabilityMask.from_failures(8, dead_pes=[(1, 2)]))
        assert again is grid
        assert live_grid.cache_info().currsize == 1
        clear_mapping_cache()
        assert live_grid.cache_info().currsize == 0

    def test_deterministic(self):
        mask = AvailabilityMask.from_failures(
            8, dead_pes=[(0, 0), (1, 1), (2, 2), (3, 0), (0, 5)]
        )
        assert live_grid(mask) == live_grid(mask)

    def test_logical_to_physical_mapping_ordered(self):
        mask = AvailabilityMask.from_failures(4, dead_rows=[1])
        grid = live_grid(mask)
        assert grid.physical_row(0) == 0
        assert grid.physical_row(1) == 2
        assert grid.physical_row(2) == 3
        with pytest.raises(ConfigurationError):
            grid.physical_row(3)
        with pytest.raises(ConfigurationError):
            grid.physical_col(4)

    def test_fully_dead_array_yields_empty_grid(self):
        mask = AvailabilityMask.from_failures(2, dead_rows=[0, 1])
        grid = live_grid(mask)
        assert grid.usable_pes == 0

    def test_single_scattered_fault_costs_one_line(self):
        mask = AvailabilityMask.from_failures(8, dead_pes=[(3, 5)])
        grid = live_grid(mask)
        assert grid.usable_rows * grid.usable_cols == 8 * 7

    def test_grid_construction_direct(self):
        grid = LiveGrid(array_dim=4, rows=(0, 2), cols=(1, 3))
        assert grid.usable_rows == 2
        assert grid.usable_cols == 2
        assert grid.physical_col(1) == 3
