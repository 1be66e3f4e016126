import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edp.grid import (DIRECTIONS, GridMap, decode_cell, haversine_km, l1_distance, neighbors,
                      step_direction, step_mask, step_pairs, unit_grid)
from edp.update import _affected_mask_paper


class TestStepMask:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 12))
    def test_matches_neighbors(self, g):
        mask = step_mask(g)
        assert mask.shape == (g, g, 4) and mask.dtype == bool
        for r in range(g):
            for c in range(g):
                inside = {divmod(x, g) for x in neighbors(r * g + c, g)}
                for d, (dr, dc) in enumerate(DIRECTIONS):
                    assert mask[r, c, d] == ((r + dr, c + dc) in inside)

    @pytest.mark.parametrize("g", [1, 2, 3, 7])
    def test_step_pairs_list_every_step_once(self, g):
        src, dst, direction = step_pairs(g)
        # neighbors lists each cell's in-grid neighbours in direction order
        assert list(zip(src.tolist(), dst.tolist())) == [
            (a, b) for a in range(g * g) for b in neighbors(a, g)]
        assert [step_direction(a, b, g) for a, b in zip(src, dst)] == direction.tolist()

    def test_step_pairs_are_shared_and_read_only(self):
        pairs = step_pairs(5)
        assert step_pairs(5) is pairs
        for a in pairs:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


class TestL1Distance:
    def test_figure_cells(self):
        # frozen from the BFS oracle: decode 56 -> (5,6), 88 -> (8,8)
        assert oracles.bfs_hops(56, 88, 10) == 5
        assert l1_distance(56, 88, 10) == 5

    def test_identity(self):
        assert l1_distance(7, 7, 10) == 0

    def test_opposite_corners(self):
        assert l1_distance(0, 99, 10) == 18

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            l1_distance(100, 0, 10)
        with pytest.raises(ValueError):
            l1_distance(0, -1, 10)

    @pytest.mark.parametrize("g", [2, 5, 9])
    def test_matches_bfs(self, g):
        rng = np.random.default_rng(g)
        for _ in range(40):
            a, b = rng.integers(g * g, size=2)
            assert l1_distance(int(a), int(b), g) == oracles.bfs_hops(int(a), int(b), g)


class TestParityReachable:
    def test_examples(self):
        assert oracles.parity_reachable(56, 88, 5, 10)
        assert not oracles.parity_reachable(56, 88, 6, 10)
        assert oracles.parity_reachable(3, 3, 0, 10)

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            oracles.parity_reachable(0, 1, -1, 4)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_agrees_with_boolean_power(self, g):
        n = g * g
        A = np.zeros((n, n), dtype=np.uint8)
        for cell in range(n):
            for nb in oracles.grid_neighbors(cell, g):
                A[cell, nb] = 1
        B = np.eye(n, dtype=np.uint8)
        for s in range(1, 2 * g + 1):
            B = ((B @ A) > 0).astype(np.uint8)
            expected = np.array(
                [[oracles.parity_reachable(a, b, s, g) for b in range(n)] for a in range(n)]
            )
            assert np.array_equal(B.astype(bool), expected), (g, s)


class TestRelativeAdjacentPair:
    def test_figure_example(self):
        assert set(oracles.relative_adjacent_pair(56, 88, 10)) == {78, 87}

    def test_same_row_single(self):
        assert set(oracles.relative_adjacent_pair(56, 58, 10)) == {57}

    def test_corner_pair(self):
        # frozen from brute force: neighbors of 11 on minimal 0 -> 11 paths
        assert oracles.brute_rap(0, 11, 10) == {1, 10}
        assert set(oracles.relative_adjacent_pair(0, 11, 10)) == {1, 10}

    def test_identical_cells_rejected(self):
        with pytest.raises(ValueError):
            oracles.relative_adjacent_pair(4, 4, 10)

    @pytest.mark.parametrize("g", [3, 4, 7, 12])
    def test_matches_brute_force_and_properties(self, g):
        rng = np.random.default_rng(g + 100)
        for _ in range(40):
            i, j = rng.integers(g * g, size=2)
            i, j = int(i), int(j)
            if i == j:
                continue
            rap = set(oracles.relative_adjacent_pair(i, j, g))
            assert rap == oracles.brute_rap(i, j, g)
            for p in rap:
                assert l1_distance(p, j, g) == 1
                assert l1_distance(i, p, g) == l1_distance(i, j, g) - 1


def beyond_rows(j, g):
    """Zero-detour paper-mode mask for a change at j: row i is the
    rectangle beyond j as seen from origin i."""
    return _affected_mask_paper([j], 0, g)


def cells(row):
    return set(np.flatnonzero(row).tolist())


class TestRectBeyond:
    def test_figure_rectangle(self):
        expected = {60, 61, 62, 70, 71, 72, 80, 81, 82, 90, 91, 92}
        assert cells(beyond_rows(62, 10)[56]) == expected

    def test_far_corner(self):
        assert cells(beyond_rows(99, 10)[0]) == {99}

    def test_up_left_quadrant(self):
        # frozen from brute force: all k with 33 on a minimal 55 -> k path
        expected = {r * 10 + c for r in range(4) for c in range(4)}
        assert oracles.brute_beyond(55, 33, 10) == expected
        assert cells(beyond_rows(33, 10)[55]) == expected

    def test_changed_origin_row_is_whole_grid(self):
        assert beyond_rows(3, 10)[3].all()

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_exhaustive_small_grids(self, g):
        for j in range(g * g):
            rows = beyond_rows(j, g)
            for i in range(g * g):
                if i == j:
                    continue
                got = cells(rows[i])
                brute = oracles.brute_beyond(i, j, g)
                ri, ci = decode_cell(i, g)
                rj, cj = decode_cell(j, g)
                if ri != rj and ci != cj:
                    assert got == brute, (g, i, j)
                elif ri == rj:
                    assert got == {k for k in brute if k // g == rj}, (g, i, j)
                else:
                    assert got == {k for k in brute if k % g == cj}, (g, i, j)

    @pytest.mark.parametrize("g", [10, 12])
    def test_sampled_large_grids(self, g):
        rng = np.random.default_rng(g)
        for _ in range(25):
            i, j = (int(x) for x in rng.integers(g * g, size=2))
            ri, ci = decode_cell(i, g)
            rj, cj = decode_cell(j, g)
            if i == j or ri == rj or ci == cj:
                continue
            assert cells(beyond_rows(j, g)[i]) == oracles.brute_beyond(i, j, g)


class TestGridMap:
    def test_cell_id_round_trip(self):
        g = 10
        for cell in range(g * g):
            r, c = decode_cell(cell, g)
            assert oracles.encode_cell(r, c, g) == cell

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            GridMap(0, 1, 0, 1, 1)
        with pytest.raises(ValueError):
            GridMap(1, 0, 0, 1, 4)

    @pytest.mark.parametrize("box, bound", [
        ((-math.inf, 1, 0, 1), "lat_min"), ((0, math.inf, 0, 1), "lat_max"),
        ((0, 1, math.nan, 1), "lon_min"), ((0, 1, 0, math.nan), "lon_max")])
    def test_non_finite_bound_named(self, box, bound):
        """A non-finite bound is rejected at construction, by name, where
        it used to construct a grid whose pitch raised a bare math domain
        error."""
        with pytest.raises(ValueError, match=f"{bound} must be finite"):
            GridMap(*box, 4)

    @pytest.mark.parametrize("box, named", [
        ((100, 120, 0, 1), "lat_min must be within"), ((-1e308, 1e308, 0, 1), "lat_min must"),
        ((0, 90.5, 0, 1), "lat_max must be within"), ((0, 1, -180, 180.5), "over 360")])
    def test_bound_off_earth_named(self, box, named):
        """A latitude outside [-90, 90] or a longitude span over 360
        degrees is rejected at construction, by name, where it used to
        construct a grid with a made-up pitch (inf for the 1e308 box)."""
        with pytest.raises(ValueError, match=named):
            GridMap(*box, 4)

    def test_whole_earth_constructs(self):
        grid = GridMap(-90.0, 90.0, -180.0, 180.0, 4)
        assert math.isfinite(grid.mean_pitch_km) and grid.cell_of(90.0, 180.0) == 3

    def test_cell_of_and_centers(self):
        grid = GridMap(0.0, 1.0, 10.0, 11.0, 4)
        # top-left cell is row 0 (max latitude side)
        assert grid.cell_of(0.99, 10.01) == 0
        assert grid.cell_of(0.01, 10.99) == 15
        lat, lon = grid.cell_center(0)
        assert grid.cell_of(lat, lon) == 0
        with pytest.raises(ValueError):
            grid.cell_of(2.0, 10.5)

    def test_edge_points_clamp_inward(self):
        grid = GridMap(0.0, 1.0, 0.0, 1.0, 4)
        assert grid.cell_of(0.0, 1.0) == 15
        assert grid.cell_of(1.0, 0.0) == 0

    def test_unit_grid_pitch(self):
        grid = unit_grid(20)
        assert math.isclose(grid.cell_height_km, 1.0, rel_tol=1e-9)
        assert math.isclose(grid.cell_width_km, 1.0, rel_tol=1e-9)
        a_lat, a_lon = grid.cell_center(0)
        b_lat, b_lon = grid.cell_center(1)
        # great-circle between centers on one parallel runs a hair under the
        # parallel arc itself
        assert math.isclose(haversine_km(a_lat, a_lon, b_lat, b_lon), 1.0, rel_tol=1e-4)

    def test_mean_pitch_computed_once(self):
        grid = GridMap(-33.9, -33.7, 151.1, 151.3, 16)
        assert "mean_pitch_km" not in vars(grid)
        assert grid.mean_pitch_km == (grid.cell_width_km + grid.cell_height_km) / 2
        assert vars(grid)["mean_pitch_km"] == grid.mean_pitch_km

    def test_neighbors_order(self):
        # (up, down, left, right) with out-of-grid entries skipped
        assert neighbors(0, 3) == [3, 1]
        assert neighbors(4, 3) == [1, 7, 3, 5]
