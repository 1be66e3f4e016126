import gc
import math
import re
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from edp.errors import DegenerateTripError, FormatError
from edp.grid import GridMap, haversine_km, l1_distance, step_mask, unit_grid
from edp import ingest
from edp.ingest import (CellPath, RawTrajectory, TripDistanceHistogram, build_histogram,
                        cell_path, collector_paused, discretize, generate_synthetic,
                        map_trajectories, parse_trajectories, synthetic_grid,
                        write_trajectories_csv)
from edp.predict import HistoryIndex
from edp.model import build_sstp

GRID = unit_grid(10)


def write_csv(path, rows, header="trip_id,seq,timestamp,lat,lon"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def point_in_cell(cell, grid=GRID):
    lat, lon = grid.cell_center(cell)
    return f"{lat:.8f},{lon:.8f}"


def as_points(traj):
    """A parsed trajectory's (lat, lon) tuples; its two columns must be
    float arrays of one length."""
    cols = (traj.lats, traj.lons)
    assert all(type(c) is array and c.typecode == "d" for c in cols)
    assert len({len(c) for c in cols}) == 1
    return list(zip(*cols))


def traj_of(lats, lons, trip_id="t"):
    """A trajectory from its latitude and longitude columns."""
    return RawTrajectory(trip_id, array("d", lats), array("d", lons))


class TestParse:
    def test_minimal_two_row_trip(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [f"a,0,100,{point_in_cell(0)}", f"a,1,160,{point_in_cell(1)}"])
        res = parse_trajectories(f, GRID)
        assert len(res.trajectories) == 1
        assert len(res.trajectories[0].lats) == 2
        assert res.malformed_rows == 0

    def test_out_of_bbox_point_dropped(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            f"a,0,100,{point_in_cell(0)}",
            "a,1,160,89.0,179.0",
            f"a,2,220,{point_in_cell(1)}",
        ])
        res = parse_trajectories(f, GRID)
        assert res.dropped_points == 1
        assert len(res.trajectories[0].lats) == 2

    def test_shuffled_seq_resorted(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            f"a,2,300,{point_in_cell(2)}",
            f"a,0,100,{point_in_cell(0)}",
            f"a,1,200,{point_in_cell(1)}",
        ])
        res = parse_trajectories(f, GRID)
        assert as_points(res.trajectories[0]) == [
            tuple(map(float, point_in_cell(c).split(","))) for c in (0, 1, 2)]

    def test_malformed_rows_counted(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            f"a,0,100,{point_in_cell(0)}",
            "a,notanumber,1,2,3",
            f"a,1,160,{point_in_cell(1)}",
        ])
        res = parse_trajectories(f, GRID)
        assert res.malformed_rows == 1

    @pytest.mark.parametrize("bad", ["nan,0.5", "0.5,inf", "-inf,nan"])
    def test_non_finite_coordinates_malformed(self, tmp_path, bad):
        f = tmp_path / "t.csv"
        write_csv(f, [f"a,0,100,{point_in_cell(0)}", f"a,1,130,{bad}",
                      f"a,2,160,{point_in_cell(1)}"])
        res = parse_trajectories(f)
        assert res.malformed_rows == 1
        assert len(res.trajectories[0].lats) == 2

    @pytest.mark.parametrize("bad", ["", "noon", "0x10"])
    def test_unparseable_timestamp_malformed(self, tmp_path, bad):
        """The timestamp is not kept, but a row whose timestamp does not
        parse as a float is malformed."""
        f = tmp_path / "t.csv"
        write_csv(f, [f"a,0,100,{point_in_cell(0)}", f"a,1,{bad},{point_in_cell(2)}",
                      f"a,2,160,{point_in_cell(1)}"])
        res = parse_trajectories(f, GRID)
        assert res.malformed_rows == 1
        assert as_points(res.trajectories[0]) == [
            tuple(map(float, point_in_cell(c).split(","))) for c in (0, 1)]

    def test_mostly_malformed_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,x,x,x,x", "a,y,y,y,y", f"a,0,1,{point_in_cell(0)}"])
        with pytest.raises(FormatError):
            parse_trajectories(f, GRID)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, tmp_path, enabled):
        """The parse pauses the cyclic collector and leaves it as it found
        it, also when it raises, and never enables a collector that was
        disabled; the index build, which runs unpaused, leaves it alone."""
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        write_csv(bad, ["a,x,x,x,x", "a,y,y,y,y", f"a,0,1,{point_in_cell(0)}"])
        write_csv(good, [f"a,0,100,{point_in_cell(0)}", f"a,1,160,{point_in_cell(1)}"])
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(FormatError):
                parse_trajectories(bad, GRID)
            assert gc.isenabled() is enabled
            assert len(parse_trajectories(good, GRID).trajectories) == 1
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError):
                HistoryIndex.build([CellPath("h", [0, -2], 1.0)])
            assert gc.isenabled() is enabled
            with collector_paused():
                assert not gc.isenabled()
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_missing_column(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,0,1"], header="trip_id,seq,timestamp")
        with pytest.raises(FormatError):
            parse_trajectories(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_trajectories(tmp_path / "nope.csv")

    def test_oversized_field_is_format_error(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [f"{'a' * 200_000},0,100,{point_in_cell(0)}"])
        with pytest.raises(FormatError):
            parse_trajectories(f)

    def test_non_utf8_bytes_are_format_error(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"trip_id,seq,timestamp,lat,lon\n\xff\xfe,0,100,0.1,0.1\n")
        with pytest.raises(FormatError):
            parse_trajectories(f)

    def test_single_point_trip_kept(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [f"a,0,100,{point_in_cell(0)}"])
        res = parse_trajectories(f, GRID)
        assert [(t.trip_id, len(t.lats)) for t in res.trajectories] == [("a", 1)]
        assert cell_path(res.trajectories[0], GRID).cells == [0]
        with pytest.raises(DegenerateTripError):
            discretize(res.trajectories[0], GRID)


class TestParseColumns:
    def test_retains_at_most_64_bytes_per_point(self, tmp_path):
        """A parsed point is three floats in its trip's columns, 24 bytes
        plus its share of each trip's overhead: 700 trips of 30 points
        retain at most 64 bytes a point (a tuple of three float objects per
        point retained about 154)."""
        rng = np.random.default_rng(5)
        trips, per_trip = 700, 30
        rows = [f"trip{t:04d},{i},{1_700_000_000 + 15 * i},{lat!r},{lon!r}"
                for t in range(trips)
                for i, (lat, lon) in enumerate(rng.uniform(-1, 1, (per_trip, 2)).tolist())]
        f = tmp_path / "t.csv"
        write_csv(f, rows)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = parse_trajectories(f)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert sum(len(t.lats) for t in res.trajectories) == trips * per_trip
        assert retained / (trips * per_trip) <= 64

    @pytest.mark.parametrize("short", ["lats", "lons"])
    def test_columns_of_different_lengths_rejected(self, short):
        cols = {name: array("d", [0.5, 0.6]) for name in ("lats", "lons")}
        cols[short] = cols[short][:1]
        with pytest.raises(ValueError, match="columns differ in length"):
            RawTrajectory("t", **cols)

    @pytest.mark.parametrize("column", [[0.5, 0.6], array("f", [0.5, 0.6]),
                                        array("q", [1, 2]), np.array([0.5, 0.6])])
    def test_columns_other_than_double_arrays_rejected(self, column):
        """The cells are mapped from the columns' bytes read as doubles, so
        a list, another array type or a numpy array raises TypeError."""
        with pytest.raises(TypeError, match=r"columns must be array\('d'\)"):
            RawTrajectory("t", array("d", [0.5, 0.6]), column)


class TestParseProperties:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(strategies.garbled_csv(strategies.TRAJECTORY_FIELDS), st.booleans())
    def test_equals_dictreader_oracle(self, text, clip):
        grid = unit_grid(3) if clip else None
        with strategies.text_file(text) as f:
            try:
                expected = oracles.dictreader_parse(f, grid)
            except ValueError:
                with pytest.raises(FormatError):
                    parse_trajectories(f, grid)
                return
            res = parse_trajectories(f, grid)
        got = ([(t.trip_id, as_points(t)) for t in res.trajectories], res.malformed_rows,
               res.dropped_points)
        # repr, so that -0.0 and 0.0 differ
        assert repr(got) == repr(expected)


    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(["ascending", "descending", "duplicates"]),
                              st.integers(1, 7)), max_size=5),
           st.randoms(use_true_random=False))
    def test_row_order_equals_dictreader_oracle(self, trips, rng):
        """Well-formed trips whose seqs arrive ascending, descending or
        repeated, with the rows of different trips interleaved, parse as
        the DictReader oracle parses them: each trip ordered by seq, ties
        kept in file order."""
        pending = []
        for t, (order, n) in enumerate(trips):
            seqs = list(range(n))
            if order == "descending":
                seqs.reverse()
            elif order == "duplicates":
                seqs = [rng.randrange(max(1, n // 2)) for _ in range(n)]
            pending.append([f"t{t},{seq},{i},{rng.uniform(-1, 1)!r},{rng.uniform(-1, 1)!r}"
                            for i, seq in enumerate(seqs)])
        rows = []
        while any(pending):
            rows.append(rng.choice([p for p in pending if p]).pop(0))
        text = "trip_id,seq,timestamp,lat,lon\n" + "".join(r + "\n" for r in rows)
        with strategies.text_file(text) as f:
            expected = oracles.dictreader_parse(f)
            res = parse_trajectories(f)
        got = ([(t.trip_id, as_points(t)) for t in res.trajectories], res.malformed_rows,
               res.dropped_points)
        assert got == expected


# a fraction of a box's span: anywhere, or on a grid line of some g <= 9
GRID_FRACTIONS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    sorted({k / g for g in range(2, 10) for k in range(g + 1)})))


def grid_columns(grid, fractions):
    """(lats, lons) at (fy, fx) fractions of a grid's spans, clamped to the box."""
    lats = [min(grid.lat_min + fy * (grid.lat_max - grid.lat_min), grid.lat_max)
            for fy, _ in fractions]
    lons = [min(grid.lon_min + fx * (grid.lon_max - grid.lon_min), grid.lon_max)
            for _, fx in fractions]
    return lats, lons


def traj_through(cells, grid=GRID):
    lats, lons = zip(*map(grid.cell_center, cells)) if cells else ((), ())
    return traj_of(lats, lons)


class TestDiscretize:
    def test_single_cell_is_degenerate(self):
        with pytest.raises(DegenerateTripError):
            discretize(traj_through([7, 7, 7]), GRID)

    def test_cell_path_keeps_single_cell_trip(self):
        lat, lon = GRID.cell_center(7)
        path = cell_path(traj_of([lat, lat + 0.002], [lon, lon]), GRID)
        assert path.cells == [7]
        assert path.trip_km == haversine_km(lat, lon, lat + 0.002, lon) > 0

    def test_duplicates_collapse(self):
        path = discretize(traj_through([5, 5, 6, 6, 7]), GRID)
        assert path.cells == [5, 6, 7]

    def test_gap_bridged_vertical_first(self):
        path = discretize(traj_through([0, 11]), GRID)
        assert path.cells == [0, 10, 11]
        assert len(path.cells) - 1 == l1_distance(0, 11, GRID.g)

    def test_long_gap_bridge_length(self):
        path = discretize(traj_through([0, 57]), GRID)
        assert len(path.cells) - 1 == l1_distance(0, 57, GRID.g)
        assert oracles.is_trip_path(path.cells, GRID.g)

    def test_transitions_adjacent(self):
        path = discretize(traj_through([0, 1, 2, 13, 24]), GRID)
        assert oracles.is_trip_path(path.cells, GRID.g)

    def test_trip_km_accumulates(self):
        path = discretize(traj_through([0, 1, 2]), GRID)
        assert math.isclose(path.trip_km, 2.0, rel_tol=1e-3)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 9), st.lists(st.tuples(GRID_FRACTIONS, GRID_FRACTIONS),
                                       min_size=1, max_size=12))
    def test_cells_follow_grid_cell_of(self, g, fractions):
        """cell_path inlines GridMap.cell_of; on a southern box, with points
        on grid lines and edges, its cells are those of cell_of, bridged by
        the vertical-first staircase."""
        grid = GridMap(-33.9, -33.7, 151.1, 151.3, g)
        lats, lons = grid_columns(grid, fractions)
        expected = []
        for lat, lon in zip(lats, lons):
            cell = grid.cell_of(lat, lon)
            if expected and cell == expected[-1]:
                continue
            if expected and l1_distance(expected[-1], cell, g) > 1:
                expected.extend(oracles.staircase(expected[-1], cell, g))
            else:
                expected.append(cell)
        assert cell_path(traj_of(lats, lons), grid).cells == expected

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([2, 5, 9]), st.lists(st.tuples(GRID_FRACTIONS, GRID_FRACTIONS),
                                                min_size=2, max_size=12))
    def test_trip_km_is_the_eager_haversine_sum(self, g, fractions):
        """trip_km, summed on first read, is bitwise the pairwise haversine
        sum over the points, and a second read gives it again."""
        grid = GridMap(-33.9, -33.7, 151.1, 151.3, g)
        lats, lons = grid_columns(grid, fractions)
        eager = 0.0
        for la1, lo1, la2, lo2 in zip(lats, lons, lats[1:], lons[1:]):
            eager += haversine_km(la1, lo1, la2, lo2)
        path = cell_path(traj_of(lats, lons), grid)
        assert path.trip_km == eager
        assert path.trip_km == eager
        assert path == CellPath("t", path.cells, eager)
        assert repr(path) == repr(CellPath("t", path.cells, eager))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 9), st.lists(st.tuples(st.floats(-60.0, 60.0),
                                                 st.floats(-170.0, 170.0)), max_size=12))
    def test_trip_km_of_any_point_count(self, g, latlons):
        """trip_km is bitwise the pairwise haversine_km sum for 0, 1 and
        more points, over both hemispheres and both signs of longitude;
        fewer than two points make 0.0."""
        grid = GridMap(-60.0, 60.0, -170.0, 170.0, g)
        lats, lons = [lat for lat, _ in latlons], [lon for _, lon in latlons]
        pairwise = 0.0
        for la1, lo1, la2, lo2 in zip(lats, lons, lats[1:], lons[1:]):
            pairwise += haversine_km(la1, lo1, la2, lo2)
        trip_km = cell_path(traj_of(lats, lons), grid).trip_km
        assert trip_km.hex() == pairwise.hex()
        if len(latlons) < 2:
            assert trip_km == 0.0

    def test_point_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside bounding box"):
            cell_path(traj_of([0.5, 99.0], [0.5, 0.5]), GRID)

    def test_idempotent_on_cell_centers(self):
        first = discretize(traj_through([0, 11, 12, 22]), GRID)
        again = discretize(traj_through(first.cells), GRID)
        assert again.cells == first.cells


# one trip's points: (fy, fx) fractions of the box, or "again" for the point before
TRIP_POINTS = st.lists(st.one_of(st.tuples(GRID_FRACTIONS, GRID_FRACTIONS), st.just("again")),
                       max_size=8)


def trips_of(grid, trips):
    """Trajectories t0, t1, ... through the drawn TRIP_POINTS of each trip."""
    out = []
    for i, points in enumerate(trips):
        fractions = []
        for p in points:
            if p != "again":
                fractions.append(p)
            elif fractions:
                fractions.append(fractions[-1])
        out.append(traj_of(*grid_columns(grid, fractions), trip_id=f"t{i}"))
    return out


class TestBatchMapping:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 9), st.booleans(), st.lists(TRIP_POINTS, max_size=6))
    def test_batch_equals_scalar_oracle(self, g, southern, trips):
        """One array pass over several trips gives each the cells of the
        per-point oracle: points on the box's edges (clamped), repeated
        points, jumps of several cells bridged inside a trip and never
        across two, and trips of zero and one point."""
        grid = GridMap(-33.9, -33.7, 151.1, 151.3, g) if southern else unit_grid(g)
        trajs = trips_of(grid, trips)
        expected = [oracles.scalar_cell_path(t, grid) for t in trajs]
        assert ingest._cell_lists(trajs, grid) == expected
        map_trajectories(trajs, grid)
        for traj, cells in zip(trajs, expected):
            path = cell_path(traj, grid)
            assert path.cells == cells
            assert path.cells is not traj._cells

    def test_edges_clamp_and_trips_do_not_join(self):
        """The box's southern and eastern edges clamp into the last row and
        column, and a trip starting far from where the one before ended
        starts a path of its own."""
        lat_min, lon_max = GRID.lat_min, GRID.lon_max
        trajs = [traj_of([lat_min, lat_min], [lon_max, GRID.lon_min]),
                 traj_of([], []), traj_of([GRID.lat_max], [GRID.lon_min]),
                 traj_of(*zip(GRID.cell_center(0), GRID.cell_center(22))),
                 traj_of(*zip(GRID.cell_center(55), GRID.cell_center(55)))]
        assert ingest._cell_lists(trajs, GRID) == [
            [99, 98, 97, 96, 95, 94, 93, 92, 91, 90], [], [0], [0, 10, 20, 21, 22], [55]]
        assert [oracles.scalar_cell_path(t, GRID) for t in trajs] == \
            ingest._cell_lists(trajs, GRID)

    def test_blocks_hold_whole_trips(self, monkeypatch):
        """map_trajectories maps whole trips a block at a time, each block
        reaching MAP_BLOCK_POINTS points but the last, and each trip keeps
        the oracle's cells and the grid."""
        monkeypatch.setattr(ingest, "MAP_BLOCK_POINTS", 3)
        blocks = []
        real = ingest._cell_lists

        def recorded(trajs, grid):
            blocks.append([t.trip_id for t in trajs])
            return real(trajs, grid)
        monkeypatch.setattr(ingest, "_cell_lists", recorded)
        cells = [[0, 11], [], [5], [0, 1, 2, 13, 24], [7], [3, 3]]
        trajs = [traj_through(c) for c in cells]
        for i, traj in enumerate(trajs):
            traj.trip_id = f"t{i}"
        map_trajectories(trajs, GRID)
        assert blocks == [["t0", "t1", "t2"], ["t3"], ["t4", "t5"]]
        for traj in trajs:
            assert traj._grid is GRID
            assert traj._cells == oracles.scalar_cell_path(traj, GRID)

    @pytest.mark.parametrize("bad_lat, bad_lon", [(99.0, 0.05), (0.05, -1.0), (math.nan, 0.05)])
    def test_first_point_outside_box_raises_the_oracle_message(self, bad_lat, bad_lon):
        """A point outside the box raises the per-point oracle's message for
        the first such point in trip order, in a batch and for one trip."""
        lat, lon = GRID.cell_center(5)
        trajs = [traj_of([lat], [lon], "a"), traj_of([lat, bad_lat], [lon, bad_lon], "b"),
                 traj_of([-5.0], [lon], "c")]
        with pytest.raises(ValueError) as first:
            oracles.scalar_cell_path(trajs[1], GRID)
        assert "outside bounding box" in str(first.value)
        with pytest.raises(ValueError, match=re.escape(str(first.value))):
            map_trajectories(trajs, GRID)
        with pytest.raises(ValueError) as last:
            oracles.scalar_cell_path(trajs[2], GRID)
        with pytest.raises(ValueError, match=re.escape(str(last.value))):
            cell_path(trajs[2], GRID)

    def test_parse_maps_only_against_a_grid(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [f"a,0,100,{point_in_cell(0)}", f"a,1,160,{point_in_cell(22)}"])
        (mapped,) = parse_trajectories(f, GRID).trajectories
        (plain,) = parse_trajectories(f).trajectories
        assert (mapped._cells, mapped._grid) == ([0, 10, 20, 21, 22], GRID)
        assert (plain._cells, plain._grid) == (None, None)
        assert cell_path(plain, GRID) == cell_path(mapped, GRID)

    def test_unequal_grid_maps_afresh(self, tmp_path, monkeypatch):
        """A trajectory parsed on one grid is mapped again on an unequal
        grid, and keeps the path it carries; an equal grid copies it."""
        f = tmp_path / "t.csv"
        write_csv(f, [f"a,{i},{60 * i},{point_in_cell(c)}" for i, c in enumerate([0, 11, 99])])
        (traj,) = parse_trajectories(f, GRID).trajectories
        carried = traj._cells
        coarser = GridMap(GRID.lat_min, GRID.lat_max, GRID.lon_min, GRID.lon_max, 7)
        fresh = cell_path(traj, coarser).cells
        assert fresh == oracles.scalar_cell_path(traj, coarser) != carried
        assert traj._cells is carried and traj._grid is GRID

        def no_mapping(*_):
            raise AssertionError("mapped a trajectory that carries its path")
        monkeypatch.setattr(ingest, "_cell_lists", no_mapping)
        equal = GridMap(GRID.lat_min, GRID.lat_max, GRID.lon_min, GRID.lon_max, GRID.g)
        assert equal is not GRID
        assert cell_path(traj, equal).cells == carried == oracles.scalar_cell_path(traj, GRID)

    def test_equality_and_repr_ignore_the_mapped_path(self):
        mapped, plain = traj_through([0, 11]), traj_through([0, 11])
        map_trajectories([mapped], GRID)
        assert mapped._cells == [0, 10, 11] and plain._cells is None
        assert mapped == plain
        assert repr(mapped) == repr(plain)
        assert "_cells" not in repr(mapped) and "_grid" not in repr(mapped)
        with pytest.raises(TypeError):
            RawTrajectory("t", array("d"), array("d"), [0])


class TestHistogram:
    def test_two_trips_expectation(self):
        paths = [CellPath("a", [0, 1], 1.5), CellPath("b", [0, 1], 2.5)]
        h = build_histogram(paths, 1.0)
        assert h.counts[1] == 1 and h.counts[2] == 1
        # hand expansion with left boundaries: (1*1 + 2*1) / 2
        assert h.expectation() == pytest.approx(1.5)

    def test_left_boundary_zero_bin(self):
        h = build_histogram([CellPath("a", [0, 1], 0.2)], 1.0)
        assert h.expectation() == 0.0

    def test_point_mass(self):
        paths = [CellPath(str(i), [0, 1], 5.0) for i in range(4)]
        h = build_histogram(paths, 1.0)
        assert h.expectation() == 5.0

    @pytest.mark.parametrize("x,w", [(3.7, 1.0), (5.0, 2.0), (0.9, 0.25), (12.01, 3.0)])
    def test_point_mass_floor_rule(self, x, w):
        h = build_histogram([CellPath("a", [0, 1], x)], w)
        assert h.expectation() == pytest.approx(w * math.floor(x / w))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], 1.0)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_width_must_be_finite_and_positive(self, w):
        with pytest.raises(ValueError, match="bin width"):
            build_histogram([CellPath("a", [0, 1], 2.5)], w)
        with pytest.raises(ValueError, match="bin width"):
            TripDistanceHistogram(w, [1, 2])

    def test_boundaries(self):
        h = build_histogram([CellPath("a", [0, 1], 2.5)], 1.0)
        assert h.boundaries[0] == 0.0
        assert np.all(np.diff(h.boundaries) > 0)
        assert h.counts.sum() == h.total


class TestSyntheticGenerator:
    def test_deterministic(self):
        p1, t1 = generate_synthetic(5, 10, seed=42)
        p2, t2 = generate_synthetic(5, 10, seed=42)
        assert [p.cells for p in p1] == [p.cells for p in p2]
        assert t1.probs.tobytes() == t2.probs.tobytes()

    def test_no_detours_are_shortest(self):
        paths, _ = generate_synthetic(6, 200, seed=1, detour_rate=0.0)
        for p in paths:
            assert len(p.cells) - 1 == l1_distance(p.cells[0], p.cells[-1], 6)

    def test_full_detours_add_two(self):
        paths, _ = generate_synthetic(6, 200, seed=1, detour_rate=1.0)
        for p in paths:
            assert len(p.cells) - 1 == l1_distance(p.cells[0], p.cells[-1], 6) + 2

    def test_paths_are_valid(self):
        paths, _ = generate_synthetic(7, 100, seed=5, detour_rate=0.5)
        for p in paths:
            assert oracles.is_trip_path(p.cells, 7)

    def test_ground_truth_is_stochastic(self):
        _, truth = generate_synthetic(5, 10, seed=3)
        truth.validate()

    def test_attractor_mode_restricts_destinations(self):
        paths, truth = generate_synthetic(8, 150, seed=9, n_attractors=3)
        assert len({p.cells[-1] for p in paths}) <= 3
        truth.validate()

    def test_lone_attractor_row_is_smoothed(self):
        # no walk leaves the only destination, so its row has no flow to normalize
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths, truth = generate_synthetic(6, 50, seed=2, n_attractors=1)
        (dest,) = {p.cells[-1] for p in paths}
        truth.validate()
        assert truth.smoothed.tolist() == [cell == dest for cell in range(36)]
        r, c = divmod(dest, 6)
        inside = step_mask(6)[r, c]
        assert truth.probs[r, c].tolist() == (inside / inside.sum()).tolist()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic(5, 0, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic(5, 1, seed=1, detour_rate=1.5)

    def test_round_trip_through_csv(self, tmp_path):
        paths, _ = generate_synthetic(6, 20, seed=8)
        grid = synthetic_grid(6)
        f = tmp_path / "syn.csv"
        write_trajectories_csv(paths, grid, f)
        res = parse_trajectories(f, grid)
        assert len(res.trajectories) == 20
        redone = [discretize(t, grid) for t in res.trajectories]
        assert [p.cells for p in redone] == [p.cells for p in paths]


class TestGroundTruthConvergence:
    def test_empirical_sstp_converges_to_sidecar(self):
        paths, truth = generate_synthetic(5, 100_000, seed=11, detour_rate=0.0)
        emp = build_sstp(paths, 5)
        assert np.abs(emp.probs - truth.probs).max() < 0.05
