"""Trajectory ingestion: CSV parsing, grid discretization, trip-distance
histogram, and the seeded synthetic-world generator."""

import csv
import gc
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter, le

import numpy as np

from .errors import DegenerateTripError, FormatError
from .grid import (EARTH_RADIUS_KM, GridMap, decode_cell, neighbors, step_direction,
                   step_mask, unit_grid)
from .model import SSTPMatrix, atomic_write

REQUIRED_COLUMNS = ("trip_id", "seq", "timestamp", "lat", "lon")


@dataclass
class RawTrajectory:
    """One trip's points as two float columns, `array('d')`, in seq order:
    8 bytes per value and no Python object per point. Columns of different
    lengths raise ValueError."""

    trip_id: str
    lats: array
    lons: array

    def __post_init__(self):
        if len(self.lats) != len(self.lons):
            raise ValueError(f"trip {self.trip_id}: columns differ in length "
                             f"({len(self.lats)}, {len(self.lons)})")


class CellPath:
    """A trip discretized to grid cells.

    Consecutive cells are always 4-adjacent and never equal; trip_km is the
    length of the underlying point sequence, not the cell count. A path
    made by cell_path keeps a reference to its trajectory's latitude and
    longitude columns and sums their pairwise haversine lengths on the first
    read of trip_km, then caches the sum and drops the columns. Training
    reads only `cells`, so it computes no trip length; the histogram and
    queries read it once.
    """

    __slots__ = ("trip_id", "cells", "_trip_km", "_points")

    def __init__(self, trip_id: str, cells: list[int], trip_km: float):
        self.trip_id = trip_id
        self.cells = cells
        self._trip_km = trip_km
        self._points = None

    @property
    def trip_km(self) -> float:
        """The trip's length in km, summed from the points on first read.

        The sum is haversine_km over consecutive points, in order, with
        haversine_km's own expressions, so it is bitwise the pairwise sum;
        but each point's latitude in radians and its cosine are computed
        once, where the pairwise sum computes them for both of its pairs.
        Fewer than two points make 0.0.
        """
        points = self._points
        if points is not None:
            km = 0.0
            lats, lons = points
            if len(lats) > 1:
                radians, sin, cos = math.radians, math.sin, math.cos
                asin, sqrt = math.asin, math.sqrt
                two_r = 2 * EARTH_RADIUS_KM
                pairs = zip(lats, lons)
                lat, lon1 = next(pairs)
                p1 = radians(lat)
                cos1 = cos(p1)
                for lat, lon2 in pairs:
                    p2 = radians(lat)
                    cos2 = cos(p2)
                    a = sin((p2 - p1) / 2) ** 2 + cos1 * cos2 * sin(radians(lon2 - lon1) / 2) ** 2
                    km += two_r * asin(sqrt(a))
                    p1, cos1, lon1 = p2, cos2, lon2
            self._trip_km, self._points = km, None
        return self._trip_km

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.trip_id, self.cells, self.trip_km)
                == (other.trip_id, other.cells, other.trip_km))

    __hash__ = None  # mutable, as a dataclass with eq=True would be

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(trip_id={self.trip_id!r}, "
                f"cells={self.cells!r}, trip_km={self.trip_km!r})")


@dataclass
class ParseResult:
    trajectories: list[RawTrajectory]
    malformed_rows: int = 0
    dropped_points: int = 0


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector around a bulk build (a `with`
    block, or a decorated function on each call).

    A bulk build allocates many objects that it keeps and that form no
    reference cycle. Each allocation counts toward the next collection, and
    each full collection walks every tracked object in the process, so
    the collector's passes during a build find nothing and cost time. The
    collector's state is restored on exit, also on an exception: it is
    never enabled here if the caller had disabled it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_csv_rows(path, required):
    """Yield each non-blank data row of a UTF-8 CSV file as the tuple of its
    `required` fields (two or more), in that order. A field past the end of
    a short row is None, and a column named twice is read from its last
    position, as csv.DictReader would map them. A missing required column,
    a field past the csv module's size limit or non-UTF-8 bytes raise
    FormatError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            position = {name: i for i, name in enumerate(next(reader, []))}
            missing = [c for c in required if c not in position]
            if missing:
                raise FormatError(f"{path}: missing columns {missing}")
            cols = [position[c] for c in required]
            width = max(cols) + 1
            pick = itemgetter(*cols)
            for row in reader:
                if len(row) >= width:
                    yield pick(row)
                elif row:
                    yield tuple(row[i] if i < len(row) else None for i in cols)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


@collector_paused()
def parse_trajectories(path, grid: GridMap | None = None) -> ParseResult:
    """Read a trajectory CSV (trip_id,seq,timestamp,lat,lon).

    Points are grouped by trip_id and ordered by seq, a stable order: rows
    with equal seqs keep their file order. Each trip's latitudes and
    longitudes are kept as two `array('d')` columns, so a point costs 16
    bytes and no Python object; a timestamp must parse as a float but is
    not kept. Malformed rows, non-finite coordinates included, are counted
    and skipped; more than 50% malformed raises. When a grid is given,
    points outside its bounding box are dropped (clipping a trip at the
    boundary rather than discarding it). Every trip left with a point is
    kept, a one-point trip included: `discretize` decides which trips can
    train. The cyclic collector is paused while it runs.
    """
    rows_total = 0
    malformed = 0
    dropped_points = 0
    # per trip, its points' seqs and, in the same order, latitudes and longitudes
    per_trip: dict[str, tuple[list[int], array, array]] = {}
    if grid is not None:
        lat_min, lat_max, lon_min, lon_max = grid.lat_min, grid.lat_max, grid.lon_min, grid.lon_max
    isfinite = math.isfinite
    current = None    # the trip whose appends are bound
    for trip, seq, ts, lat, lon in read_csv_rows(path, REQUIRED_COLUMNS):
        rows_total += 1
        try:
            seq = int(seq)
            float(ts)    # not kept, but a row without a valid one is malformed
            lat = float(lat)
            lon = float(lon)
        except (TypeError, ValueError):
            malformed += 1
            continue
        if not trip or not (isfinite(lat) and isfinite(lon)):
            malformed += 1
            continue
        if grid is not None and not (lat_min <= lat <= lat_max and lon_min <= lon <= lon_max):
            dropped_points += 1
            continue
        if trip != current:
            # a trip's rows are usually adjacent, so its appends are bound
            # once per run of them
            cols = per_trip.get(trip)
            if cols is None:
                cols = per_trip[trip] = ([], array("d"), array("d"))
            seqs, lats, lons = cols
            add_seq, add_lat, add_lon = seqs.append, lats.append, lons.append
            current = trip
        add_seq(seq)
        add_lat(lat)
        add_lon(lon)
    if rows_total and malformed / rows_total > 0.5:
        raise FormatError(f"{path}: {malformed}/{rows_total} rows malformed")
    trajectories = []
    for trip_id, (seqs, *cols) in per_trip.items():
        # a stable sort by seq leaves points whose seqs never decrease as they are
        if not all(map(le, seqs, islice(seqs, 1, None))):
            order = sorted(range(len(seqs)), key=seqs.__getitem__)
            cols = [array("d", map(col.__getitem__, order)) for col in cols]
        trajectories.append(RawTrajectory(trip_id, *cols))
    return ParseResult(trajectories, malformed, dropped_points)


def _staircase(a: int, b: int, g: int) -> list[int]:
    """Cells strictly between a and b on the vertical-first minimal path,
    plus b itself."""
    ra, ca = decode_cell(a, g)
    rb, cb = decode_cell(b, g)
    out = []
    r, c = ra, ca
    while r != rb:
        r += 1 if rb > r else -1
        out.append(r * g + c)
    while c != cb:
        c += 1 if cb > c else -1
        out.append(r * g + c)
    return out


def cell_path(traj: RawTrajectory, grid: GridMap) -> CellPath:
    """Map a point sequence to a 4-adjacent cell path of one or more cells.

    Points map to cells as GridMap.cell_of maps them, and a point outside
    the bounding box raises ValueError. Consecutive duplicates collapse;
    sampling gaps that jump cells are bridged with a deterministic
    vertical-first staircase so every stored transition stays on the
    4-adjacency support. The path's trip_km is summed from traj.lats and
    traj.lons when first read, so they must not change before then.
    """
    g = grid.g
    lat_min, lat_max, lon_min, lon_max = grid.lat_min, grid.lat_max, grid.lon_min, grid.lon_max
    lat_span = lat_max - lat_min
    lon_span = lon_max - lon_min
    edge = g - 1
    cells: list[int] = []
    prev = prev_row = prev_col = -1
    lats, lons = traj.lats, traj.lons
    for lat, lon in zip(lats, lons):
        if not (lat_min <= lat <= lat_max and lon_min <= lon <= lon_max):
            raise ValueError(f"point ({lat}, {lon}) outside bounding box")
        row = int((lat_max - lat) / lat_span * g)
        col = int((lon - lon_min) / lon_span * g)
        if row > edge:
            row = edge
        if col > edge:
            col = edge
        cell = row * g + col
        if cell == prev:
            continue
        if cells and abs(row - prev_row) + abs(col - prev_col) > 1:
            cells.extend(_staircase(prev, cell, g))
        else:
            cells.append(cell)
        prev, prev_row, prev_col = cell, row, col
    path = CellPath(traj.trip_id, cells, 0.0)
    path._points = (lats, lons)    # summed into trip_km on first read
    return path


def discretize(traj: RawTrajectory, grid: GridMap) -> CellPath:
    """The cell path of a training trip; one that stays in one cell raises
    DegenerateTripError, since it carries no transition."""
    path = cell_path(traj, grid)
    if len(path.cells) < 2:
        raise DegenerateTripError(f"trip {traj.trip_id} stays in one cell")
    return path


@dataclass
class TripDistanceHistogram:
    """Binned distribution of total trip distance; bins are [i*w, (i+1)*w).

    The width must be finite and positive. Expectations use the left bin
    boundary as the bin's representative. The histogram is read-only
    after construction: `counts` is a private read-only copy, and the
    suffix tables that conditional estimates read are computed once
    here. For each first surviving bin i,
    suffix_mass[i] = counts[i:].sum() and
    suffix_num[i] = (left_edges[i:] * counts[i:]).sum(), with a final
    entry of 0 for no surviving bin; upper_edges[i] = (i + 1) * w.
    """

    bin_width_km: float
    counts: np.ndarray
    total: int = field(init=False)
    upper_edges: list[float] = field(init=False, repr=False)
    suffix_mass: list[int] = field(init=False, repr=False)
    suffix_num: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        _check_bin_width(self.bin_width_km)
        counts = np.array(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        self.counts = counts
        self.total = int(counts.sum())
        left = self.left_edges
        self.upper_edges = self.boundaries[1:].tolist()
        self.suffix_mass = np.cumsum(counts[::-1])[::-1].tolist() + [0]
        # one numpy sum per suffix, so each entry is bitwise the masked sum
        self.suffix_num = [float((left[i:] * counts[i:]).sum())
                           for i in range(len(counts))] + [0.0]

    @property
    def boundaries(self) -> np.ndarray:
        return np.arange(len(self.counts) + 1) * self.bin_width_km

    @property
    def left_edges(self) -> np.ndarray:
        return np.arange(len(self.counts)) * self.bin_width_km

    def expectation(self) -> float:
        """E(D) with left-boundary bin representatives."""
        if self.total == 0:
            raise ValueError("empty histogram")
        return float((self.left_edges * self.counts).sum() / self.total)


def _check_bin_width(bin_width_km: float) -> None:
    if not (math.isfinite(bin_width_km) and bin_width_km > 0):
        raise ValueError(f"bin width must be finite and positive, got {bin_width_km}")


def build_histogram(paths: list[CellPath], bin_width_km: float = 1.0) -> TripDistanceHistogram:
    if not paths:
        raise ValueError("cannot build a histogram from zero trips")
    # the trips are binned by dividing by the width, so it is checked first
    _check_bin_width(bin_width_km)
    counts = np.bincount([int(p.trip_km // bin_width_km) for p in paths])
    return TripDistanceHistogram(bin_width_km, counts)


# ---------------------------------------------------------------------------
# synthetic worlds


def _monotone_options(cell: int, dest: int, g: int) -> list[int]:
    """Neighbors of cell that strictly reduce L1 distance to dest."""
    r, c = decode_cell(cell, g)
    rd, cd = decode_cell(dest, g)
    out = []
    if r != rd:
        out.append((r + (1 if rd > r else -1)) * g + c)
    if c != cd:
        out.append(r * g + c + (1 if cd > c else -1))
    return out


def _exact_single_step_law(pref: np.ndarray, dest_weights: dict[int, float],
                           g: int) -> SSTPMatrix:
    """The single-step transition law the walk process actually follows.

    For each destination, a pass over cells in decreasing L1 distance
    propagates expected visit mass along the destination-monotone choices;
    accumulated edge flows, normalized per origin, give the matrix that the
    empirical single-step statistics of the generated trips converge to.
    A cell no walk leaves (a lone attractor) gets the uniform backfill
    row and a `smoothed` flag, as in build_sstp.
    """
    n = g * g
    flows = np.zeros((n, 4))
    rr, cc = np.divmod(np.arange(n), g)
    for dest, q in dest_weights.items():
        rd, cd = decode_cell(dest, g)
        dist = np.abs(rr - rd) + np.abs(cc - cd)
        order = np.argsort(-dist, kind="stable")
        start_w = q / (n - 1)
        u = np.full(n, start_w)
        u[dest] = 0.0
        for x in order:
            x = int(x)
            if x == dest or u[x] == 0.0:
                continue
            opts = _monotone_options(x, dest, g)
            ws = np.array([pref[rr[x], cc[x], step_direction(x, o, g)] for o in opts])
            ws = ws / ws.sum()
            for o, w in zip(opts, ws):
                f = u[x] * w
                flows[x, step_direction(x, o, g)] += f
                u[o] += f
    return SSTPMatrix.from_weights(g, flows)


def _sample_attractors(rng, g: int, k: int) -> list[int]:
    """k destination districts with pairwise L1 separation >= 2g/3.

    Greedy rejection with full restarts; raises when the separation cannot
    be met for the requested count.
    """
    min_sep = max(2, (2 * g) // 3)
    for _ in range(200):
        cells = [int(rng.integers(g * g))]
        for _ in range(200 * k):
            if len(cells) == k:
                return cells
            cand = int(rng.integers(g * g))
            r, c = divmod(cand, g)
            if min(abs(rr - r) + abs(cc - c)
                   for rr, cc in (divmod(x, g) for x in cells)) >= min_sep:
                cells.append(cand)
    raise ValueError(f"cannot place {k} attractors with separation {min_sep} on g={g}")


def generate_synthetic(g: int, n_trips: int, seed: int, detour_rate: float = 0.0,
                       n_attractors: int | None = None
                       ) -> tuple[list[CellPath], SSTPMatrix]:
    """Seeded random trips plus the exact single-step matrix they follow.

    Each trip samples a destination (uniform, or from a small set of
    well-separated weighted attractor districts) and a distinct uniform
    start, then walks monotonically toward the destination; at cells with
    two admissible directions the choice follows a hidden per-cell
    preference. With probability detour_rate a single two-step excursion
    to a random neighbor and back is spliced in, making the trip exactly
    two steps longer than the L1 distance. One grid step counts as one
    kilometer.

    The returned matrix is the exact conditional next-step law of the
    detour-free walk, so empirical single-step statistics of a large
    detour-free sample converge to it.
    """
    if n_trips < 1:
        raise ValueError("n_trips must be >= 1")
    if not 0.0 <= detour_rate <= 1.0:
        raise ValueError("detour_rate must be in [0, 1]")
    n = g * g
    rng = np.random.default_rng(seed)
    pref = rng.random((g, g, 4)) + 0.1
    pref[~step_mask(g)] = 0.0

    if n_attractors is not None:
        if not 1 <= n_attractors <= n:
            raise ValueError("n_attractors out of range")
        cells = _sample_attractors(rng, g, n_attractors)
        raw_w = rng.random(n_attractors) + 0.2
        raw_w /= raw_w.sum()
        dest_weights = {int(c): float(w) for c, w in zip(cells, raw_w)}
    else:
        dest_weights = {d: 1.0 / n for d in range(n)}
    dest_cells = sorted(dest_weights)
    dest_p = np.array([dest_weights[d] for d in dest_cells])

    paths = []
    for idx in range(n_trips):
        dest = int(rng.choice(dest_cells, p=dest_p))
        start = int(rng.integers(n - 1))
        if start >= dest:
            start += 1
        cells = [start]
        x = start
        while x != dest:
            opts = _monotone_options(x, dest, g)
            if len(opts) == 1:
                x = opts[0]
            else:
                r, c = decode_cell(x, g)
                w0 = pref[r, c, step_direction(x, opts[0], g)]
                w1 = pref[r, c, step_direction(x, opts[1], g)]
                x = opts[0] if rng.random() < w0 / (w0 + w1) else opts[1]
            cells.append(x)
        if detour_rate > 0 and rng.random() < detour_rate:
            pos = int(rng.integers(len(cells)))
            nbrs = neighbors(cells[pos], g)
            y = nbrs[int(rng.integers(len(nbrs)))]
            cells[pos + 1:pos + 1] = [y, cells[pos]]
        paths.append(CellPath(f"syn{idx:06d}", cells, float(len(cells) - 1)))

    return paths, _exact_single_step_law(pref, dest_weights, g)


def write_trajectories_csv(paths: list[CellPath], grid: GridMap, out_path) -> None:
    """Emit cell-center point sequences in the trajectory CSV schema, atomically."""
    with atomic_write(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for p in paths:
            for i, cell in enumerate(p.cells):
                lat, lon = grid.cell_center(cell)
                writer.writerow([p.trip_id, i, i * 60, f"{lat:.8f}", f"{lon:.8f}"])


def synthetic_grid(g: int) -> GridMap:
    """The GridMap synthetic worlds live on (1 km cell pitch)."""
    return unit_grid(g)
