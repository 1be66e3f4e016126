"""Trajectory ingestion: CSV parsing, grid discretization, trip-distance
histogram, and the seeded synthetic-world generator."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTripError, FormatError
from .grid import (GridMap, decode_cell, haversine_km, l1_distance, neighbors, step_direction,
                   unit_grid)
from .model import SSTPMatrix

REQUIRED_COLUMNS = ("trip_id", "seq", "timestamp", "lat", "lon")


@dataclass
class RawTrajectory:
    trip_id: str
    points: list[tuple[float, float, float]]  # (timestamp, lat, lon)


@dataclass
class CellPath:
    """A trip discretized to grid cells.

    Consecutive cells are always 4-adjacent and never equal; trip_km is the
    length of the underlying point sequence, not the cell count.
    """

    trip_id: str
    cells: list[int]
    trip_km: float

    def check(self, g: int) -> None:
        if len(self.cells) < 2:
            raise DegenerateTripError(f"trip {self.trip_id} has fewer than 2 cells")
        for a, b in zip(self.cells, self.cells[1:]):
            if l1_distance(a, b, g) != 1:
                raise ValueError(f"trip {self.trip_id}: {a} -> {b} not 4-adjacent")


@dataclass
class ParseResult:
    trajectories: list[RawTrajectory]
    malformed_rows: int = 0
    dropped_points: int = 0
    dropped_trips: int = 0


def read_csv_rows(path, required):
    """Yield a UTF-8 CSV file's rows as dicts. A missing required column, a
    field past the csv module's size limit or non-UTF-8 bytes raise FormatError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in required if c not in (reader.fieldnames or [])]
            if missing:
                raise FormatError(f"{path}: missing columns {missing}")
            yield from reader
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def parse_trajectories(path, grid: GridMap | None = None) -> ParseResult:
    """Read a trajectory CSV (trip_id,seq,timestamp,lat,lon).

    Points are grouped by trip_id and ordered by seq. Malformed rows,
    non-finite coordinates included, are counted and skipped; more than 50%
    malformed raises. When a grid is given, points outside its bounding box
    are dropped (clipping a trip at the boundary rather than discarding it),
    and trips left with fewer than two points are dropped entirely.
    """
    rows_total = 0
    malformed = 0
    dropped_points = 0
    per_trip: dict[str, list[tuple[int, float, float, float]]] = {}
    for row in read_csv_rows(path, REQUIRED_COLUMNS):
        rows_total += 1
        try:
            trip = row["trip_id"]
            seq = int(row["seq"])
            ts = float(row["timestamp"])
            lat = float(row["lat"])
            lon = float(row["lon"])
            if not trip or not (math.isfinite(lat) and math.isfinite(lon)):
                raise ValueError
        except (TypeError, ValueError):
            malformed += 1
            continue
        if grid is not None and not grid.contains(lat, lon):
            dropped_points += 1
            continue
        per_trip.setdefault(trip, []).append((seq, ts, lat, lon))
    if rows_total and malformed / rows_total > 0.5:
        raise FormatError(f"{path}: {malformed}/{rows_total} rows malformed")
    trajectories = []
    dropped_trips = 0
    for trip_id in per_trip:
        pts = sorted(per_trip[trip_id], key=lambda p: p[0])
        if len(pts) < 2:
            dropped_trips += 1
            continue
        trajectories.append(RawTrajectory(trip_id, [(ts, lat, lon) for _, ts, lat, lon in pts]))
    return ParseResult(trajectories, malformed, dropped_points, dropped_trips)


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

    Consecutive duplicates collapse; sampling gaps that jump cells are
    bridged with a deterministic vertical-first staircase so every stored
    transition stays on the 4-adjacency support.
    """
    cells: list[int] = []
    for _, lat, lon in traj.points:
        cell = grid.cell_of(lat, lon)
        if cells and cell == cells[-1]:
            continue
        if cells and l1_distance(cells[-1], cell, grid.g) > 1:
            cells.extend(_staircase(cells[-1], cell, grid.g))
        else:
            cells.append(cell)
    km = 0.0
    for (_, la1, lo1), (_, la2, lo2) in zip(traj.points, traj.points[1:]):
        km += haversine_km(la1, lo1, la2, lo2)
    return CellPath(traj.trip_id, cells, km)


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

    Expectations use the left bin boundary as the bin's representative.
    """

    bin_width_km: float
    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.total = int(self.counts.sum())

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


def build_histogram(paths: list[CellPath], bin_width_km: float = 1.0) -> TripDistanceHistogram:
    if not paths:
        raise ValueError("cannot build a histogram from zero trips")
    if bin_width_km <= 0:
        raise ValueError("bin width must be positive")
    idx = [int(p.trip_km // bin_width_km) for p in paths]
    counts = np.zeros(max(idx) + 1, dtype=np.int64)
    for i in idx:
        counts[i] += 1
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
                           g: int) -> np.ndarray:
    """The single-step transition law the walk process actually follows.

    For each destination, a pass over cells in decreasing L1 distance
    propagates expected visit mass along the destination-monotone choices;
    accumulated edge flows, normalized per origin, give the matrix that the
    empirical single-step statistics of the generated trips converge to.
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
    out = flows.sum(axis=1, keepdims=True)
    return flows / out


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
    pref[0, :, 0] = 0.0
    pref[-1, :, 1] = 0.0
    pref[:, 0, 2] = 0.0
    pref[:, -1, 3] = 0.0

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

    truth = _exact_single_step_law(pref, dest_weights, g)
    probs = truth.reshape(g, g, 4)
    return paths, SSTPMatrix(g=g, probs=probs)


def write_trajectories_csv(paths: list[CellPath], grid: GridMap, out_path) -> None:
    """Emit cell-center point sequences in the trajectory CSV schema."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for p in paths:
            for i, cell in enumerate(p.cells):
                lat, lon = grid.cell_center(cell)
                writer.writerow([p.trip_id, i, i * 60, f"{lat:.8f}", f"{lon:.8f}"])


def synthetic_grid(g: int) -> GridMap:
    """The GridMap synthetic worlds live on (1 km cell pitch)."""
    return unit_grid(g)
