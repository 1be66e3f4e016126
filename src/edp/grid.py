"""Cell geometry for a g-by-g grid laid over a geographic bounding box.

Cells are numbered row-major with row 0 at the top (northern edge), so
cell id = row * g + col. All distances between cells are L1 (Manhattan)
hops; the only legal single step is to one of the 4 orthogonal neighbors.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

EARTH_RADIUS_KM = 6371.0088
# one meridian degree on the same sphere haversine_km uses, so grid pitch
# in km and great-circle distances agree
KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0
KM_PER_DEG_LON_EQ = KM_PER_DEG_LAT

# Neighbor offsets in the fixed order (up, down, left, right), the single
# source of the grid's step rules. An offset's position is its direction
# index, the last axis of SSTPMatrix.probs. DIRECTION_INDEX, step_mask,
# step_pairs, neighbors, model._IN_NEIGHBOURS and model._STEP_DIRECTION all
# derive from it. The training recursion, which refresh also runs, adds its
# terms in this order, so reordering them changes trained values in the last
# bits.
DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))
DIRECTION_INDEX = {offset: k for k, offset in enumerate(DIRECTIONS)}

# how far a probability row's sum may stray from 1: check_row and
# SSTPMatrix.validate apply the same rule
ROW_SUM_TOL = 1e-9


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometers."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


@dataclass(frozen=True)
class GridMap:
    """Geographic bounding box partitioned into g x g uniform cells."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    g: int

    def __post_init__(self):
        if self.g < 2:
            raise ValueError(f"grid side must be >= 2, got {self.g}")
        for bound in ("lat_min", "lat_max", "lon_min", "lon_max"):
            if not math.isfinite(getattr(self, bound)):
                raise ValueError(f"bounding box {bound} must be finite, "
                                 f"got {getattr(self, bound)}")
        for bound in ("lat_min", "lat_max"):
            if not -90.0 <= getattr(self, bound) <= 90.0:
                raise ValueError(f"bounding box {bound} must be within [-90, 90], "
                                 f"got {getattr(self, bound)}")
        if self.lon_max - self.lon_min > 360.0:
            raise ValueError(f"bounding box spans {self.lon_max - self.lon_min} degrees of "
                             "longitude, over 360")
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("bounding box is empty or inverted")

    @property
    def n_cells(self) -> int:
        return self.g * self.g

    @property
    def cell_height_km(self) -> float:
        return (self.lat_max - self.lat_min) / self.g * KM_PER_DEG_LAT

    @property
    def cell_width_km(self) -> float:
        mid = math.radians((self.lat_min + self.lat_max) / 2)
        return (self.lon_max - self.lon_min) / self.g * KM_PER_DEG_LON_EQ * math.cos(mid)

    @cached_property
    def mean_pitch_km(self) -> float:
        # computed once per grid: every query reads it as its step length
        return (self.cell_width_km + self.cell_height_km) / 2

    def contains(self, lat: float, lon: float) -> bool:
        return self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max

    def cell_of(self, lat: float, lon: float) -> int:
        """Cell id containing the point. Points on the max edges clamp inward."""
        if not self.contains(lat, lon):
            raise ValueError(f"point ({lat}, {lon}) outside bounding box")
        row = int((self.lat_max - lat) / (self.lat_max - self.lat_min) * self.g)
        col = int((lon - self.lon_min) / (self.lon_max - self.lon_min) * self.g)
        row = min(row, self.g - 1)
        col = min(col, self.g - 1)
        return row * self.g + col

    def cell_center(self, cell: int) -> tuple[float, float]:
        """(lat, lon) of the cell's center."""
        row, col = decode_cell(cell, self.g)
        lat = self.lat_max - (row + 0.5) * (self.lat_max - self.lat_min) / self.g
        lon = self.lon_min + (col + 0.5) * (self.lon_max - self.lon_min) / self.g
        return lat, lon

    def center_distance_km(self, a: int, b: int) -> float:
        la, lo = self.cell_center(a)
        lb, lob = self.cell_center(b)
        return haversine_km(la, lo, lb, lob)


def unit_grid(g: int) -> GridMap:
    """A GridMap whose cells are 1 km x 1 km (to haversine precision).

    Used by the synthetic generator and unit tests so that one grid step
    equals one kilometer.
    """
    lat_span = g / KM_PER_DEG_LAT
    mid = math.radians(lat_span / 2)
    lon_span = g / (KM_PER_DEG_LON_EQ * math.cos(mid))
    return GridMap(0.0, lat_span, 0.0, lon_span, g)


def check_cell(cell: int, g: int) -> None:
    if not 0 <= cell < g * g:
        raise ValueError(f"cell id {cell} out of range for g={g}")


def decode_cell(cell: int, g: int) -> tuple[int, int]:
    check_cell(cell, g)
    return divmod(cell, g)


def neighbors(cell: int, g: int) -> list[int]:
    """In-grid 4-neighbors in (up, down, left, right) order."""
    row, col = decode_cell(cell, g)
    out = []
    for dr, dc in DIRECTIONS:
        r, c = row + dr, col + dc
        if 0 <= r < g and 0 <= c < g:
            out.append(r * g + c)
    return out


def step_mask(g: int) -> np.ndarray:
    """(g, g, 4) bool table: [r, c, d] holds when the step DIRECTIONS[d]
    from (r, c) stays on the grid."""
    line = np.arange(g)
    dr, dc = np.array(DIRECTIONS).T
    rows, cols = line[:, None, None] + dr, line[None, :, None] + dc
    return (rows >= 0) & (rows < g) & (cols >= 0) & (cols < g)


@lru_cache(maxsize=8)
def step_pairs(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, direction) of every in-grid single step, by source, then direction.

    Made once per g and shared by every caller, so the arrays are read-only."""
    src, direction = np.nonzero(step_mask(g).reshape(g * g, 4))
    dr, dc = np.array(DIRECTIONS).T
    pairs = src, src + dr[direction] * g + dc[direction], direction
    for a in pairs:
        a.flags.writeable = False
    return pairs


def check_row(cell: int, row: dict[int, float], g: int) -> None:
    """Raise ValueError unless `row` is a probability row for leaving cell:
    it covers exactly the in-grid neighbors, every value is finite and
    non-negative, and the values sum to 1 within ROW_SUM_TOL."""
    nbrs = neighbors(cell, g)
    if set(row) != set(nbrs):
        raise ValueError(f"cell {cell}: row must cover exactly its in-grid neighbors "
                         f"{sorted(nbrs)}")
    if not all(math.isfinite(p) and p >= 0.0 for p in row.values()):
        raise ValueError(f"cell {cell}: probabilities must be finite and non-negative")
    total = sum(row.values())
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"cell {cell}: row sums to {total}, expected 1")


def step_direction(a: int, b: int, g: int) -> int:
    """Direction index of the single step a -> b between 4-adjacent cells."""
    ra, ca = decode_cell(a, g)
    rb, cb = decode_cell(b, g)
    try:
        return DIRECTION_INDEX[(rb - ra, cb - ca)]
    except KeyError:
        raise ValueError(f"cells {a} and {b} are not 4-adjacent") from None


def l1_distance(a: int, b: int, g: int) -> int:
    ra, ca = decode_cell(a, g)
    rb, cb = decode_cell(b, g)
    return abs(ra - rb) + abs(ca - cb)
