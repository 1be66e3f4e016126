"""Single-step transition statistics and the layered transition model.

The model stores, for every origin-destination pair, the probability of
making the trip at each admissible total length: the L1 distance plus an
even detour up to `max_detour`. Layer k holds the values for detour 2k.
Those values are entries of the t-step transition matrix, which is what
the dense matrix-power baseline computes the expensive way. Training
computes only them: with d the L1 distance from the origin, layer 0
(shortest routes) grows ring by ring from d - 1 to d, and layer k at ring
d comes from layer k at ring d - 1 and layer k - 1 at ring d + 1. The
incremental refresh runs the same recursion, starting each pair at the
first layer a change reaches.
"""

import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModelError, FormatError
from .grid import (DIRECTION_INDEX, DIRECTIONS, ROW_SUM_TOL, check_cell, check_row,
                   decode_cell, step_direction, step_mask)

MODEL_MAGIC = b"EDP1"
SSTP_MAGIC = b"SST1"
FORMAT_VERSION = 1


@dataclass
class SSTPMatrix:
    """Single-step transition probabilities restricted to 4-adjacency.

    probs has shape (g, g, 4); entry [r, c, d] is the probability of
    leaving cell (r, c) in direction d. Out-of-grid directions are zero and
    every row sums to 1. Rows with no observed departures are backfilled
    uniform over in-grid neighbors and flagged in `smoothed`.
    """

    g: int
    probs: np.ndarray
    smoothed: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.smoothed is None:
            self.smoothed = np.zeros(self.g * self.g, dtype=bool)

    @classmethod
    def from_weights(cls, g: int, weights: np.ndarray) -> "SSTPMatrix":
        """Normalize each cell's non-negative outgoing weights, an (n, 4)
        table in grid.DIRECTIONS order with none on a step off the grid.

        A cell with no weight gets the uniform row over its in-grid
        neighbours and a `smoothed` flag, so no walk mass disappears.
        """
        n = g * g
        totals = weights.sum(axis=1)
        smoothed = totals == 0
        probs = weights / np.where(smoothed, 1, totals)[:, None]
        inside = step_mask(g).reshape(n, 4)[smoothed]
        probs[smoothed] = inside / inside.sum(axis=1, keepdims=True)
        return cls(g=g, probs=probs.reshape(g, g, 4), smoothed=smoothed)

    @property
    def n_cells(self) -> int:
        return self.g * self.g

    def replace_row(self, a: int, new_row: dict[int, float]) -> None:
        """Overwrite cell a's outgoing probabilities.

        new_row must pass grid.check_row.
        """
        check_row(a, new_row, self.g)
        ra, ca = decode_cell(a, self.g)
        self.probs[ra, ca, :] = 0.0
        for b, p in new_row.items():
            self.probs[ra, ca, step_direction(a, b, self.g)] = p
        self.smoothed[a] = False

    def to_dense(self) -> np.ndarray:
        """Dense (n, n) single-step matrix."""
        g, n = self.g, self.n_cells
        M = np.zeros((n, n))
        inside = step_mask(g).reshape(n, 4)
        probs = self.probs.reshape(n, 4)
        for d, (dr, dc) in enumerate(DIRECTIONS):
            src = np.flatnonzero(inside[:, d])
            M[src, src + dr * g + dc] = probs[src, d]
        return M

    def copy(self) -> "SSTPMatrix":
        return SSTPMatrix(g=self.g, probs=self.probs.copy(), smoothed=self.smoothed.copy())

    def validate(self) -> None:
        """Raise ValueError unless every row keeps grid.check_row's rule:
        finite, non-negative values that sum to 1 within ROW_SUM_TOL, and
        none on a step off the grid."""
        rows = self.probs.reshape(-1, 4)
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1) | (rows < 0).any(axis=1)
                             | (np.abs(rows.sum(axis=1) - 1.0) > ROW_SUM_TOL))
        if bad.size:
            raise ValueError(f"rows {bad[:5].tolist()} do not hold finite, non-negative "
                             "values summing to 1")
        if np.any(self.probs[~step_mask(self.g)]):
            raise ValueError("probability mass leaves the grid")


# the direction index of a step by (row change + 1) * 3 + (column change + 1)
_STEP_DIRECTION = np.array([DIRECTION_INDEX.get((code // 3 - 1, code % 3 - 1), -1)
                            for code in range(9)])


def build_sstp(paths, g: int) -> SSTPMatrix:
    """Count every consecutive cell transition once and normalize per origin
    (SSTPMatrix.from_weights): cells never observed leaving get the uniform
    backfill row and a `smoothed` flag."""
    if not paths:
        raise ValueError("cannot build transition matrix from zero paths")
    n = g * g
    moving = [path for path in paths if len(path.cells) > 1]
    lengths = np.array([len(path.cells) for path in moving], dtype=np.int64)
    cells = np.fromiter((c for path in moving for c in path.cells), np.int64, int(lengths.sum()))
    outside = np.flatnonzero((cells < 0) | (cells >= n))
    if outside.size:
        check_cell(int(cells[outside[0]]), g)
    # every position but the last of its path starts a transition
    starts = np.ones(cells.size, dtype=bool)
    starts[np.cumsum(lengths) - 1] = False
    src = cells[starts]
    dst = cells[np.roll(starts, 1)]
    dr = dst // g - src // g
    dc = dst % g - src % g
    jumps = np.flatnonzero(np.abs(dr) + np.abs(dc) != 1)
    if jumps.size:
        first = int(jumps[0])
        trip = moving[int(np.searchsorted(np.cumsum(lengths - 1), first, side="right"))]
        raise ValueError(f"non-adjacent transition {src[first]} -> {dst[first]} "
                         f"in trip {trip.trip_id}")
    direction = _STEP_DIRECTION[(dr + 1) * 3 + dc + 1]
    counts = np.bincount(src * 4 + direction, minlength=4 * n).reshape(n, 4)
    return SSTPMatrix.from_weights(g, counts)


def random_sstp(g: int, seed: int) -> SSTPMatrix:
    """Seeded random row-stochastic matrix on the 4-adjacency support.

    Benchmark input: a synthetic world reduced to its single-step matrix.
    """
    rng = np.random.default_rng(seed)
    weights = rng.random((g * g, 4)) + 0.05
    weights[~step_mask(g).reshape(-1, 4)] = 0.0
    return SSTPMatrix.from_weights(g, weights)


def count_start_dest(paths) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """Trip counts keyed by (start cell, destination cell) and by start."""
    by_start: dict[int, dict[int, int]] = {}
    totals: dict[int, int] = {}
    for path in paths:
        s, d = path.cells[0], path.cells[-1]
        by_start.setdefault(s, {})
        by_start[s][d] = by_start[s].get(d, 0) + 1
        totals[s] = totals.get(s, 0) + 1
    return by_start, totals


def l1_matrix(g: int) -> np.ndarray:
    """(n, n) matrix of pairwise L1 distances between cells."""
    rr, cc = np.divmod(np.arange(g * g), g)
    return np.abs(rr[:, None] - rr[None, :]) + np.abs(cc[:, None] - cc[None, :])


@dataclass
class TransitionModel:
    """Trained transition probabilities for every origin-destination pair.

    layers[k, i, j] is the probability of traveling i -> j along a route of
    total length l1(i, j) + 2k. totals[i, j] is the sum over stored layers,
    the quantity the online predictor consumes.
    """

    g: int
    max_detour: int
    layers: np.ndarray
    totals: np.ndarray
    start_counts: dict[int, dict[int, int]]
    start_totals: dict[int, int]
    epoch: int = 0
    _candidates: dict[int, tuple[tuple[int, float, float], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_layers(self) -> int:
        return self.max_detour // 2 + 1

    @property
    def n_cells(self) -> int:
        return self.g * self.g

    def candidates(self, s: int) -> tuple[tuple[int, float, float], ...]:
        """(d, P(destination = d | start = s), p(s -> d)) for each
        destination d != s that start s has produced and that the model
        routes to (p(s -> d) > 0), in ascending d.

        The table is built from the trip counts and totals the first time s
        is asked for and then kept. A model's counts and totals do not
        change after it is built: copy() and apply_update make a new model,
        whose tables start empty.
        """
        table = self._candidates.get(s)
        if table is None:
            total = self.start_totals.get(s, 0)
            counts = self.start_counts.get(s, {}) if total > 0 else {}
            row = self.totals[s]
            table = self._candidates[s] = tuple(
                (d, counts[d] / total, p_sd) for d in sorted(counts)
                if d != s and counts[d] > 0 and (p_sd := row.item(d)) > 0.0)
        return table

    def copy(self) -> "TransitionModel":
        return TransitionModel(
            g=self.g,
            max_detour=self.max_detour,
            layers=self.layers.copy(),
            totals=self.totals.copy(),
            start_counts={s: dict(d) for s, d in self.start_counts.items()},
            start_totals=dict(self.start_totals),
            epoch=self.epoch,
        )

    def equals(self, other: "TransitionModel") -> bool:
        return (
            self.g == other.g
            and self.max_detour == other.max_detour
            and self.epoch == other.epoch
            and np.array_equal(self.layers, other.layers)
            and np.array_equal(self.totals, other.totals)
            and self.start_counts == other.start_counts
            and self.start_totals == other.start_totals
        )


# The in-neighbours m = j + (dr, dc) of a cell j and the direction m leaves
# in to enter j, in the order their terms are added: from below, from above,
# from the right, from the left
_IN_NEIGHBOURS = tuple((-dr, -dc, d) for d, (dr, dc) in enumerate(DIRECTIONS))


def _ring_recursion(layers: np.ndarray, sstp: SSTPMatrix, first: np.ndarray | None = None) -> None:
    """Compute stored layer entries in place from other stored entries.

    With d = L(o, j), layers[k, o, j] is the sum over the in-neighbours m
    of j of value(m) * P(m -> j), where value(m) is layers[k, o, m] when m
    is on ring d - 1 and layers[k - 1, o, m] when m is on ring d + 1 (none
    for k = 0). This is one step of the walk from o, restricted to the
    entries that are ever stored, so k runs outer and d inner. Terms are
    added in _IN_NEIGHBOURS order; a neighbour off the grid, or the empty
    second term of a layer-0 pair on o's row or column, adds an exact 0.0,
    so an entry is bitwise the same whichever other pairs are computed.

    layers[0, o, o] must hold 1.0. Pair (o, j) is computed from layer
    first[o, j] up and read as stored below it, so not at all when
    first[o, j] >= len(layers); first=None computes every entry.

    Pairs are sorted by (ring, first layer, quadrant), the quadrant being
    the signs of j's row and column offsets from o. The pairs of ring d
    computed at layer k are then one prefix of the ring, and each (ring,
    layer) is one (terms, pairs) block whose per-term offsets repeat a
    per-quadrant table over the runs of that prefix.
    """
    if not layers.flags.c_contiguous:
        raise ValueError("layers must be C-contiguous: entries are written through a flat view")
    n_layers = len(layers)
    g, n = sstp.g, sstp.n_cells
    N = n * n
    rows = layers.reshape(n_layers, N)
    flat = rows.reshape(-1)
    padded = np.zeros((g + 2, g + 2, 4))
    padded[1:-1, 1:-1] = sstp.probs
    # P(m -> j) indexed by j, zero where m is off the grid: an offset that
    # wraps a row edge or leaves the array always meets a zero here. Row 4
    # is all zero, for the empty term.
    p_in = np.zeros((5, n))
    p_in[:4] = [padded[1 + mr:1 + mr + g, 1 + mc:1 + mc + g, direction].ravel()
                for mr, mc, direction in _IN_NEIGHBOURS]
    # int32 pair indices and offsets (with their +-g neighbours) reach every
    # entry of the stored layers up to g = 143 at max_detour = 8
    index_type = np.int32 if n_layers * N + g < 2**31 else np.int64
    steps = np.array([mr * g + mc for mr, mc, _ in _IN_NEIGHBOURS], dtype=index_type)
    # per quadrant q = (sign of the row offset + 1) * 3 + sign of the column
    # offset + 1: m is on ring d - 1 (layer k) when its step into j heads
    # away from o, else on ring d + 1 (layer k - 1)
    sr, sc = np.divmod(np.arange(9), 3)
    inward = np.array([(sr - 1) * mr + (sc - 1) * mc == -1 for mr, mc, _ in _IN_NEIGHBOURS])
    # k >= 1: four terms, as offsets into flat from the pair's own entry in
    # layer k, tiled once per first layer
    off_k = np.tile(steps[:, None] - ~inward * index_type(N), n_layers)
    # k = 0: the inward vertical term, then the inward horizontal one; where
    # there is none, term 4 (P = 0) reads the other term's value
    term = np.full((2, 9), 4, dtype=index_type)
    for t, (_, mc, _) in enumerate(_IN_NEIGHBOURS):
        term[int(mc != 0), inward[t]] = t
    off_0 = np.append(steps, 0)[term]
    off_0 = np.where(term < 4, off_0, off_0[::-1])
    p_0 = term * n

    # the sort key is 9 * (n_layers * d + first) + q; d and q add over the two axes
    rings = 2 * g - 1
    # int16 keys sort by radix
    key_type = np.int16 if 9 * n_layers * rings < 2**15 else np.int32
    a = np.arange(g, dtype=key_type)
    dx = a - a[:, None]
    ring = np.abs(dx) * (9 * n_layers)
    key = ((ring + 3 * (np.sign(dx) + 1))[:, None, :, None]
           + (ring + np.sign(dx) + 1)[None, :, None, :]).reshape(N)
    if first is None:
        idx = np.argsort(key, kind="stable")
    else:
        first = first.reshape(N)
        idx = np.flatnonzero(first < n_layers)
        key = key[idx] + 9 * first[idx].astype(key_type)
        idx = idx[np.argsort(key, kind="stable")]
    idx = idx.astype(index_type)
    j = idx % n
    # counts[d, 9 * f + q]: the run of pairs on ring d with first layer f in quadrant q
    counts = np.bincount(key, minlength=9 * n_layers * rings).reshape(rings, 9 * n_layers)
    ring_lo = np.cumsum(counts.sum(axis=1)) - counts.sum(axis=1)
    prefix = np.cumsum(counts.reshape(rings, n_layers, 9).sum(axis=2), axis=1)
    # scratch for the largest block, reused: fresh arrays of a ring's size
    # for every block cost page faults on large grids
    largest = int(prefix[:, -1].max())
    at_buf = np.empty(4 * largest, dtype=np.int64)
    terms_buf = np.empty(4 * largest)
    sums_buf = np.empty(largest)
    for k in range(n_layers):
        table = off_k[:, :9 * (k + 1)] + k * N
        out = rows[k]
        # layer 0 on ring 0 is the stored 1.0
        for d in range(1 if k == 0 else 0, rings):
            lo = ring_lo[d]
            size = prefix[d, k]
            if size == 0:
                continue
            sel, sj = idx[lo:lo + size], j[lo:lo + size]
            # one (terms, pairs) block; reducing over axis 0 adds the terms
            # one after another, in order
            at = at_buf[:4 * size].reshape(4, size)
            if k == 0:
                runs = counts[d, :9]
                at = np.add(off_0.repeat(runs, axis=1), sel, out=at[:2])
                terms = flat.take(at, mode="clip", out=terms_buf[:2 * size].reshape(2, size))
                at = np.add(p_0.repeat(runs, axis=1), sj, out=at)
                terms *= p_in.take(at, mode="clip", out=terms_buf[2 * size:4 * size].reshape(2, size))
            else:
                np.add(table.repeat(counts[d, :9 * (k + 1)], axis=1), sel, out=at)
                terms = flat.take(at, mode="clip", out=terms_buf[:4 * size].reshape(4, size))
                # the offsets are spent, so their memory takes P(m -> j)
                terms *= p_in[:4].take(sj, axis=1, mode="clip", out=at.view(np.float64))
            out[sel] = np.add.reduce(terms, axis=0, out=sums_buf[:size])


def train_initial(sstp: SSTPMatrix, start_dest_counts=None,
                  max_detour: int = 8) -> TransitionModel:
    """Train the full layered model from single-step probabilities.

    Layer 0 (shortest routes) is built ring by ring outward from each
    origin, then each detour layer from the one below it.
    """
    if max_detour < 0 or max_detour % 2 != 0:
        raise ValueError(f"max_detour must be even and >= 0, got {max_detour}")
    g, n = sstp.g, sstp.n_cells
    layers = np.zeros((max_detour // 2 + 1, n, n))
    np.fill_diagonal(layers[0], 1.0)
    _ring_recursion(layers, sstp)
    totals = layers.sum(axis=0)
    if start_dest_counts is None:
        start_counts: dict[int, dict[int, int]] = {}
        start_totals: dict[int, int] = {}
    else:
        start_counts, start_totals = start_dest_counts
    return TransitionModel(g=g, max_detour=max_detour, layers=layers, totals=totals,
                           start_counts=start_counts, start_totals=start_totals)


# ---------------------------------------------------------------------------
# persistence: little-endian binary with a magic header and a trailing crc32

# header fields after the magic and the version
_MODEL_HEADER = "IIIQQ"   # g, max_detour, n_layers, epoch, record count
_SSTP_HEADER = "IB"       # g, has-counts flag (written 0)
_RECORD = np.dtype([("start", "<u4"), ("dest", "<u4"), ("count", "<u8")])


@contextmanager
def atomic_write(path, mode="wb", **open_kwargs):
    """Open a temporary file beside path for writing and rename it over
    path when the block exits cleanly, so a failed write leaves the old
    file whole; on an error the temporary file is removed."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_checksummed(path, magic: bytes, header_fmt: str, fields, sections) -> None:
    """Write the header, each section straight from memory (C-contiguous,
    little-endian) and the crc32 of them all, atomically."""
    crc = 0
    with atomic_write(path) as fh:
        for part in (struct.pack("<4sI" + header_fmt, magic, FORMAT_VERSION, *fields),
                     *sections):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def _read_checksummed(path, magic: bytes, header_fmt: str, layout):
    """The header fields and sections of a file _write_checksummed wrote.

    `layout(*fields)` gives each section's (dtype, shape) in file order and
    raises ValueError when the fields contradict each other. The file is
    read once into one buffer, and every section is a view into it.
    """
    header = struct.Struct("<4sI" + header_fmt)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = bytearray(size)
        if fh.readinto(buf) != size:
            raise CorruptModelError(f"{path}: file shrank while being read")
    if buf[:4] != magic:
        raise FormatError(f"{path}: not an {magic.decode()} file (bad magic)")
    if size < header.size + 4:
        raise CorruptModelError(f"{path}: truncated header")
    _, version, *fields = header.unpack_from(buf)
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported {magic.decode()} version {version}")
    try:
        sections = [(np.dtype(dtype), shape) for dtype, shape in layout(*fields)]
    except ValueError as exc:
        raise CorruptModelError(f"{path}: {exc}") from None
    expected = header.size + sum(dt.itemsize * math.prod(shape) for dt, shape in sections) + 4
    if size != expected:
        raise CorruptModelError(f"{path}: expected {expected} bytes, found {size}")
    if zlib.crc32(memoryview(buf)[:-4]) != int.from_bytes(buf[-4:], "little"):
        raise CorruptModelError(f"{path}: checksum mismatch")
    arrays, offset = [], header.size
    for dtype, shape in sections:
        arrays.append(np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape))
        offset += arrays[-1].nbytes
    return fields, arrays


def _model_layout(g, max_detour, n_layers, epoch, n_records):
    if max_detour % 2 or n_layers != max_detour // 2 + 1:
        raise ValueError(f"{n_layers} layers do not fit max_detour={max_detour}")
    n = g * g
    return ("<f8", (n_layers, n, n)), ("<f8", (n, n)), (_RECORD, (n_records,))


def _sstp_layout(g, has_counts):
    # flag 1 marks an older sidecar that also holds per-cell visit counts and
    # per-(cell, direction) pair counts; they are checked by size and crc only
    if has_counts not in (0, 1):
        raise ValueError(f"has-counts flag is {has_counts}, not 0 or 1")
    n = g * g
    counts = (("<u8", (n,)), ("<u8", (n, 4))) if has_counts else ()
    return (("<f8", (g, g, 4)), ("<u1", (n,)), *counts)


def save_model(model: TransitionModel, path) -> None:
    records = np.array([(s, d, model.start_counts[s][d]) for s in sorted(model.start_counts)
                        for d in sorted(model.start_counts[s])], dtype=_RECORD)
    _write_checksummed(path, MODEL_MAGIC, _MODEL_HEADER,
                       (model.g, model.max_detour, model.n_layers, model.epoch, len(records)),
                       (np.ascontiguousarray(model.layers, dtype="<f8"),
                        np.ascontiguousarray(model.totals, dtype="<f8"), records))


def load_model(path) -> TransitionModel:
    """The model saved in `path`; its layers and totals are views into one buffer."""
    (g, max_detour, _, epoch, _), (layers, totals, records) = _read_checksummed(
        path, MODEL_MAGIC, _MODEL_HEADER, _model_layout)
    if records.size and max(records["start"].max(), records["dest"].max()) >= g * g:
        raise CorruptModelError(f"{path}: a start/destination record lies outside g={g}")
    # save_model writes one record per pair, ascending; a repeated pair would
    # count twice in start_totals but once in start_counts
    keys = records["start"].astype(np.uint64) << 32 | records["dest"]
    if np.any(keys[1:] <= keys[:-1]):
        raise CorruptModelError(f"{path}: start/destination records are not strictly ascending")
    start_counts: dict[int, dict[int, int]] = {}
    start_totals: dict[int, int] = {}
    for s, d, cnt in records.tolist():
        start_counts.setdefault(s, {})[d] = cnt
        start_totals[s] = start_totals.get(s, 0) + cnt
    return TransitionModel(g=g, max_detour=max_detour, layers=layers, totals=totals,
                           start_counts=start_counts, start_totals=start_totals, epoch=epoch)


def save_sstp(sstp: SSTPMatrix, path) -> None:
    _write_checksummed(path, SSTP_MAGIC, _SSTP_HEADER, (sstp.g, 0),
                       (np.ascontiguousarray(sstp.probs, dtype="<f8"),
                        sstp.smoothed.astype("<u1")))


def load_sstp(path) -> SSTPMatrix:
    """The matrix saved in `path`; its probabilities are a view into one buffer.

    A matrix whose rows break SSTPMatrix.validate raises CorruptModelError.
    An older file's count sections (has-counts flag 1) are not read.
    """
    (g, _), (probs, smoothed, *_) = _read_checksummed(
        path, SSTP_MAGIC, _SSTP_HEADER, _sstp_layout)
    sstp = SSTPMatrix(g=g, probs=probs, smoothed=smoothed.astype(bool))
    try:
        sstp.validate()
    except ValueError as exc:
        raise CorruptModelError(f"{path}: {exc}") from None
    return sstp
