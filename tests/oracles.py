"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written the slow, obvious way and shares
no code with the package beyond numpy: BFS for distances, explicit set
frontiers for reachability, repeated dense multiplication for transition
layers, direct enumeration for geometric sets. The per-origin walk
wavefront that trained the model before the ring recursion is kept here
unchanged, as the bitwise reference for training and refresh, and so is
the four-branch dense single-step matrix. So are the serving path's
earlier forms, as references for the table-driven ones: the DictReader
trajectory parser, the per-transition loop that counted the single-step
matrix, the Counter-per-gram history index, the per-window loop that
built the history index's gram table, the masked distance
estimate, and the destination scoring loop that read the model one
candidate at a time. The small cell helpers that only tests need live here too,
and so do readers that key a HistoryIndex's grams by their cells and
the scalar hop that the index's hop tables must equal.
"""

import csv
import math
import zlib
from collections import Counter, deque

import numpy as np


def grid_neighbors(cell: int, g: int) -> list[int]:
    r, c = divmod(cell, g)
    out = []
    if r > 0:
        out.append(cell - g)
    if r < g - 1:
        out.append(cell + g)
    if c > 0:
        out.append(cell - 1)
    if c < g - 1:
        out.append(cell + 1)
    return out


def bfs_hops(a: int, b: int, g: int) -> int:
    """Minimal number of orthogonal moves between two cells."""
    if a == b:
        return 0
    seen = {a}
    queue = deque([(a, 0)])
    while queue:
        cell, d = queue.popleft()
        for nb in grid_neighbors(cell, g):
            if nb == b:
                return d + 1
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, d + 1))
    raise AssertionError("grid is connected; unreachable")


def is_trip_path(cells: list[int], g: int) -> bool:
    """A training trip's cell path: two or more cells, each step to a grid
    neighbour."""
    return len(cells) >= 2 and all(b in grid_neighbors(a, g) for a, b in zip(cells, cells[1:]))


def exact_step_frontiers(a: int, g: int, smax: int) -> list[set[int]]:
    """frontiers[s] = cells reachable from a in exactly s moves (revisits allowed)."""
    frontiers = [{a}]
    for _ in range(smax):
        nxt = set()
        for cell in frontiers[-1]:
            nxt.update(grid_neighbors(cell, g))
        frontiers.append(nxt)
    return frontiers


def nonzero_count_by_sets(g: int, s: int) -> int:
    """Ordered pairs reachable in exactly s moves, by frontier sets per origin."""
    total = 0
    for a in range(g * g):
        total += len(exact_step_frontiers(a, g, s)[s])
    return total


def brute_rap(i: int, j: int, g: int) -> set[int]:
    """Neighbors of j lying on some minimal lattice path from i."""
    d = bfs_hops(i, j, g)
    return {p for p in grid_neighbors(j, g) if bfs_hops(i, p, g) == d - 1}


def encode_cell(row: int, col: int, g: int) -> int:
    if not (0 <= row < g and 0 <= col < g):
        raise ValueError(f"({row}, {col}) out of range for g={g}")
    return row * g + col


def parity_reachable(a: int, b: int, steps: int, g: int) -> bool:
    """True iff a walk of exactly `steps` orthogonal moves can land on b.

    On a 4-adjacent grid without self loops, a length-t walk reaches only
    cells whose L1 distance has the parity of t and does not exceed t.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    (ra, ca), (rb, cb) = divmod(a, g), divmod(b, g)
    d = abs(ra - rb) + abs(ca - cb)
    return steps >= d and (steps - d) % 2 == 0


def relative_adjacent_pair(i: int, j: int, g: int) -> tuple[int, ...]:
    """The 1 or 2 neighbors of j that lie on some shortest route from i.

    When i and j share a row or column there is a single such cell; otherwise
    the vertical and horizontal neighbors of j on i's side both qualify.
    """
    if i == j:
        raise ValueError("relative adjacent pair undefined for i == j")
    (ri, ci), (rj, cj) = divmod(i, g), divmod(j, g)
    out = []
    if ri != rj:
        out.append((rj + (-1 if ri < rj else 1)) * g + cj)
    if ci != cj:
        out.append(rj * g + cj + (-1 if ci < cj else 1))
    return tuple(out)


def sstp_prob(sstp, a: int, b: int) -> float:
    """P(a -> b) read from sstp.probs; zero unless b is a 4-neighbor of a."""
    (ra, ca), (rb, cb) = divmod(a, sstp.g), divmod(b, sstp.g)
    d = {(-1, 0): _DIR_UP, (1, 0): _DIR_DOWN, (0, -1): _DIR_LEFT,
         (0, 1): _DIR_RIGHT}.get((rb - ra, cb - ca))
    return 0.0 if d is None else float(sstp.probs[ra, ca, d])


def sstp_row(sstp, a: int) -> dict[int, float]:
    """Outgoing probabilities of cell a keyed by neighbor id."""
    return {b: sstp_prob(sstp, a, b) for b in grid_neighbors(a, sstp.g)}


def recrc(blob) -> bytes:
    """A checksummed file's bytes with the trailing crc32 recomputed, as a
    crafted file would carry it."""
    body = bytes(blob[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


def brute_beyond(i: int, j: int, g: int) -> set[int]:
    """Cells k such that j lies on some minimal lattice path i -> k."""
    d = bfs_hops(i, j, g)
    return {k for k in range(g * g) if d + bfs_hops(j, k, g) == bfs_hops(i, k, g)}


def dense_powers(M: np.ndarray, tmax: int) -> list[np.ndarray]:
    """[I, M, M^2, ..., M^tmax] by repeated full multiplication."""
    out = [np.eye(M.shape[0])]
    for _ in range(tmax):
        out.append(out[-1] @ M)
    return out


def l1_table(g: int) -> np.ndarray:
    rr, cc = np.divmod(np.arange(g * g), g)
    return np.abs(rr[:, None] - rr[None, :]) + np.abs(cc[:, None] - cc[None, :])


def power_totals(M: np.ndarray, g: int, max_detour: int) -> np.ndarray:
    """totals[i, j] = sum over even detours d <= max_detour of (M^(l1+d))_ij."""
    L = l1_table(g)
    tmax = 2 * (g - 1) + max_detour
    powers = dense_powers(M, tmax)
    totals = np.zeros_like(M)
    for i in range(g * g):
        for j in range(g * g):
            for d in range(0, max_detour + 1, 2):
                totals[i, j] += powers[L[i, j] + d][i, j]
    return totals


def ring_pair_count(g: int, dist: int) -> int:
    """Ordered cell pairs at L1 distance exactly dist."""
    L = l1_table(g)
    return int((L == dist).sum())


def parity_pair_count(g: int, s: int) -> int:
    """Ordered pairs with l1 <= s and l1 matching s's parity."""
    L = l1_table(g)
    return int(((L <= s) & ((s - L) % 2 == 0)).sum())


def rect_beyond(i: int, j: int, g: int) -> set[int]:
    """Closed quadrant with corner j extending away from i, by enumeration.

    Same-row or same-column inputs degenerate to the ray through j away
    from i.
    """
    (ri, ci), (rj, cj) = divmod(i, g), divmod(j, g)

    def side(a, b, x):
        return x == b if a == b else (x >= b if a < b else x <= b)

    return {k for k in range(g * g) if side(ri, rj, k // g) and side(ci, cj, k % g)}


def taa_cells(origin: int, anchor: int, max_detour: int, g: int) -> set[int]:
    """The paper's affected area by border growth with explicit sets.

    Detour 0 is the beyond-rectangle; each two units of detour take in the
    in-grid neighbors of the region across the borders facing the origin
    (one border in the same-row or same-column case).
    """
    (ro, co), (ra, ca) = divmod(origin, g), divmod(anchor, g)
    grow = []
    if ro != ra:
        grow.append((1 if ro > ra else -1, 0))
    if co != ca:
        grow.append((0, 1 if co > ca else -1))
    region = rect_beyond(origin, anchor, g)
    for _ in range(max_detour // 2):
        added = set()
        for cell in region:
            r, c = divmod(cell, g)
            for dr, dc in grow:
                if 0 <= r + dr < g and 0 <= c + dc < g:
                    added.add((r + dr) * g + c + dc)
        region |= added
    return region


def paper_mask(changed: list[int], max_detour: int, g: int) -> np.ndarray:
    """(n, n) paper-mode refresh region: per origin, the affected area of
    its nearest changed cell (ties to the smallest id); a changed origin
    gets its whole row."""
    n = g * g
    L = l1_table(g)
    mask = np.zeros((n, n), dtype=bool)
    for origin in range(n):
        if origin in changed:
            mask[origin] = True
            continue
        anchor = min(changed, key=lambda c: (L[origin, c], c))
        mask[origin, sorted(taa_cells(origin, anchor, max_detour, g))] = True
    return mask


def first_affected_layer(changed: list[int], n_layers: int, g: int, sstp=None) -> np.ndarray:
    """(n, n) lowest layer of each pair whose entry a change reaches, or
    n_layers where none does, by taint over the stored entries.

    Entry (k, o, j) sums its in-grid in-neighbours m: layer k of (o, m) for
    m one step nearer o, layer k - 1 for m one step farther. Without sstp
    the taint is geometric: an entry is affected when such an m is a
    changed cell (its row enters the term) or holds an affected entry.
    With sstp, the refreshed single-step matrix, it is value-level: an
    unchanged m taints the entry only when P(m -> j) != 0, and a changed m
    only when its (o, m) entry is nonzero under sstp or already tainted.
    An entry is nonzero when some term has a nonzero entry and a nonzero
    P(m -> j). Layer 0 of (o, o) is the constant 1.0. Entries are visited
    by walk length L(o, j) + 2k, so every term is settled first.
    """
    n = g * g
    changed = set(changed)
    P = None if sstp is None else sstp_dense(sstp).tolist()
    first = np.full((n, n), n_layers, dtype=np.int64)
    for o in range(n):
        dist = [bfs_hops(o, j, g) for j in range(n)]
        entries = sorted((dist[j] + 2 * k, k, j) for k in range(n_layers) for j in range(n))
        affected = set()
        nonzero = {(0, o)}
        for _, k, j in entries:
            for m in grid_neighbors(j, g):
                km = k if dist[m] < dist[j] else k - 1
                if km < 0:
                    continue
                moves = P is None or P[m][j] != 0.0
                if (km, m) in nonzero and moves:
                    nonzero.add((k, j))
                if m in changed:
                    tainted = P is None or (km, m) in nonzero or (km, m) in affected
                else:
                    tainted = (km, m) in affected and moves
                if tainted:
                    affected.add((k, j))
                    first[o, j] = min(first[o, j], k)
    return first


def compute_etp(sstp, origin: int) -> np.ndarray:
    """Shortest-route transition probabilities from one origin to every cell.

    Recursion over destinations in increasing L1 order: the probability of
    reaching j along a minimal route is the sum, over the one or two
    neighbors of j that minimal routes pass through, of reaching that
    neighbor minimally and then stepping into j.
    """
    g = sstp.g
    n = g * g
    L = l1_table(g)
    etp = np.zeros(n)
    etp[origin] = 1.0
    order = sorted(range(n), key=lambda j: L[origin, j])
    for j in order:
        if j == origin:
            continue
        acc = 0.0
        for p in sorted(brute_rap(origin, j, g)):
            acc += etp[p] * sstp_prob(sstp, p, j)
        etp[j] = acc
    return etp


# probs[..., k] follows grid.DIRECTIONS: 0=up 1=down 2=left 3=right
_DIR_UP, _DIR_DOWN, _DIR_LEFT, _DIR_RIGHT = range(4)


def sstp_dense(sstp) -> np.ndarray:
    """Dense (n, n) single-step matrix, one branch per grid edge."""
    g = sstp.g
    n = g * g
    M = np.zeros((n, n))
    for r in range(g):
        for c in range(g):
            i = r * g + c
            if r > 0:
                M[i, i - g] = sstp.probs[r, c, _DIR_UP]
            if r < g - 1:
                M[i, i + g] = sstp.probs[r, c, _DIR_DOWN]
            if c > 0:
                M[i, i - 1] = sstp.probs[r, c, _DIR_LEFT]
            if c < g - 1:
                M[i, i + 1] = sstp.probs[r, c, _DIR_RIGHT]
    return M


def _step_kernel(cur, nxt, tmp, Pu, Pd, Pl, Pr):
    """One wavefront step: nxt[j] = sum over neighbors k of cur[k] * P(k -> j).

    Contributions accumulate in (up, down, left, right) order. cur/nxt/tmp
    have shape (B, rows, g); callers may pass a row-window view as long as
    the rows beyond it hold no walk mass.
    """
    np.multiply(cur[:, 1:, :], Pu[None, 1:, :], out=nxt[:, :-1, :])
    nxt[:, -1, :] = 0.0
    np.multiply(cur[:, :-1, :], Pd[None, :-1, :], out=tmp[:, :-1, :])
    nxt[:, 1:, :] += tmp[:, :-1, :]
    np.multiply(cur[:, :, 1:], Pl[None, :, 1:], out=tmp[:, :, 1:])
    nxt[:, :, :-1] += tmp[:, :, 1:]
    np.multiply(cur[:, :, :-1], Pr[None, :, :-1], out=tmp[:, :, :-1])
    nxt[:, :, 1:] += tmp[:, :, :-1]


def _wavefront_into(layers: np.ndarray, sstp, origins: np.ndarray,
                    max_detour: int, L: np.ndarray, out_rows=None) -> None:
    """Run the wavefront for a batch of origins, harvesting stored layers.

    Values land in layers[:, out_rows[b], :] for batch position b;
    out_rows defaults to the origin ids themselves.
    """
    g, n = sstp.g, sstp.n_cells
    n_layers = max_detour // 2 + 1
    dmax = 2 * (g - 1)
    Pu = sstp.probs[..., _DIR_UP]
    Pd = sstp.probs[..., _DIR_DOWN]
    Pl = sstp.probs[..., _DIR_LEFT]
    Pr = sstp.probs[..., _DIR_RIGHT]
    B = len(origins)
    if out_rows is None:
        out_rows = origins
    Lb = L[origins]
    tmax = int(Lb.max()) + max_detour
    # bucket the (origin, dest) pairs of this batch by L1 distance once, so
    # each step harvests its rings with two fancy-index ops per layer
    flat_order = np.argsort(Lb, axis=None, kind="stable")
    bounds = np.searchsorted(Lb.ravel()[flat_order], np.arange(dmax + 2))
    row_i = out_rows[flat_order // n]
    col_j = flat_order % n
    cur = np.zeros((B, g, g))
    nxt = np.zeros((B, g, g))
    tmp = np.empty((B, g, g))
    cur.reshape(B, n)[np.arange(B), origins] = 1.0
    sl = slice(bounds[0], bounds[1])
    layers[0][row_i[sl], col_j[sl]] = cur.reshape(B, n).ravel()[flat_order[sl]]
    # after t steps the walk mass sits within t rows of the batch's origin
    # rows; stepping a one-row margin around that band is exact and keeps
    # early steps cheap
    r_lo = int(origins.min()) // g
    r_hi = int(origins.max()) // g
    for t in range(1, tmax + 1):
        a = max(0, r_lo - t)
        b = min(g, r_hi + t + 1)
        _step_kernel(cur[:, a:b, :], nxt[:, a:b, :], tmp[:, a:b, :],
                     Pu[a:b], Pd[a:b], Pl[a:b], Pr[a:b])
        cur, nxt = nxt, cur
        flat = cur.reshape(B, n).ravel()
        for k in range(n_layers):
            d = t - 2 * k
            if 0 <= d <= dmax:
                sl = slice(bounds[d], bounds[d + 1])
                if sl.start < sl.stop:
                    layers[k][row_i[sl], col_j[sl]] = flat[flat_order[sl]]


def wavefront_layers(sstp, max_detour: int) -> np.ndarray:
    """All stored layers by the per-origin walk wavefront, the trainer the
    ring recursion replaced: step the whole walk distribution of a batch of
    50 origins and harvest each ring at t = l1 + 2k. Bitwise reference."""
    n = sstp.g * sstp.g
    layers = np.zeros((max_detour // 2 + 1, n, n))
    L = l1_table(sstp.g)
    for lo in range(0, n, 50):
        _wavefront_into(layers, sstp, np.arange(lo, min(lo + 50, n)), max_detour, L)
    return layers


def dictreader_parse(path, grid=None):
    """(trajectories, malformed, dropped points) of a trajectory CSV, read
    through csv.DictReader; every trip with a kept point is a trajectory.
    Raises ValueError where the package raises FormatError."""
    required = ("trip_id", "seq", "timestamp", "lat", "lon")
    rows_total = malformed = dropped_points = 0
    per_trip = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if any(c not in (reader.fieldnames or []) for c in required):
                raise ValueError("missing columns")
            for row in reader:
                rows_total += 1
                try:
                    trip = row["trip_id"]
                    seq = int(row["seq"])
                    float(row["timestamp"])
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
                per_trip.setdefault(trip, []).append((seq, lat, lon))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(str(exc)) from exc
    if rows_total and malformed / rows_total > 0.5:
        raise ValueError("mostly malformed")
    trajectories = []
    for trip_id in per_trip:
        pts = sorted(per_trip[trip_id], key=lambda p: p[0])
        trajectories.append((trip_id, [(lat, lon) for _, lat, lon in pts]))
    return trajectories, malformed, dropped_points


def loop_sstp(paths, g: int):
    """(probs (g, g, 4), smoothed) by counting one transition at a time;
    unobserved rows spread evenly over the in-grid neighbours."""
    n = g * g
    offsets = {(-1, 0): 0, (1, 0): 1, (0, -1): 2, (0, 1): 3}
    pair_counts = np.zeros((n, 4), dtype=np.int64)
    for path in paths:
        for a, b in zip(path.cells, path.cells[1:]):
            (ra, ca), (rb, cb) = divmod(a, g), divmod(b, g)
            pair_counts[a, offsets[(rb - ra, cb - ca)]] += 1
    visit_counts = pair_counts.sum(axis=1)
    probs = np.zeros((g, g, 4))
    for cell in range(n):
        r, c = divmod(cell, g)
        if visit_counts[cell] > 0:
            probs[r, c] = pair_counts[cell] / visit_counts[cell]
        else:
            row = np.array([r > 0, r < g - 1, c > 0, c < g - 1], dtype=float)
            probs[r, c] = row / row.sum()
    return probs, visit_counts == 0


class CounterHistoryIndex:
    """Suffix-gram index keyed by tuples, one Counter of next cells (STOP
    = -1 when the trip ends) per gram, ranked on every lookup."""

    def __init__(self, paths, max_gram: int = 8):
        self.max_gram = max_gram
        self.grams = {}
        for path in paths:
            cells = path.cells
            for p in range(len(cells)):
                nxt = cells[p + 1] if p + 1 < len(cells) else -1
                for m in range(1, min(max_gram, p + 1) + 1):
                    key = tuple(cells[p + 1 - m:p + 1])
                    self.grams.setdefault(key, Counter())[nxt] += 1

    def continuation(self, cells, k: int):
        quota = k
        tally = Counter()
        for m in range(min(len(cells), self.max_gram), 0, -1):
            counts = self.grams.get(tuple(cells[-m:]))
            if not counts:
                continue
            for cell, cnt in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
                take = min(cnt, quota)
                tally[cell] += take
                quota -= take
                if quota == 0:
                    break
            if quota == 0:
                break
        if not tally:
            return None
        return min(tally.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def loop_history_grams(paths, max_gram: int = 8) -> dict:
    """The history index's gram table as the per-window loop built it: one dict of
    next-cell counts per gram (STOP = -1 when the trip ends), each frozen
    to (cell, count) pairs sorted by count descending, then cell."""
    grams = {}
    stop = -1
    for path in paths:
        cells = tuple(path.cells)
        last = len(cells) - 1
        for p in range(last + 1):
            nxt = cells[p + 1] if p < last else stop
            for lo in range(max(0, p + 1 - max_gram), p + 1):
                key = cells[lo:p + 1]
                counts = grams.get(key)
                if counts is None:
                    grams[key] = {nxt: 1}
                else:
                    counts[nxt] = counts.get(nxt, 0) + 1
    for key, counts in grams.items():
        grams[key] = tuple(sorted(counts.items(), key=lambda pair: (-pair[1], pair[0])))
    return grams


def index_cells(index) -> dict:
    """Every gram id of a HistoryIndex with its cells, read off the child
    map, whose key for a gram is first cell * stride + parent id."""
    cells = {0: ()}
    for key, gram in sorted(index._child.items(), key=lambda item: item[1]):
        first, parent = divmod(key, index._stride)   # a parent's id is below its gram's
        cells[gram] = (first,) + cells[parent]
    del cells[0]
    return cells


def index_pairs(index, gram: int) -> list:
    """An indexed gram's ranked (cell, count, ext) triples, plain ints."""
    grams, stride = index._grams, index._stride
    slots = slice(grams.head[gram], grams.head[gram + 1])
    return [(int(grams.cells[pair // stride]), count, pair % stride)
            for pair, count in zip(grams.pair[slots].tolist(), grams.count[slots].tolist())]


def index_grams(index) -> dict:
    """Every gram a HistoryIndex holds, keyed by its cells, with its ranked
    (cell, count) pairs: the form loop_history_grams returns."""
    return {cells: tuple((cell, count) for cell, count, _ in index_pairs(index, gram))
            for gram, cells in index_cells(index).items()}


def scalar_hop(index, gram: int, k: int) -> tuple[int, int]:
    """The hop from an indexed gram, one Python loop at a time, as the
    index once filled each hop: (vote, next gram id, 0 on a stop vote).

    The vote pools the gram's ranked pairs, then each shorter suffix's
    down its parent chain, until k votes are in, ties to the smaller
    cell. The next gram is S + (vote,), read from S's extension ids, for
    the longest suffix S of the gram shorter than max_gram that the vote
    ever followed, else (vote,) alone."""
    parent = index._grams.parent
    quota, tally, suffix = k, Counter(), gram
    while suffix and quota:
        for cell, count, _ in index_pairs(index, suffix):
            take = min(count, quota)
            tally[cell] += take
            quota -= take
            if not quota:
                break
        suffix = int(parent[suffix])
    vote = min(tally, key=lambda cell: (-tally[cell], cell))
    if vote == -1:
        return vote, 0
    length, suffix = 0, gram
    while suffix:
        length, suffix = length + 1, int(parent[suffix])
    suffix = gram if length < index.max_gram else int(parent[gram])
    while suffix:
        for cell, _, ext in index_pairs(index, suffix):
            if cell == vote:
                return vote, ext
        suffix = int(parent[suffix])
    return vote, index._child[vote * index._stride]


def step_walk(partial, dp_km: float, history, k: int = 10, step_km: float = 1.0):
    """(cell, steps, no_match) of the continuation walk that asks `history`
    for one continuation per step with the whole grown context."""
    cells = list(partial)
    spent = 0.0
    steps = 0
    no_match = False
    while spent < dp_km:
        nxt = history.continuation(cells, k)
        if nxt is None:
            no_match = steps == 0
            break
        if nxt == -1:
            break
        cells.append(nxt)
        steps += 1
        spent += step_km
    return cells[-1], steps, no_match


def masked_estimate(h, d_t: float) -> tuple[float, bool]:
    """(expected total km, extrapolated) over the bins whose upper edge
    exceeds d_t, selected by a boolean mask on every call."""
    boundaries = np.arange(len(h.counts) + 1) * h.bin_width_km
    left_edges = np.arange(len(h.counts)) * h.bin_width_km
    surviving = boundaries[1:] > d_t
    mass = int(h.counts[surviving].sum())
    if mass == 0:
        return d_t, True
    num = float((left_edges[surviving] * h.counts[surviving]).sum())
    return num / mass, False


def l1_deviation_km(results, truths, g: int, top_n: int) -> float:
    """Mean over queries of the mean grid-hop distance from the top_n ranked
    cells to the true cell: one kilometer per hop, the convention of the
    synthetic worlds."""
    per_query = []
    for res, truth in zip(results, truths, strict=True):
        top = res.ranked[:top_n]
        per_query.append(sum(bfs_hops(d, truth, g) for d, _ in top) / len(top))
    return sum(per_query) / len(per_query)


def dests_from(model, s: int) -> list[int]:
    return sorted(model.start_counts.get(s, {}))


def transition_mass(model, a: int, b: int) -> float:
    """Total probability p(a -> b) summed over detour layers."""
    return float(model.totals[a, b])


def dest_given_start(model, d: int, s: int) -> float:
    """Empirical P(destination = d | start = s) from trip counts."""
    total = model.start_totals.get(s, 0)
    if total == 0:
        return 0.0
    return model.start_counts.get(s, {}).get(d, 0) / total


def score_destinations(model, s: int, lp: int):
    """(ranked, fallback) for start s and future location lp, one of them
    None: the scoring loop of predict_destination reading the model
    through the three helpers above, and its cold-start fallback reading
    totals one cell at a time."""
    scores: dict[int, float] = {}
    for d in dests_from(model, s):
        if d == s:
            continue
        p_sd = transition_mass(model, s, d)
        p_d_given_s = dest_given_start(model, d, s)
        if p_sd <= 0.0 or p_d_given_s <= 0.0:
            continue
        p_ld = 1.0 if d == lp else transition_mass(model, lp, d)
        scores[d] = p_ld * p_d_given_s / p_sd
    total = sum(scores.values())
    if not scores or total <= 0.0:
        fallback = [(d, float(model.totals[lp, d])) for d in range(model.n_cells)
                    if d != s and model.totals[lp, d] > 0.0]
        fb_total = sum(p for _, p in fallback)
        fallback = sorted(
            ((d, p / fb_total) for d, p in fallback), key=lambda kv: (-kv[1], kv[0])
        )
        return None, fallback
    ranked = sorted(((d, p / total) for d, p in scores.items()),
                    key=lambda kv: (-kv[1], kv[0]))
    return ranked, None
