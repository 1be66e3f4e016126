"""Incremental model refresh after single-step probability changes.

When a cell's outgoing probabilities change, an entry of the model can
move only when some walk it counts enters a changed cell and leaves it.
Walks here step along the moves that can carry probability: a move with
nonzero probability in the refreshed matrix, or any in-grid move out of a
changed cell. For a pair (o, j) those are the entries from one layer up,
its first affected layer, which follows from the shortest walks into and
out of each changed cell. On a matrix whose every in-grid move is nonzero
it is the closed form in the rows and columns by which the changed cells
lie outside the o-j rectangle. The refresh runs the training recursion
(`model._ring_recursion`) on the new single-step matrix over exactly the
entries at or above that layer and reads every other entry as stored. An
entry below it already holds its retrained value bit for bit, so the
result equals full retraining bitwise. Totals are added again only at the
refreshed pairs, in training's order.

`refresh_in_place(model, cs)` is the one refresh: it reads the model's
own single-step matrix, then writes into its layers and totals, so its
cost follows the entries it recomputes. `edp update` uses it on the model
it loaded. `apply_update` runs it on a copy for callers that swap
snapshots, and checks and updates the matrix they keep beside the model.

Two modes are provided. `exact` refreshes every entry a change can move.
`paper` is the exact pass plus a write-back: its region anchors each
origin at its nearest changed cell and grows the beyond-rectangle border
by border, one step per two units of detour, and the stored entries of
the affected pairs outside it are saved before the pass and written back
after, so it reports the exact pass's counts. In-region entries are the
retrained values; an affected entry the region misses keeps its stale
value, and a later `exact` refresh, which recomputes only what its own
change can move, leaves it so: neither mode equals retraining after that.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .grid import DIRECTIONS, check_row, step_mask
from .ingest import read_csv_rows
from .model import (SSTPMatrix, TransitionModel, _ring_recursion, check_in_place,
                    detour_layers, sum_layers)

# Totals are added again at the refreshed pairs while they are fewer than
# this share of all pairs, and over the whole stack above it: per pair, a
# gather costs about five times a whole-stack add (g = 16 to 50).
PAIR_SUM_SHARE = 0.2


@dataclass
class ChangeSet:
    """New outgoing probability rows for a set of cells, tagged by epoch."""

    epoch: int
    changed: dict[int, dict[int, float]]

    def validate(self, g: int) -> None:
        if not 0 <= self.epoch < 2**64:
            # the model file stores the epoch as u64
            raise ValueError(f"epoch {self.epoch} lies outside 0..2**64-1")
        if not self.changed:
            raise ValueError("change set is empty")
        for cell, row in self.changed.items():
            check_row(cell, row, g)


def _plain_int(field: str | None) -> int:
    """A field of ASCII decimal digits as an int. Anything else raises
    ValueError, even what int() reads: a sign, spaces, underscores or
    digits of other scripts; so does a field missing from a short row."""
    if not (field and field.isascii() and field.isdigit()):
        raise ValueError(f"not a plain decimal integer: {field!r}")
    return int(field)


def load_changeset(path, g: int) -> ChangeSet:
    """Read `epoch,cell_id,neighbor_cell_id,probability` rows. Ids and the
    epoch are plain ASCII decimal digits."""
    changed: dict[int, dict[int, float]] = {}
    epoch = None
    for row in read_csv_rows(path, ("epoch", "cell_id", "neighbor_cell_id", "probability")):
        try:
            e, cell, nbr = map(_plain_int, row[:3])
            p = float(row[3])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed row {list(row)}") from exc
        if epoch is None:
            epoch = e
        elif e != epoch:
            raise FormatError(f"{path}: mixed epochs {epoch} and {e}")
        row = changed.setdefault(cell, {})
        if nbr in row:
            raise FormatError(f"{path}: cell {cell} lists neighbor {nbr} twice")
        row[nbr] = p
    if epoch is None:
        raise FormatError(f"{path}: no change rows")
    cs = ChangeSet(epoch, changed)
    cs.validate(g)
    return cs


@dataclass
class UpdateStats:
    """What one refresh did.

    entries_recomputed counts the (layer, pair) entries the recursion
    computed, in either mode, against entries_full for the whole model;
    origins_recomputed counts the origins with at least one such entry.
    Both count only entries that a walk along the moves which can carry
    probability joins to a changed cell, so a sparse matrix recomputes
    fewer than the grid alone allows.
    """

    mode: str
    epoch: int
    origins_recomputed: int
    entries_recomputed: int
    entries_full: int
    wall_ms: float


def _step(cells: int, moves: list[tuple[int, int]]) -> int:
    """The cells one move from the bit set `cells` (bit i for cell i).
    Each move is (sources, shift): from a cell in the bit set `sources`
    it adds `shift` to the cell id."""
    reached = 0
    for sources, shift in moves:
        at = cells & sources
        reached |= at << shift if shift > 0 else at >> -shift
    return reached


def _walk_lengths(moves: list[tuple[int, int]], start: int, length: int, cap: int,
                  n: int) -> np.ndarray:
    """(n,) int16: the fewest `moves` to each of the n cells, with the bit
    set `start` reached in `length` moves; cap where that takes cap moves
    or more. A breadth-first search over bit sets, one level per move."""
    seen = frontier = start
    levels = [start]    # the cells reached in at most length + i moves
    while frontier and length + len(levels) < cap:
        frontier = _step(frontier, moves) & ~seen
        seen |= frontier
        levels.append(seen)
    size = (n + 7) // 8
    reached = np.unpackbits(
        np.frombuffer(b"".join(level.to_bytes(size, "little") for level in levels),
                      np.uint8).reshape(len(levels), size),
        axis=1, count=n, bitorder="little")
    # a cell reached in length + i moves is missing from the first i sets
    return np.where(reached[-1], length + len(levels) - reached.sum(axis=0),
                    cap).astype(np.int16)


def _first_affected_layer(sstp: SSTPMatrix, changed_cells: list[int],
                          n_layers: int) -> np.ndarray:
    """(n, n) int16 first[o, j]: the lowest layer whose (o, j) entry a
    change can move, or n_layers where none can. sstp is the refreshed
    matrix.

    A walk steps along a move with P(m -> m') != 0 in sstp, or along any
    in-grid move out of a changed cell (its old row may have used it).
    For changed c let l_in(o, c) be the shortest walk from o to c (0 for
    o = c) and l_out(c, j) the shortest walk that leaves c and ends at j
    (a return walk for j = c). Then first[o, j] is the least, over
    changed c, of (l_in(o, c) + l_out(c, j) - L(o, j)) / 2; a pair that no
    walk joins gets n_layers. When every in-grid move is nonzero the walks
    are L1 distances and the return walk is 2, so this is the rows plus
    the columns by which c lies outside the o-j rectangle, and 1 for j = c.

    Why every entry below first is bitwise as stored: entry (k, o, j) is
    a sum of terms value(m) * P(m -> j) (see model._ring_recursion). A
    term can change only if m is a changed cell whose (o, m) entry is
    nonzero before or after the change, or if m's entry changes and
    P(m -> j) != 0. By induction over the recursion, either case needs a
    walk of length L(o, j) + 2k from o that enters a changed cell, leaves
    it and ends at j, which first[o, j] <= k says exists. The stored
    value is the retrained one for any model made by train_initial or by
    exact refreshes. The entries recomputed depend only on the matrix and
    the change set, never on stored values.
    """
    g, n = sstp.g, sstp.n_cells
    inside = step_mask(g)
    # movable[r, c, d]: the move DIRECTIONS[d] out of cell (r, c) can carry
    # probability
    movable = (sstp.probs != 0) & inside
    rows, cols = np.divmod(changed_cells, g)
    movable[rows, cols] = inside[rows, cols]
    forward = []
    for d, (dr, dc) in enumerate(DIRECTIONS):
        sources = np.packbits(movable[:, :, d].ravel(), bitorder="little").tobytes()
        forward.append((int.from_bytes(sources, "little"), dr * g + dc))
    # a move backwards starts where the forward move ends
    backward = [(_step(sources, [(sources, shift)]), -shift) for sources, shift in forward]
    # a walk of cap moves or more lies n_layers or more layers above any
    # pair's distance, so it is cut there and every sum fits int16
    cap = 2 * (g - 1) + 2 * n_layers
    shortest = walks = None
    for c in changed_cells:
        walks = np.add.outer(_walk_lengths(backward, 1 << c, 0, cap, n),
                             _walk_lengths(forward, _step(1 << c, forward), 1, cap, n),
                             out=walks)
        if shortest is None:
            shortest, walks = walks, None
        else:
            np.minimum(shortest, walks, out=shortest)
    # less L(o, j): per row of origins, the rows to each j, then for each
    # origin in it the columns to each j
    line = np.arange(g, dtype=np.int16)
    j_row, j_col = np.divmod(np.arange(n, dtype=np.int16), g)
    origin_rows = shortest.reshape(g, g, n)
    origin_rows -= np.abs(line[:, None] - j_row)[:, None, :]
    origin_rows -= np.abs(line[:, None] - j_col)
    shortest >>= 1
    return np.minimum(shortest, n_layers, out=shortest)


def _affected_mask_paper(changed_cells: list[int], max_detour: int, g: int) -> np.ndarray:
    """(n, n) mask of the paper's border-growth region per origin.

    Each origin is anchored at its nearest changed cell, ties to the
    smallest id. Detour 0 covers the closed rectangle beyond the anchor;
    each two units of detour add one line across each border facing the
    origin. So j is in the region when the rows plus the columns it lies
    past the anchor, toward the origin, are at most max_detour // 2. A
    changed origin gets its whole row.
    """
    budget = detour_layers(max_detour) - 1
    n = g * g
    # sorted, so argmin's first minimum is the smallest id; np.unique would
    # import numpy.ma on a process's first call (about 15 ms)
    changed = np.array(sorted(set(changed_cells)))
    rows, cols = np.divmod(np.arange(n), g)
    anchor = changed[np.argmin(np.abs(rows[:, None] - changed // g)
                               + np.abs(cols[:, None] - changed % g), axis=1)]
    # (n, g) per axis: how many lines each grid line lies past the anchor's,
    # toward the origin; an origin on the anchor's line allows only that line
    excess = []
    for origin, line in zip((rows, cols), np.divmod(anchor, g)):
        toward = np.sign(origin - line)[:, None]
        offset = np.arange(g) - line[:, None]
        excess.append(np.where(toward == 0, np.where(offset == 0, 0, budget + 1),
                               np.maximum(offset * toward, 0)))
    row_excess, col_excess = excess
    mask = (row_excess[:, :, None] <= budget - col_excess[:, None, :]).reshape(n, n)
    mask[changed] = True
    return mask


def refresh_in_place(model: TransitionModel, cs: ChangeSet, mode: str = "exact") -> UpdateStats:
    """Refresh the model's own layers and totals after the change set's
    rows replace the old ones, and advance its epoch.

    The layers and totals must pass model.check_in_place, or ValueError is
    raised before anything changes. The candidate tables are cleared,
    since they cache totals.
    """
    if mode not in ("paper", "exact"):
        raise ValueError(f"unknown update mode {mode!r}")
    cs.validate(model.g)
    if cs.epoch <= model.epoch:
        raise ValueError(f"epoch {cs.epoch} does not advance model epoch {model.epoch}")
    check_in_place(model.layers, "layers")
    check_in_place(model.totals, "totals")
    t0 = time.perf_counter()
    sstp = model.single_step()
    for cell, row in cs.changed.items():
        sstp.replace_row(cell, row)
    n_layers, n = model.n_layers, model.n_cells
    changed = sorted(cs.changed)
    first = _first_affected_layer(sstp, changed, n_layers)
    pairs = np.flatnonzero(first < n_layers)
    levels = first.reshape(-1)[pairs]
    rows = model.layers.reshape(n_layers, -1)
    stale = pairs[:0]    # paper mode writes back the stored entries outside its region
    if mode == "paper":
        stale = pairs[~_affected_mask_paper(changed, model.max_detour, model.g).reshape(-1)[pairs]]
    stored = rows[:, stale]
    _ring_recursion(model.layers, sstp, pairs, levels)
    rows[:, stale] = stored
    # an entry left or written back as stored adds to its stored total, bit for bit
    totals = model.totals.reshape(-1)
    if pairs.size < PAIR_SUM_SHARE * n * n:
        totals[pairs] = sum_layers(model.layers, pairs)
    else:
        sum_layers(model.layers, out=totals)
    model.epoch = cs.epoch
    model._candidates.clear()
    # pairs ascend, so origin o's are pairs[bounds[o]:bounds[o + 1]]
    bounds = np.searchsorted(pairs, np.arange(n + 1) * n)
    return UpdateStats(
        mode=mode,
        epoch=cs.epoch,
        origins_recomputed=int(np.count_nonzero(np.diff(bounds))),
        entries_recomputed=int(n_layers * pairs.size - levels.sum()),
        entries_full=n * n * n_layers,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )


def apply_update(model: TransitionModel, sstp: SSTPMatrix, cs: ChangeSet,
                 mode: str = "exact") -> tuple[TransitionModel, UpdateStats]:
    """refresh_in_place on a copy of the model, returned with what the
    refresh did, for callers that keep a single-step matrix beside their
    snapshots. sstp must equal `model.single_step()` outside the changed
    cells, or ValueError is raised before the model or sstp changes; the
    change set's rows are then written into it. wall_ms includes the copy.
    """
    t0 = time.perf_counter()
    if model.g != sstp.g:
        raise ValueError(f"model g={model.g} does not match matrix g={sstp.g}")
    differ = np.flatnonzero(np.any(sstp.probs != model.single_step().probs, axis=2))
    stale = [cell for cell in differ.tolist() if cell not in cs.changed]
    if stale:
        raise ValueError(f"single-step rows of cells {stale[:5]} "
                         "differ from the model's, outside the change set")
    out = model.copy()
    stats = refresh_in_place(out, cs, mode)
    for cell, row in cs.changed.items():
        sstp.replace_row(cell, row)
    stats.wall_ms = (time.perf_counter() - t0) * 1e3
    return out, stats
