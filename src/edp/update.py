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
result equals full retraining bitwise.

Two modes are provided. `exact` refreshes every entry a change can move.
`paper` anchors each origin at its nearest changed cell and grows the
beyond-rectangle border by border, one step per two units of detour; it
runs the exact pass and then puts the old values back outside its own
region. So in-region entries are the retrained values, and `paper` mode
differs from retraining only where its region misses an affected entry,
which then keeps its stale value. A later `exact` refresh recomputes only
the entries its own change can move, so it leaves those stale entries as
they are: neither mode equals retraining once a `paper` refresh has run.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError
from .grid import check_row, step_pairs
from .ingest import read_csv_rows
from .model import SSTPMatrix, TransitionModel, _ring_recursion, detour_layers, sum_layers


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

    entries_recomputed counts the (layer, pair) entries the refresh
    recomputed, in paper mode only those inside its region, against
    entries_full for the whole model; origins_recomputed counts the
    origins with at least one such entry. Both count only entries that a
    walk along the moves which can carry probability joins to a changed
    cell, so a sparse matrix recomputes fewer than the grid alone allows.
    """

    mode: str
    epoch: int
    origins_recomputed: int
    entries_recomputed: int
    entries_full: int
    wall_ms: float


def _walk_lengths(neighbours: list[list[int]], start: list[int], length: int,
                  cap: int) -> np.ndarray:
    """(n,) int16: the fewest moves along `neighbours` to each cell, with
    the cells of `start` reached in `length` moves; cap where that takes
    cap moves or more."""
    dist = [cap] * len(neighbours)
    for cell in start:
        dist[cell] = length
    frontier = start
    while frontier and length < cap - 1:
        length += 1
        reached = []
        for a in frontier:
            for b in neighbours[a]:
                if dist[b] == cap:
                    dist[b] = length
                    reached.append(b)
        frontier = reached
    return np.array(dist, dtype=np.int16)


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
    src, dst, direction = step_pairs(g)
    movable = sstp.probs.reshape(n, 4)[src, direction] != 0
    movable |= np.isin(src, changed_cells)
    successors: list[list[int]] = [[] for _ in range(n)]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(src[movable].tolist(), dst[movable].tolist()):
        successors[a].append(b)
        predecessors[b].append(a)
    # a walk of cap moves or more lies n_layers or more layers above any
    # pair's distance, so it is cut there and every sum fits int16
    cap = 2 * (g - 1) + 2 * n_layers
    shortest = None
    for c in changed_cells:
        walks = np.add.outer(_walk_lengths(predecessors, [c], 0, cap),
                             _walk_lengths(successors, successors[c], 1, cap))
        shortest = walks if shortest is None else np.minimum(shortest, walks, out=shortest)
    a = np.arange(g, dtype=np.int16)
    dist = np.abs(a - a[:, None])
    shortest -= (dist[:, None, :, None] + dist[None, :, None, :]).reshape(n, n)
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
    changed = np.unique(changed_cells)
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


def apply_update(model: TransitionModel, sstp: SSTPMatrix, cs: ChangeSet,
                 mode: str = "exact") -> tuple[TransitionModel, UpdateStats]:
    """Refresh the model after the change set's rows replace the old ones.

    sstp must equal `model.single_step()` outside the changed cells, or
    ValueError is raised before anything changes. It is mutated to carry
    the new rows; a new model is returned, leaving the caller's model
    untouched for snapshot swapping. It shares the trip counts, which a
    refresh never changes.
    """
    if mode not in ("paper", "exact"):
        raise ValueError(f"unknown update mode {mode!r}")
    if model.g != sstp.g:
        raise ValueError(f"model g={model.g} does not match matrix g={sstp.g}")
    cs.validate(model.g)
    if cs.epoch <= model.epoch:
        raise ValueError(f"epoch {cs.epoch} does not advance model epoch {model.epoch}")
    differ = np.any(sstp.probs != model.single_step().probs, axis=2).ravel()
    differ[list(cs.changed)] = False
    if differ.any():
        raise ValueError(f"single-step rows of cells {np.flatnonzero(differ)[:5].tolist()} "
                         "differ from the model's, outside the change set")
    t0 = time.perf_counter()
    for cell, row in cs.changed.items():
        sstp.replace_row(cell, row)
    g, n = model.g, model.n_cells
    changed = sorted(cs.changed)
    first = _first_affected_layer(sstp, changed, model.n_layers)
    layers = model.layers.copy()
    _ring_recursion(layers, sstp, first)
    mask = first < model.n_layers
    if mode == "paper":
        region = _affected_mask_paper(changed, model.max_detour, g)
        stale = mask & ~region
        layers[:, stale] = model.layers[:, stale]
        mask &= region
    # an entry left as stored adds to its stored total, bit for bit
    out = replace(model, layers=layers, totals=sum_layers(layers).reshape(n, n),
                  epoch=cs.epoch)
    stats = UpdateStats(
        mode=mode,
        epoch=cs.epoch,
        origins_recomputed=int(mask.any(axis=1).sum()),
        entries_recomputed=int((model.n_layers - first[mask]).sum()),
        entries_full=n * n * model.n_layers,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return out, stats
