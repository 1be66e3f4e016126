"""Incremental model refresh after single-step probability changes.

When a cell's outgoing probabilities change, an entry of the model is
affected only when one of the routes it counts leaves that cell. For a
pair (o, j) those are the entries from one layer up, its first affected
layer, a closed form in the rows and columns by which the changed cells
lie outside the o-j rectangle. The refresh runs the training recursion
(`model._ring_recursion`) on the new single-step matrix over exactly the
entries at or above that layer and reads every other entry as stored. An
unaffected entry already holds its retrained value bit for bit, so the
result equals full retraining bitwise.

Two modes are provided. `exact` refreshes every affected entry. `paper`
anchors each origin at its nearest changed cell and grows the
beyond-rectangle border by border, one step per two units of detour; it
runs the exact pass and then puts the old values back outside its own
region. So in-region entries are the retrained values, and `paper` mode
differs from retraining only where its region misses an affected entry,
which then keeps its stale value.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .grid import check_row
from .ingest import read_csv_rows
from .model import SSTPMatrix, TransitionModel, _ring_recursion, detour_layers, sum_layers


@dataclass
class ChangeSet:
    """New outgoing probability rows for a set of cells, tagged by epoch."""

    epoch: int
    changed: dict[int, dict[int, float]]

    def validate(self, g: int) -> None:
        if not self.changed:
            raise ValueError("change set is empty")
        for cell, row in self.changed.items():
            check_row(cell, row, g)


def load_changeset(path, g: int) -> ChangeSet:
    """Read `epoch,cell_id,neighbor_cell_id,probability` rows."""
    changed: dict[int, dict[int, float]] = {}
    epoch = None
    for row in read_csv_rows(path, ("epoch", "cell_id", "neighbor_cell_id", "probability")):
        try:
            e, cell, nbr, p = int(row[0]), int(row[1]), int(row[2]), float(row[3])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed row {list(row)}") from exc
        if epoch is None:
            epoch = e
        elif e != epoch:
            raise FormatError(f"{path}: mixed epochs {epoch} and {e}")
        changed.setdefault(cell, {})[nbr] = p
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
    origins with at least one such entry.
    """

    mode: str
    epoch: int
    origins_recomputed: int
    entries_recomputed: int
    entries_full: int
    wall_ms: float


def _first_affected_layer(g: int, changed_cells: list[int]) -> np.ndarray:
    """(n, n) first[o, j]: the lowest layer whose (o, j) entry a change reaches.

    Entry k of (o, j) counts the routes of length L(o, j) + 2k, so it uses
    cell c's row when some such route leaves c: L(o, c) + L(c, j) <= L(o, j)
    + 2k. Half that excess is the rows plus the columns by which c lies
    outside the o-j rectangle. A route that ends at c leaves it only after
    a return trip, so column c starts at layer 1. Every entry below first
    is bitwise its retrained value.
    """
    a = np.arange(g, dtype=np.int16)
    lo, hi = np.minimum.outer(a, a), np.maximum.outer(a, a)
    first = None
    for c in changed_cells:
        outside = [np.maximum(lo - x, 0) + np.maximum(x - hi, 0) for x in divmod(c, g)]
        layer = (outside[0][:, None, :, None] + outside[1][None, :, None, :]).reshape(g * g, g * g)
        layer[:, c] = 1
        first = layer if first is None else np.minimum(first, layer, out=first)
    return first


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
    untouched for snapshot swapping.
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
    first = _first_affected_layer(g, changed)
    out = model.copy()
    out.epoch = cs.epoch
    _ring_recursion(out.layers, sstp, first)
    mask = first < model.n_layers
    pairs = np.flatnonzero(mask)
    np.put(out.totals, pairs, sum_layers(out.layers, pairs))
    if mode == "paper":
        region = _affected_mask_paper(changed, model.max_detour, g)
        stale = mask & ~region
        out.layers[:, stale] = model.layers[:, stale]
        out.totals[stale] = model.totals[stale]
        mask &= region
    stats = UpdateStats(
        mode=mode,
        epoch=cs.epoch,
        origins_recomputed=int(mask.any(axis=1).sum()),
        entries_recomputed=int((model.n_layers - first[mask]).sum()),
        entries_full=n * n * model.n_layers,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return out, stats
