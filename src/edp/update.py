"""Incremental model refresh after single-step probability changes.

When a cell's outgoing probabilities change, only trips whose routes can
pass through that cell within their detour budget are affected. Per
origin, the affected destinations form a region anchored at the changed
cell. Every origin with a non-empty region is re-run through the training
wavefront on the new single-step matrix, in the same batches training
uses, and only the in-region entries are written back; everything outside
the region keeps its stored value bitwise.

Two region constructions are provided. `paper` anchors each origin at its
nearest changed cell and grows the beyond-rectangle border by border, one
step per two units of detour. `exact` takes, per origin, every
destination whose best route through any changed cell fits the detour
budget; refreshing exactly that set provably reproduces full retraining.
In both modes the in-region entries are the retrained values; `paper`
mode differs from retraining only where its region misses an affected
entry, which then keeps its stale value.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .grid import neighbors
from .ingest import read_csv_rows
from .model import WAVEFRONT_BATCH, SSTPMatrix, TransitionModel, _wavefront_into, l1_matrix


@dataclass
class ChangeSet:
    """New outgoing probability rows for a set of cells, tagged by epoch."""

    epoch: int
    changed: dict[int, dict[int, float]]

    def validate(self, g: int) -> None:
        if not self.changed:
            raise ValueError("change set is empty")
        for cell, row in self.changed.items():
            if not 0 <= cell < g * g:
                raise ValueError(f"changed cell {cell} out of range for g={g}")
            if set(row) != set(neighbors(cell, g)):
                raise ValueError(f"cell {cell}: row must cover exactly its in-grid neighbors")
            total = sum(row.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"cell {cell}: new row sums to {total}")


def load_changeset(path, g: int) -> ChangeSet:
    """Read `epoch,cell_id,neighbor_cell_id,probability` rows."""
    changed: dict[int, dict[int, float]] = {}
    epoch = None
    for row in read_csv_rows(path, ("epoch", "cell_id", "neighbor_cell_id", "probability")):
        try:
            e = int(row["epoch"])
            cell = int(row["cell_id"])
            nbr = int(row["neighbor_cell_id"])
            p = float(row["probability"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed row {row}") from exc
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

    origins_recomputed counts origins whose wavefront was re-run;
    entries_recomputed counts the layer entries written back (affected
    pairs times stored layers), against entries_full for the whole model.
    """

    mode: str
    epoch: int
    origins_recomputed: int
    entries_recomputed: int
    entries_full: int
    wall_ms: float


def _affected_mask_exact(L: np.ndarray, changed_cells: list[int], max_detour: int) -> np.ndarray:
    """(n, n) mask of pairs whose best route via a changed cell fits the budget."""
    n = L.shape[0]
    via = np.full((n, n), np.iinfo(L.dtype).max, dtype=L.dtype)
    for c in changed_cells:
        np.minimum(via, L[:, c:c + 1] + L[c:c + 1, :], out=via)
    return via <= L + max_detour


def _affected_mask_paper(L: np.ndarray, changed_cells: list[int], max_detour: int,
                         g: int) -> np.ndarray:
    """(n, n) mask of the paper's border-growth region per origin.

    Each origin is anchored at its nearest changed cell, ties to the
    smallest id. Detour 0 covers the closed rectangle beyond the anchor;
    each two units of detour add one line across each border facing the
    origin. So j is in the region when the rows plus the columns it lies
    past the anchor, toward the origin, are at most max_detour // 2. A
    changed origin gets its whole row.
    """
    if max_detour < 0 or max_detour % 2 != 0:
        raise ValueError(f"max_detour must be even and >= 0, got {max_detour}")
    n = L.shape[0]
    changed = np.unique(changed_cells)
    anchor = changed[np.argmin(L[:, changed], axis=1)]
    budget = max_detour // 2
    # (n, g) per axis: how many lines each grid line lies past the anchor's,
    # toward the origin; an origin on the anchor's line allows only that line
    excess = []
    for origin, line in zip(np.divmod(np.arange(n), g), np.divmod(anchor, g)):
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

    The sstp argument is mutated to carry the new rows; a new model is
    returned, leaving the caller's model untouched for snapshot swapping.
    """
    if mode not in ("paper", "exact"):
        raise ValueError(f"unknown update mode {mode!r}")
    if model.g != sstp.g:
        raise ValueError(f"model g={model.g} does not match matrix g={sstp.g}")
    cs.validate(model.g)
    if cs.epoch <= model.epoch:
        raise ValueError(f"epoch {cs.epoch} does not advance model epoch {model.epoch}")
    t0 = time.perf_counter()
    for cell, row in cs.changed.items():
        sstp.replace_row(cell, row)
    g, n = model.g, model.n_cells
    L = l1_matrix(g)
    if mode == "exact":
        mask = _affected_mask_exact(L, sorted(cs.changed), model.max_detour)
    else:
        mask = _affected_mask_paper(L, sorted(cs.changed), model.max_detour, g)
    out = model.copy()
    out.epoch = cs.epoch
    origins = np.nonzero(mask.any(axis=1))[0]
    for lo in range(0, len(origins), WAVEFRONT_BATCH):
        batch = origins[lo:lo + WAVEFRONT_BATCH]
        fresh = np.zeros((model.n_layers, len(batch), n))
        _wavefront_into(fresh, sstp, batch, model.max_detour, L,
                        out_rows=np.arange(len(batch)))
        affected = mask[batch]
        out.layers[:, batch] = np.where(affected, fresh, out.layers[:, batch])
        out.totals[batch] = np.where(affected, fresh.sum(axis=0), out.totals[batch])
    stats = UpdateStats(
        mode=mode,
        epoch=cs.epoch,
        origins_recomputed=len(origins),
        entries_recomputed=int(mask.sum()) * model.n_layers,
        entries_full=n * n * model.n_layers,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return out, stats
