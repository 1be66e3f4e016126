"""Hypothesis strategies for garbled CSV input, shared by the parser and
change-set property tests, and for sparse single-step matrices."""

import csv
import io
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from edp.grid import neighbors, step_pairs
from edp.model import SSTPMatrix

GARBAGE = st.sampled_from(["", "nan", "inf", "-inf", "abc", "1,5", " 7 ", "1e3", "0x10",
                           '"q"', "1_0"])

# each column's values as a writer might emit them (an empty trip id
# included); a garbled row mixes in GARBAGE
TRAJECTORY_FIELDS = {
    "trip_id": st.sampled_from(["a", "b", "c,d", " a", "nan", ""]),
    "seq": st.integers(-2, 30).map(str),
    "timestamp": st.floats().map(repr),
    "lat": st.floats(-0.01, 0.04).map(repr),
    "lon": st.floats(-0.01, 0.04).map(repr),
}

CELL_IDS = st.integers(-1, 17).map(str)
CHANGESET_FIELDS = {
    "epoch": st.integers(0, 3).map(str),
    "cell_id": CELL_IDS,
    "neighbor_cell_id": CELL_IDS,
    "probability": st.one_of(st.sampled_from(["0.5", "0.25", "1.0", "0", "-0.5", "1.5", "nan",
                                              "inf", "-inf"]),
                             st.floats().map(repr)),
}


def _write(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@st.composite
def garbled_csv(draw, fields):
    """CSV text whose header permutes the columns of `fields` (name ->
    strategy of well-formed values), adds extra and repeated ones and now
    and then drops one. Rows are blank, short, long, clean, or garbled
    with GARBAGE values."""
    required = list(fields)
    columns = (required + draw(st.lists(st.sampled_from(["speed", "", "note"]), max_size=2))
               + draw(st.lists(st.sampled_from(required), max_size=2)))
    if draw(st.integers(0, 9)) == 0:
        columns.remove(draw(st.sampled_from(required)))
    header = draw(st.permutations(columns))
    rows = [header]
    for _ in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(["clean", "clean", "garbled", "blank", "short", "long"]))
        if shape == "blank":
            rows.append([])
            continue
        if shape == "garbled":
            row = [draw(st.one_of(fields.get(c, GARBAGE), GARBAGE)) for c in header]
        else:
            row = [draw(fields.get(c, GARBAGE)) for c in header]
        if shape == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(GARBAGE, min_size=1, max_size=3))
        rows.append(row)
    return _write(rows)


@st.composite
def corrupted_changeset(draw, g=4):
    """A change set of one cell's uniform row on a g x g grid, with one
    field of one row replaced by a drawn value."""
    cell = draw(st.integers(0, g * g - 1))
    nbrs = neighbors(cell, g)
    rows = [["epoch", "cell_id", "neighbor_cell_id", "probability"]]
    rows += [["1", str(cell), str(nbr), repr(1.0 / len(nbrs))] for nbr in nbrs]
    # the probability half the time: its checks are the ones a row can slip past
    column = draw(st.sampled_from(["probability"] * 3
                                  + ["epoch", "cell_id", "neighbor_cell_id"]))
    row = draw(st.integers(1, len(nbrs)))
    rows[row][rows[0].index(column)] = draw(st.one_of(CHANGESET_FIELDS[column], GARBAGE))
    return _write(rows)


# epochs a change set may hold, past the u64 the model file stores
EPOCHS = st.one_of(st.integers(0, 3), st.sampled_from([2**64 - 1, 2**64]),
                   st.integers(0, 2**70))
# the ways a row of a well-formed change set is spoilt
DEFECTS = ["repeat", "field", "probability", "off-grid", "epoch", "spelling"]
# spellings of an integer that int() reads and a CSV writer does not write
LOOSE_INTEGERS = ["+{}", "-{}", " {}", "{} ", "0_{}", "\u0660{}"]


@st.composite
def change_set_csv(draw, g=4):
    """A change-set CSV on a g x g grid: uniform rows for a few cells under
    one drawn epoch, then up to two defects, each a repeated pair, a
    malformed or empty field, a NaN, infinite or negative probability, a
    cell off the grid, a row of another epoch or an id or epoch spelt in a
    way int() reads but a CSV writer does not write."""
    epoch = str(draw(EPOCHS))
    rows = []
    for cell in draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=3, unique=True)):
        nbrs = neighbors(cell, g)
        rows += [[epoch, str(cell), str(nbr), repr(1.0 / len(nbrs))] for nbr in nbrs]
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        row = draw(st.sampled_from(rows))
        if defect == "repeat":
            again = [*row[:3], draw(st.sampled_from([row[3], "0.5", "0.9"]))]
            rows.insert(draw(st.integers(0, len(rows))), again)
        elif defect == "field":
            row[draw(st.integers(0, 3))] = draw(GARBAGE)
        elif defect == "probability":
            row[3] = draw(st.sampled_from(["nan", "inf", "-inf", "-0.5", "-0.0"]))
        elif defect == "off-grid":
            row[draw(st.integers(1, 2))] = str(draw(st.sampled_from([-1, g * g, 2**40])))
        elif defect == "spelling":
            field = draw(st.integers(0, 2))
            row[field] = draw(st.sampled_from(LOOSE_INTEGERS)).format(row[field])
        else:
            row[0] = str(draw(EPOCHS))
    return _write([["epoch", "cell_id", "neighbor_cell_id", "probability"], *rows])


@st.composite
def sparse_sstp(draw, g):
    """A single-step matrix on a g x g grid whose moves are zeroed at
    random, and into some cells no move at all, normalized by
    SSTPMatrix.from_weights. A cell left with no move keeps one to a cell
    that is still entered where it has one, so the uniform backfill does
    not enter the closed cells again."""
    n = g * g
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src, dst, direction = step_pairs(g)
    weights = np.zeros((n, 4))
    weights[src, direction] = rng.random(src.size) + 0.05
    weights[src, direction] *= rng.random(src.size) >= draw(st.sampled_from([0.2, 0.4, 0.6]))
    closed = draw(st.lists(st.integers(0, n - 1), max_size=max(1, n // 8), unique=True))
    into_closed = np.isin(dst, closed)
    weights[src[into_closed], direction[into_closed]] = 0.0
    for cell in np.flatnonzero(weights.sum(axis=1) == 0):
        open_moves = np.flatnonzero((src == cell) & ~into_closed)
        if open_moves.size:
            weights[cell, direction[rng.choice(open_moves)]] = 1.0
    return SSTPMatrix.from_weights(g, weights)


@contextmanager
def text_file(text):
    """The path of a temporary file holding `text` as written, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        yield path
