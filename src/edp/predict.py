"""Online destination queries.

Given the traveled prefix of a trip, the pipeline estimates the total trip
distance from the historical distance distribution, shrinks it by a
logarithmic decay into a forward path budget, walks the history index to
the most probable future location, and ranks candidate destinations by

    score(d) = p(future -> d) * P(d | start) / p(start -> d)

normalized over the candidates that the start's trip history supports.
"""

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ColdStartError
from .grid import GridMap
from .ingest import CellPath, TripDistanceHistogram
from .model import TransitionModel


class DistanceEstimate(NamedTuple):
    km: float
    extrapolated: bool


def estimate_total_distance(h: TripDistanceHistogram, d_t: float) -> DistanceEstimate:
    """Expected total trip distance given d_t kilometers already traveled.

    Bins entirely below d_t are ruled out; the remaining bins keep their
    full mass and the expectation renormalizes over them, so d_t = 0
    reproduces the unconditional expectation exactly. Past the histogram's
    support the estimate degrades to d_t itself, flagged. The surviving
    bins are always a suffix, so the sums come from the histogram's
    precomputed suffix tables.
    """
    if not math.isfinite(d_t):
        raise ValueError("traveled distance must be finite")
    if d_t < 0:
        raise ValueError("traveled distance cannot be negative")
    if h.total == 0:
        raise ValueError("empty histogram")
    first = bisect_right(h.upper_edges, d_t)
    mass = h.suffix_mass[first]
    if mass == 0:
        return DistanceEstimate(d_t, True)
    return DistanceEstimate(h.suffix_num[first] / mass, False)


def predicted_length(e_total: float, d_t: float, alpha: float = 0.004) -> float:
    """Forward path budget D_p = E * log_alpha(d_t / E), clamped to the
    remaining distance. Shrinks to zero as the trip completes."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("decay factor must be in (0, 1)")
    if e_total <= 0:
        raise ValueError("estimated total must be positive")
    if d_t <= 0:
        raise ValueError("logarithmic decay undefined at d_t = 0")
    ratio = d_t / e_total     # 0.0 when it underflows: then the log's limit, -inf
    dp = e_total * math.log(ratio) / math.log(alpha) if ratio > 0.0 else math.inf
    return min(max(dp, 0.0), max(e_total - d_t, 0.0))


class FutureLocation(NamedTuple):
    cell: int
    steps: int
    no_match: bool


Gram = tuple[int, ...]


class _Grams(NamedTuple):
    """A HistoryIndex's grams as numpy arrays. Per gram id (0 is the root):
    its parent's id, and head, its slots being head[id]:head[id + 1], which
    rank its pairs by count, then cell. Per slot: count, and pair = code *
    stride + ext, where code is 0 for STOP, else the cell's rank + 1, and
    ext is the deepest gram of (gram + (cell,))[-max_gram:], 0 for STOP.
    lengths: the first id of each length, then stride. cells: by code."""
    parent: np.ndarray
    head: np.ndarray
    pair: np.ndarray
    count: np.ndarray
    lengths: list[int]
    cells: np.ndarray


class HistoryIndex:
    """Suffix-gram index over historical cell paths, walked gram to gram.

    Maps each window of up to max_gram cells, a gram, to the cells seen
    right after it, with their counts; a trip ending there is a stop vote
    (STOP), so the walk can halt where journeys finish. build keeps each
    gram as an integer id (see _Grams). Its parent is the gram without its
    first cell, and the child map takes first cell * stride + parent id to
    its id. Every window length is indexed, so a gram's parent chain is
    the gram and all its suffixes, and a context's deepest (longest)
    indexed suffix grows leftward from the root, one lookup per cell. A
    context tail that is a whole gram is then kept in a map from its cells
    to its id, one entry per gram at most, so its next search is one.

    A vote pools only the deepest gram and its suffixes, so the walk is an
    automaton over gram ids. If G is the deepest gram of a context and v
    its vote, the deepest gram of the context extended by v is that of
    (G + (v,))[-max_gram:]: an indexed S + (v,) has its prefix S indexed,
    so S is a suffix of G. Each step is one hop (k, gram id) -> (vote,
    next gram id), next id 0 on a stop vote. The first query with a k
    makes the hop of every gram in one array pass (see _hop_tables), kept
    as two int64 arrays. Queries add tables and map entries but change
    none, so concurrent queries under CPython's GIL at worst build a
    table twice, of equal values.
    """

    STOP = -1

    def __init__(self, max_gram: int = 8):
        if max_gram < 1:
            raise ValueError(f"max_gram must be >= 1, got {max_gram}")
        self.max_gram = max_gram
        self._child: dict[int, int] = {}       # first cell * stride + parent id -> id
        self._stride = 1                       # one past the largest gram id
        self._grams: _Grams | None = None      # None when no cell is indexed
        self._ids: dict[Gram, int] = {}        # context tails that are whole grams
        self._hops: dict[int, tuple[array, array]] = {}   # k -> (votes, next ids)

    @classmethod
    def build(cls, paths: list[CellPath], max_gram: int = 8) -> "HistoryIndex":
        """Index every window of up to max_gram cells of every path, in
        array passes (see _gram_tables). Cells must be >= 0, since -1 is
        STOP, and below 2**63, as the passes count in int64."""
        idx = cls(max_gram)
        tables = _gram_tables([path.cells for path in paths], max_gram)
        if tables is not None:
            idx._child, idx._stride, idx._grams = tables
        return idx

    def deepest(self, cells) -> int | None:
        """The id of the longest suffix of `cells`, at most max_gram long,
        that the index holds; None when not even the last cell is indexed."""
        tail = tuple(cells[-self.max_gram:])
        gram = self._ids.get(tail)
        if gram is not None:
            return gram
        child, stride = self._child.get, self._stride
        gram = 0
        for cell in reversed(tail):
            longer = child(cell * stride + gram)
            if longer is None:
                return gram or None
            gram = longer
        if gram:
            self._ids[tail] = gram
        return gram or None

    def continuation(self, cells, k: int) -> tuple[int, int] | None:
        """The hop from the context's deepest gram, (vote, next gram id),
        or None when no suffix matches. The vote is the majority next cell,
        or STOP, among the k best suffix matches, which rank by suffix
        length, then count, then cell: the quota pools down to shorter
        suffixes when longer ones are rare. Ties go to the smaller cell."""
        gram = self.deepest(cells)
        if gram is None:
            return None
        tables = self._hops.get(k)
        if tables is None:
            tables = self._hops[k] = _hop_tables(self._grams, k)
        return tables[0][gram], tables[1][gram]


def _gram_tables(seqs: list[list[int]], max_gram: int):
    """The tables of a HistoryIndex over every gram of length 1..max_gram:
    (child map, stride, _Grams), or None when there are no cells.

    One array pass per length w over all cells, concatenated, with cells
    replaced by their ranks. Each window ending at position p has a local
    id among length w's grams. A continuation is coded local id *
    (n_cells + 1) + (next cell's rank + 1, or 0 for STOP), and one
    np.unique counts each code. A code that is not a STOP is also the
    window of length w + 1 ending at p + 1 (at length max_gram, its
    extension is the window of that length ending at p + 1), so its rank
    among the codes that are not STOPs is that window's local id, and
    every id names a gram. Codes stay under n * (n_cells + 1) for n cells
    in all, int32 where that fits. A gram's id is its local id plus the
    local ids of all shorter lengths plus one, for the root; its parent's
    id is the previous pass's id of the window ending at the same
    position. The child map's keys and ids are plain Python ints.
    """
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    n = int(lengths.sum())
    if n == 0:
        return None
    try:
        cells = np.fromiter(chain.from_iterable(seqs), np.int64, n)
    except OverflowError:
        cells = None
    if cells is None or cells.min() < 0:
        bad = next(c for c in chain.from_iterable(seqs) if not 0 <= c < 2**63)
        raise ValueError(f"cannot index cell {bad}: cells must be >= 0 and below 2**63")
    labels, rank = np.unique(cells, return_inverse=True)
    radix = len(labels) + 1
    code = np.int32 if n * radix <= np.iinfo(np.int32).max else np.int64
    ends = np.cumsum(lengths)
    follow = np.empty(n, code)
    follow[:-1] = rank[1:]
    follow += 1
    follow[ends[lengths > 0] - 1] = 0
    at = np.arange(n, dtype=code)      # where each window of length w ends
    ids = rank.astype(code)            # and its local id, below n_ids
    n_ids = radix - 1
    del rank, lengths, ends
    pos_id = np.empty(n, code)         # each position's local id one length down
    base = 1                           # the global id of local id 0
    firsts, parents, heads, nxts, counts, exts, starts = [], [], [], [], [], [], []
    slots = 0
    for w in range(1, max_gram + 1):
        nexts = follow[at]
        keyed, inv, count = np.unique(ids * radix + nexts, return_inverse=True,
                                      return_counts=True)
        gram, nxt = np.divmod(keyed, radix)
        # stable, and keyed is ascending: a tie in count keeps cells ascending
        order = np.lexsort((-count, gram))
        nxts.append(nxt[order])
        counts.append(count[order])
        width = np.bincount(gram)
        heads.append(slots + np.cumsum(width) - width)
        slots += len(keyed)
        starts.append(base)
        end = np.empty(n_ids, code)        # where one window of each gram ends
        end[ids] = at
        firsts.append(cells[end - (w - 1)])
        parents.append(pos_id[end] + np.int64(prev_base) if w > 1 else np.zeros(n_ids, code))
        pos_id[at] = ids
        prev_base, base = base, base + n_ids
        grows, named = nexts != 0, nxt != 0
        rank = np.cumsum(named) - 1
        if w < max_gram:    # a code that is not a STOP is the next length's gram of its rank
            ext = np.where(named, rank + base, 0)
        else:               # or, at the last length, the window of that length ending next
            ext = np.zeros(len(keyed), np.int64)
            ext[inv[grows]] = pos_id[at[grows] + 1] + np.int64(prev_base)
        exts.append(ext[order])
        at, ids, n_ids = at[grows] + 1, rank[inv[grows]].astype(code), int(rank[-1]) + 1
        if not len(at):
            break
    stride = base
    pair = np.concatenate(nxts) * np.int64(stride) + np.concatenate(exts)
    del nxts, exts
    head = np.concatenate([[0], *heads, [slots]])
    first = np.concatenate(firsts)
    parent = np.concatenate([[0], *parents])
    del firsts, parents, heads
    if labels[-1] < (2**63 - 1) // stride:
        keys = first * stride + parent[1:]
    else:      # the keys would overflow int64: make them Python ints
        keys = first.astype(object) * stride + parent[1:].astype(object)
    child = dict(zip(keys.tolist(), range(1, stride)))
    return child, stride, _Grams(parent, head, pair, np.concatenate(counts), starts + [stride],
                                 np.concatenate(([HistoryIndex.STOP], labels)))


def _hop_tables(grams: _Grams, k: int) -> tuple[array, array]:
    """The hop of every gram for k, (votes, next ids), indexed by gram id.

    A gram pools its own pairs in rank order, then its parent's pooled
    pairs, until k votes are in. So its row lists the pairs it pools with
    the votes taken up to each: its own that take a vote, then its parent's
    row with the votes shifted by its own and capped at k, at most k pairs
    that take one. Rows are made a length at a time, in one pass from the
    rows one length down, and voted on (see _votes).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    parent, head, pair, count, lengths, cells = grams
    stride = lengths[-1]
    votes, nexts = array("q", bytes(8 * stride)), array("q", bytes(8 * stride))
    vote_out, next_out = np.frombuffer(votes, np.int64), np.frombuffer(nexts, np.int64)
    k = min(k, int(count.sum()))               # no row takes more votes
    pad = len(cells) * stride                  # a pair of no cell, above every pair
    pair_t = np.int32 if pad <= np.iinfo(np.int32).max else np.int64
    cum_t = np.min_scalar_type(-2 * k - 1)     # holds a parent's votes plus a gram's own
    prev_pair, prev_cum, prev_lo = np.full((1, 1), pad, pair_t), np.zeros((1, 1), cum_t), 0
    for lo, hi in zip(lengths, lengths[1:]):
        pairs, counts = pair[head[lo]:head[hi]], count[head[lo]:head[hi]]
        first = head[lo:hi + 1] - head[lo]     # each gram's first slot, from the length's first
        width = np.diff(first)
        got = np.cumsum(counts)
        before = np.concatenate(([0], got))[first]
        got -= np.repeat(before[:-1], width)   # votes of the gram up to and with each slot
        takes = got - counts < k               # the slots that take a vote
        n_own = np.diff(np.concatenate(([0], np.cumsum(takes)))[first])
        total = np.minimum(np.diff(before), k).astype(cum_t)
        most, prev_m = int(n_own.max()), prev_pair.shape[1]
        m = min(k, most + prev_m)
        # a row's position j, after n own pairs, is its parent row's position j - n
        shifts = np.clip(np.arange(m) - np.arange(most + 1)[:, None], 0, prev_m - 1)
        up = shifts[n_own]
        up += ((parent[lo:hi] - prev_lo) * prev_m)[:, None]
        rows_pair, rows_cum = np.take(prev_pair, up), np.take(prev_cum, up)
        del up                                 # the largest temporary, freed before the vote
        rows_cum += total[:, None]
        np.minimum(rows_cum, k, out=rows_cum)
        at = (np.arange(len(pairs)) + np.repeat(np.arange(hi - lo) * m - first[:-1], width))[takes]
        rows_pair.ravel()[at] = pairs[takes]
        rows_cum.ravel()[at] = np.minimum(got[takes], k)
        code, next_out[lo:hi] = np.divmod(_votes(rows_pair, rows_cum, stride), stride)
        vote_out[lo:hi] = cells[code]
        prev_pair, prev_cum, prev_lo = rows_pair, rows_cum, lo
    return votes, nexts


def _votes(pairs: np.ndarray, cum: np.ndarray, stride: int) -> np.ndarray:
    """Per row of pairs in pooling order, with the votes taken up to each,
    the first pair of the cell with the most votes, ties to the smaller
    cell, STOP first; it is from the longest suffix the cell followed, so
    its ext is the next gram. Cells are tallied one at a time, the first
    pair's, then each first untallied pair's that takes a vote, until the
    leader has more votes than are left untallied."""
    took = cum.copy()
    took[:, 1:] -= cum[:, :-1]
    codes = pairs // stride
    best = pairs[:, 0].copy()
    same = codes == codes[:, :1]
    won = (took * same).sum(axis=1)
    left = cum[:, -1] - won
    rows = np.flatnonzero(won <= left)         # rows where another cell may still win
    if len(rows):
        pairs, codes, lead, won, left = pairs[rows], codes[rows], best[rows], won[rows], left[rows]
        took = took[rows] * ~same[rows]
        while (won <= left).any():
            cand = np.take_along_axis(pairs, (took > 0).argmax(axis=1)[:, None], 1)[:, 0]
            same = codes == (cand // stride)[:, None]
            tally = (took * same).sum(axis=1)
            took *= ~same
            better = (tally > won) | ((tally == won) & (cand < lead))
            won, lead = np.where(better, tally, won), np.where(better, cand, lead)
            left -= tally
        best[rows] = lead
    return best


def infer_future_location(partial: list[int], dp_km: float, history: HistoryIndex,
                          k: int = 10, step_km: float = 1.0) -> FutureLocation:
    """Walk the majority continuation until the forward budget is spent.

    The walk searches the context once, through history.continuation,
    for the hop from its deepest indexed gram, then takes one hop of the
    table for k per step (see HistoryIndex). It ends when the budget is
    spent or on a stop vote. With no matching history the current cell is
    returned, flagged, which degrades the predictor to its two-endpoint
    baseline behavior.
    """
    if not partial:
        raise ValueError("partial path is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not math.isfinite(dp_km):
        raise ValueError("forward budget must be finite")
    if not (math.isfinite(step_km) and step_km > 0.0):
        raise ValueError("step length must be finite and positive")
    cell, spent, steps = partial[-1], 0.0, 0
    if dp_km > 0.0:
        hop = history.continuation(partial, k)
        if hop is None:
            return FutureLocation(cell, 0, True)
        vote, gram = hop
        votes, nexts = history._hops[k]
        while gram and spent < dp_km:
            cell = vote
            steps += 1
            spent += step_km
            vote, gram = votes[gram], nexts[gram]
    return FutureLocation(cell, steps, False)


@dataclass
class Query:
    cells: list[int]       # trajectory prefix traveled so far
    d_t: float             # kilometers traveled so far
    top_k: int = 3

    def __post_init__(self):
        if not self.cells:
            raise ValueError("query needs at least one traveled cell")
        if not math.isfinite(self.d_t):
            raise ValueError("traveled distance must be finite")
        if self.d_t < 0:
            raise ValueError("traveled distance cannot be negative")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class PredictionResult:
    ranked: list[tuple[int, float]]
    future_location: int
    predicted_length_km: float
    estimated_total_km: float
    extrapolated: bool = False
    future_no_match: bool = False
    future_steps: int = 0
    cold_start: bool = False


def predict_destination(model: TransitionModel, q: Query, h: TripDistanceHistogram,
                        history: HistoryIndex, grid: GridMap, alpha: float = 0.004,
                        k: int = 10, force_future_to_current: bool = False) -> PredictionResult:
    """Rank candidate destinations for a partial trip.

    Candidates are the destinations the start cell has historically
    produced and that the model can route to. Their P(d | start) and
    p(start -> d) come from the model's per-start candidate table
    (TransitionModel.candidates), built once per start cell; p(future -> d)
    is read from totals on every query. Raises ColdStartError, carrying a
    forward-mass fallback ranking from the walked future cell and the walk
    itself, when that set is empty. A start or current cell outside the
    model's grid raises ValueError.
    """
    s, c, n = q.cells[0], q.cells[-1], model.n_cells
    if not (0 <= s < n and 0 <= c < n):
        name, cell = ("start", s) if not 0 <= s < n else ("current", c)
        raise ValueError(f"{name} cell {cell} outside 0..{n - 1}")
    est = estimate_total_distance(h, q.d_t)
    if q.d_t > 0 and est.km > 0:
        dp = predicted_length(est.km, min(q.d_t, est.km), alpha)
    else:
        dp = 0.0
    if force_future_to_current:
        future = FutureLocation(c, 0, False)
    else:
        future = infer_future_location(q.cells, dp, history, k, step_km=grid.mean_pitch_km)
    lp = future.cell

    totals = model.totals
    scores: dict[int, float] = {}
    for d, p_d_given_s, p_sd in model.candidates(s):
        p_ld = 1.0 if d == lp else totals.item(lp, d)
        scores[d] = p_ld * p_d_given_s / p_sd
    total = sum(scores.values())
    if not scores or total <= 0.0:
        fallback = [(d, p) for d, p in enumerate(totals[lp].tolist()) if d != s and p > 0.0]
        fb_total = sum(p for _, p in fallback)
        fallback = sorted(((d, p / fb_total) for d, p in fallback), key=lambda kv: (-kv[1], kv[0]))
        raise ColdStartError(f"no candidate destinations for start cell {s}", fallback, future)
    ranked = sorted(((d, p / total) for d, p in scores.items()), key=lambda kv: (-kv[1], kv[0]))
    return PredictionResult(ranked=ranked[:q.top_k], future_location=lp, predicted_length_km=dp,
                            estimated_total_km=est.km, extrapolated=est.extrapolated,
                            future_no_match=future.no_match, future_steps=future.steps)


def answer(model: TransitionModel, q: Query, h: TripDistanceHistogram, history: HistoryIndex,
           grid: GridMap, alpha: float = 0.004, k: int = 10,
           force_future_to_current: bool = False) -> PredictionResult:
    """predict_destination's result or, for a start with no candidate, the
    cold-start answer: the fallback's top_k from the walked future cell, the
    walk's cell, steps and no-match flag, 0.0 budget and estimate, cold_start set."""
    try:
        return predict_destination(model, q, h, history, grid, alpha, k,
                                   force_future_to_current)
    except ColdStartError as exc:
        future = exc.future
        return PredictionResult(
            ranked=exc.fallback[:q.top_k], future_location=future.cell,
            predicted_length_km=0.0, estimated_total_km=0.0,
            future_no_match=future.no_match, future_steps=future.steps, cold_start=True)


@dataclass
class DeviationReport:
    mean_km: float


def deviation_metrics(results: list[PredictionResult], truths: list[int],
                      grid: GridMap, top_n: int = 3) -> DeviationReport:
    """Average distance between the top predictions and the true destination.

    Per query, the haversine distances from the top_n ranked cells' centres
    to the true cell's centre are averaged; the report averages those
    across queries, in order.
    """
    if not results:
        raise ValueError("no results to score")
    if len(results) != len(truths):
        raise ValueError("results and truths differ in length")
    per_query = []
    for res, truth in zip(results, truths):
        top = res.ranked[:top_n]
        if not top:
            raise ValueError("prediction with empty ranking")
        devs = [grid.center_distance_km(d, truth) for d, _ in top]
        per_query.append(sum(devs) / len(devs))
    return DeviationReport(mean_km=sum(per_query) / len(per_query))
