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
from .ingest import CellPath, TripDistanceHistogram, collector_paused
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
    dp = e_total * math.log(d_t / e_total) / math.log(alpha)
    return min(max(dp, 0.0), max(e_total - d_t, 0.0))


class FutureLocation(NamedTuple):
    cell: int
    steps: int
    no_match: bool


Gram = tuple[int, ...]
Hop = tuple[int, int | None]


class HistoryIndex:
    """Suffix-gram index over historical cell paths, walked gram to gram.

    Maps each contiguous window of up to max_gram cells, a gram, to the
    cells observed immediately after it, with their counts. A trip ending
    right after a window counts as a stop vote (key STOP), so the
    continuation walk can halt where history says journeys finish instead
    of sailing past them. A gram's continuations rank by count
    descending, then cell.

    The index is semi-lazy. build keeps every gram as an integer id in
    flat arrays and makes no gram's cells. A gram's parent is the gram
    without its first cell (the root, id 0, for a single cell), and the
    child map takes first cell * stride + parent id to the gram's id.
    build indexes every window length ending at every position, so every
    suffix of an indexed gram is indexed too: a gram's parent chain is
    the gram and all its suffixes, longest first, and the deepest
    (longest) indexed suffix of a context is found by growing it leftward
    from the root, one integer lookup per cell. A gram's ranked
    (cell, count) pairs are a slice of one continuation table, in which
    equal pairs share one tuple. A gram is materialized, its cells made
    from its parent chain and kept in a map from cells to id, when the
    walk first fills a hop from it; a context whose whole tail is a
    materialized gram is then found with one tuple lookup, which reads a
    small map instead of up to max_gram entries of the large child map.

    A continuation's vote pools only the deepest matching gram and its
    own suffixes, so it is a pure function of the index, the gram and k.
    The walk is an automaton over the gram ids. If G is the deepest gram
    of a context and v its vote, the deepest gram of the context extended
    by v is the deepest gram of (G + (v,))[-max_gram:]: any indexed
    S + (v,) has its prefix S indexed too, so S is a suffix of the context
    no longer than G, hence a suffix of G. So each step is one hop
    (k, gram id) -> (vote, next gram id), next id None on a stop vote. A
    hop is filled the first time it is asked for and kept in a table keyed
    by k, then gram id: at most one entry per indexed gram for each k in
    use, never keyed by a query. Queries fill the hop table and the
    materialized grams but never change an entry, so concurrent queries
    under CPython's GIL at worst build an entry more than once and store
    equal values.
    """

    STOP = -1

    def __init__(self, max_gram: int = 8):
        if max_gram < 1:
            raise ValueError(f"max_gram must be >= 1, got {max_gram}")
        self.max_gram = max_gram
        self._child: dict[int, int] = {}       # first cell * stride + parent id -> id
        self._stride = 1                       # one past the largest gram id
        self._first = array("q", [self.STOP])  # per gram id: its first cell,
        self._parent = array("q", [0])         # its parent's id,
        self._head = array("q", [0, 0])        # and its pairs, table[head[id]:head[id + 1]]
        self._table: list[tuple[int, int]] = []
        self._ext = array("q")                 # per pair: the id of gram + (cell,), or 0
        self._ids: dict[Gram, int] = {}        # the materialized grams
        self._hops: dict[int, dict[int, Hop]] = {}

    @classmethod
    def build(cls, paths: list[CellPath], max_gram: int = 8) -> "HistoryIndex":
        """Index every window of up to max_gram cells of every path.

        The windows are counted in array passes over all paths' cells,
        concatenated, one pass per window length (see _gram_tables), and
        no gram is materialized. Cells must be >= 0, since -1 is STOP, and
        below 2**63, as the passes count in int64.
        """
        idx = cls(max_gram)
        with collector_paused():
            tables = _gram_tables([path.cells for path in paths], max_gram)
        if tables is not None:
            (idx._child, idx._stride, idx._first, idx._parent, idx._head,
             idx._table, idx._ext) = tables
        return idx

    def deepest(self, cells) -> int | None:
        """The id of the longest suffix of `cells`, at most max_gram long,
        that the index holds; None when not even the last cell is indexed."""
        tail = cells[-self.max_gram:]
        gram = self._ids.get(tuple(tail))
        if gram is not None:
            return gram
        child, stride = self._child.get, self._stride
        gram = 0
        for cell in reversed(tail):
            longer = child(cell * stride + gram)
            if longer is None:
                break
            gram = longer
        return gram or None

    def continuation(self, cells, k: int) -> int | None:
        """Majority next cell among the k best suffix matches.

        Returns the vote of the context's deepest matching gram (see
        _pool), STOP when ending the trip wins the vote and None when no
        suffix matches at all. Votes are not cached: the walk keeps them
        in the hop table.
        """
        gram = self.deepest(cells)
        return None if gram is None else self._pool(gram, k)

    def _fill_hop(self, gram: int, k: int) -> Hop:
        """Materialize an indexed gram, then compute and store the hop
        from it: its vote, and the deepest gram of its cells + (vote,), or
        None on a stop vote."""
        cells = self._cells(gram)
        self._ids[cells] = gram
        vote = self.continuation(cells, k)
        hop = (vote, None if vote == self.STOP else self._grown(gram, len(cells), vote))
        self._hops.setdefault(k, {})[gram] = hop
        return hop

    def _grown(self, gram: int, length: int, cell: int) -> int:
        """The deepest gram of (G + (cell,))[-max_gram:] for the indexed
        gram G with this id and length, where cell is indexed.

        That is S + (cell,) for the longest suffix S of G, shorter than
        max_gram, that cell ever followed, else (cell,) alone. Every
        window S + (cell,) is also a window (S[1:] + (cell,)), so the
        suffixes that cell followed are the tail of G's parent chain from
        the first one found on."""
        table, head, parent, ext = self._table, self._head, self._parent, self._ext
        if length == self.max_gram:
            gram = parent[gram]
        while gram:
            for slot in range(head[gram], head[gram + 1]):
                if table[slot][0] == cell:
                    return ext[slot]
            gram = parent[gram]
        return self._child[cell * self._stride]

    def _cells(self, gram: int) -> Gram:
        """The cells of an indexed gram, read off its parent chain."""
        first, parent = self._first, self._parent
        cells = []
        while gram:
            cells.append(first[gram])
            gram = parent[gram]
        return tuple(cells)

    def _pool(self, gram: int, k: int) -> int:
        """The majority next cell among the k best matches of an indexed
        gram and its suffixes, which are its parent chain.

        Matches rank by suffix length first, then frequency, then cell id;
        the quota pools down to shorter suffixes when longer ones are rare.
        Ties go to the smaller cell.
        """
        table, head, parent = self._table, self._head, self._parent
        quota = k
        tally: dict[int, int] = {}
        while gram:
            for cell, cnt in table[head[gram]:head[gram + 1]]:
                take = cnt if cnt < quota else quota
                tally[cell] = tally.get(cell, 0) + take
                quota -= take
                if quota == 0:
                    break
            if quota == 0:
                break
            gram = parent[gram]
        best, best_votes = None, -math.inf
        for cell, votes in tally.items():
            if votes > best_votes or (votes == best_votes and cell < best):
                best, best_votes = cell, votes
        return best


def _int_array(values: np.ndarray) -> array:
    """An integer numpy array as a Python int64 array, whose items read
    as plain ints."""
    out = array("q")
    out.frombytes(values.astype(np.int64, copy=False).view(np.uint8))
    return out


def _gram_tables(seqs: list[list[int]], max_gram: int):
    """The tables of a HistoryIndex over every gram of length 1..max_gram:
    (child map, stride, first cells, parents, heads, continuation table,
    extensions), or None when there are no cells.

    One array pass per length w over all cells, concatenated. Cells are
    replaced by their ranks among the distinct cells, and each window
    ending at position p is coded by a local id among length w's grams. A
    continuation is coded local id * (n_cells + 1) + (next cell's rank + 1,
    or 0 for STOP), and one np.unique counts each code. A code that is not
    a STOP is also the window of length w + 1 ending at p + 1, so its rank
    among the codes is that window's local id, and the next pass is over
    just those positions; the local ids of STOP codes name no gram. Every
    code stays under n * (n_cells + 1) for n cells in all: int32 where that
    fits, else int64, which holds it for any history that fits in memory.

    A gram's global id is its local id plus the number of local ids of all
    shorter lengths, plus one for the root. Its parent's id is read from
    the previous pass's id of the window ending at the same position, and
    its pairs sit in the continuation table in id order, count descending,
    then cell. Keys and pairs are plain Python ints.
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
    next_cell = np.concatenate(([HistoryIndex.STOP], labels))
    at = np.arange(n, dtype=code)      # where each window of length w ends
    ids = rank.astype(code)            # and its local id, below n_ids
    n_ids = radix - 1
    del rank, lengths, ends
    pos_id = np.empty(n, code)         # each position's local id one length down
    base = 1                           # the global id of local id 0
    firsts, parents, heads, ranked, exts, named = [], [], [], [], [], []
    slots = 0
    for w in range(1, max_gram + 1):
        nexts = follow[at]
        keyed, inv, counts = np.unique(ids * radix + nexts, return_inverse=True,
                                       return_counts=True)
        gram, nxt = np.divmod(keyed, radix)
        # stable, and keyed is ascending: a tie in count keeps cells ascending
        order = np.lexsort((-counts, gram))
        ranked.append(counts[order] * radix + nxt[order])   # a pair as one code
        # a code that is not a STOP is the next length's gram of local id its rank
        exts.append(np.where(nxt[order] != 0, order + (base + n_ids), 0) if w < max_gram
                    else np.zeros(len(order), np.int64))
        width = np.bincount(gram, minlength=n_ids)
        heads.append(slots + np.cumsum(width) - width)
        slots += len(keyed)
        named.append(np.flatnonzero(width) + base)
        end = np.zeros(n_ids, code)       # where one window of each gram ends
        end[ids] = at
        firsts.append(cells[end - (w - 1)])
        parents.append(pos_id[end] + np.int64(prev_base) if w > 1 else np.zeros(n_ids, code))
        pos_id[at] = ids
        prev_base, base = base, base + n_ids
        grows = nexts != 0
        at, ids, n_ids = at[grows] + 1, inv[grows].astype(code), len(keyed)
        if not len(at):
            break
    # equal (cell, count) pairs share one tuple
    distinct, pair = np.unique(np.concatenate(ranked), return_inverse=True)
    pairs = zip(next_cell[distinct % radix].tolist(), (distinct // radix).tolist())
    table = np.fromiter(pairs, object, len(distinct))[pair].tolist()
    head = _int_array(np.concatenate([[0], *heads, [slots]]))
    ext = _int_array(np.concatenate(exts))
    del ranked, pair, heads, exts      # freed early: the build's peak memory
    first = np.concatenate([[HistoryIndex.STOP], *firsts])
    parent = np.concatenate([[0], *parents])
    grams = np.concatenate(named)
    del firsts, parents, named
    stride = base
    if labels[-1] < (2**63 - 1) // stride:
        keys = first[grams] * stride + parent[grams]
    else:      # the keys would overflow int64: make them Python ints
        keys = first[grams].astype(object) * stride + parent[grams].astype(object)
    child = dict(zip(keys.tolist(), grams.tolist()))
    return child, stride, _int_array(first), _int_array(parent), head, table, ext


def infer_future_location(partial: list[int], dp_km: float, history: HistoryIndex,
                          k: int = 10, step_km: float = 1.0) -> FutureLocation:
    """Walk the majority continuation until the forward budget is spent.

    The walk searches the context once for its deepest indexed gram, then
    takes one hop of history's table per step (see HistoryIndex), filling
    a hop the first time it is needed. It ends when the budget is spent
    or on a stop vote. With no matching history the current cell is
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
    cell = partial[-1]
    spent = 0.0
    steps = 0
    if dp_km > 0.0:
        gram = history.deepest(partial)
        if gram is None:
            return FutureLocation(cell, 0, True)
        hops = history._hops.setdefault(k, {})
        while spent < dp_km:
            hop = hops.get(gram)
            if hop is None:
                hop = history._fill_hop(gram, k)
            vote, gram = hop
            if gram is None:
                break
            cell = vote
            steps += 1
            spent += step_km
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
    itself, when that set is empty.
    """
    s, c = q.cells[0], q.cells[-1]
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
        fallback = sorted(
            ((d, p / fb_total) for d, p in fallback), key=lambda kv: (-kv[1], kv[0])
        )
        raise ColdStartError(f"no candidate destinations for start cell {s}", fallback, future)
    ranked = sorted(((d, p / total) for d, p in scores.items()),
                    key=lambda kv: (-kv[1], kv[0]))
    return PredictionResult(
        ranked=ranked[:q.top_k],
        future_location=lp,
        predicted_length_km=dp,
        estimated_total_km=est.km,
        extrapolated=est.extrapolated,
        future_no_match=future.no_match,
        future_steps=future.steps,
    )


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
