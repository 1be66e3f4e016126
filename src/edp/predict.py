"""Online destination queries.

Given the traveled prefix of a trip, the pipeline estimates the total trip
distance from the historical distance distribution, shrinks it by a
logarithmic decay into a forward path budget, walks the history index to
the most probable future location, and ranks candidate destinations by

    score(d) = p(future -> d) * P(d | start) / p(start -> d)

normalized over the candidates that the start's trip history supports.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ColdStartError
from .grid import GridMap, l1_distance
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
    dp = e_total * math.log(d_t / e_total) / math.log(alpha)
    return min(max(dp, 0.0), max(e_total - d_t, 0.0))


class FutureLocation(NamedTuple):
    cell: int
    steps: int
    no_match: bool


Gram = tuple[int, ...]
Hop = tuple[int, Gram | None]


class HistoryIndex:
    """Suffix-gram index over historical cell paths, walked gram to gram.

    Maps each contiguous window of up to max_gram cells to the cells
    observed immediately after it, with their counts. A trip ending right
    after a window counts as a stop vote (key STOP), so the continuation
    walk can halt where history says journeys finish instead of sailing
    past them. Each window's continuations are stored once, at build time,
    as (cell, count) pairs in ranking order: count descending, then cell.

    build indexes every window length ending at every position, so the
    suffixes of a context that match the index always run from length 1
    up to a longest one, the deepest matching gram. A continuation's vote
    pools only that gram and its own suffixes, so it is a pure function of
    the index, the gram and k.

    The walk is an automaton over the indexed grams. If G is the deepest
    gram of a context and v its vote, the deepest gram of the context
    extended by v is the deepest gram of (G + (v,))[-max_gram:]: any
    indexed S + (v,) has its prefix S indexed too, so S is a suffix of the
    context no longer than G, hence a suffix of G. So each step is one hop
    (k, gram) -> (vote, next gram), next gram None on a stop vote. A hop
    is filled the first time it is asked for and kept in a table keyed by
    (k, gram): at most one entry per indexed gram for each k in use, never
    keyed by a query. Queries fill the table but never change an entry, so
    concurrent queries under CPython's GIL at worst fill a hop more than
    once and store equal values.
    """

    STOP = -1

    def __init__(self, max_gram: int = 8):
        if max_gram < 1:
            raise ValueError(f"max_gram must be >= 1, got {max_gram}")
        self.max_gram = max_gram
        self._grams: dict[Gram, tuple[tuple[int, int], ...]] = {}
        self._hops: dict[int, dict[Gram, Hop]] = {}

    @classmethod
    def build(cls, paths: list[CellPath], max_gram: int = 8) -> "HistoryIndex":
        """Index every window of up to max_gram cells of every path.

        The windows are counted in array passes over all paths' cells,
        concatenated, one pass per window length (see _gram_levels); the
        index holds plain Python ints only. Cells must be >= 0, since -1
        is STOP, and below 2**63, as the passes count in int64.
        """
        idx = cls(max_gram)
        for keys, values in _gram_levels([path.cells for path in paths], max_gram):
            idx._grams.update(zip(keys, values))
        return idx

    def deepest(self, cells) -> Gram | None:
        """The longest suffix of `cells`, at most max_gram long, that the
        index holds; None when not even the last cell is indexed."""
        grams = self._grams
        tail = tuple(cells[-self.max_gram:])
        for lo in range(len(tail)):
            gram = tail[lo:]
            if gram in grams:
                return gram
        return None

    def continuation(self, cells, k: int) -> int | None:
        """Majority next cell among the k best suffix matches.

        Returns the vote of the context's deepest matching gram (see
        _pool), STOP when ending the trip wins the vote and None when no
        suffix matches at all. Nothing is cached: the walk keeps its votes
        in the hop table.
        """
        gram = self.deepest(cells)
        return None if gram is None else self._pool(gram, k)

    def _fill_hop(self, gram: Gram, k: int) -> Hop:
        """Compute and store the hop from an indexed gram: its vote, and
        the deepest gram of gram + (vote,), or None on a stop vote."""
        vote = self.continuation(gram, k)
        hop = (vote, None if vote == self.STOP else self.deepest(gram + (vote,)))
        self._hops.setdefault(k, {})[gram] = hop
        return hop

    def _pool(self, gram: Gram, k: int) -> int:
        """The majority next cell among the k best matches of `gram` and
        its suffixes, all of which the index holds.

        Matches rank by suffix length first, then frequency, then cell id;
        the quota pools down to shorter suffixes when longer ones are rare.
        Ties go to the smaller cell.
        """
        grams = self._grams
        quota = k
        tally: dict[int, int] = {}
        for lo in range(len(gram)):
            for cell, cnt in grams[gram[lo:]]:
                take = cnt if cnt < quota else quota
                tally[cell] = tally.get(cell, 0) + take
                quota -= take
                if quota == 0:
                    break
            if quota == 0:
                break
        best, best_votes = None, -math.inf
        for cell, votes in tally.items():
            if votes > best_votes or (votes == best_votes and cell < best):
                best, best_votes = cell, votes
        return best


def _gram_levels(seqs: list[list[int]], max_gram: int):
    """Every gram of length 1..max_gram with its ranked (cell, count)
    pairs, yielded as (keys, values) iterables, one per length and number
    of continuations.

    One array pass per length w over all cells, concatenated. Cells are
    replaced by their ranks among the distinct cells, and each window
    ending at position p is coded by a gram id. A continuation is coded
    gram id * (n_cells + 1) + (next cell's rank + 1, or 0 for STOP), and
    one np.unique counts each code. A code that is not a STOP is also the
    window of length w + 1 ending at p + 1, so its rank among the codes
    is that window's gram id, and the next pass is over just those
    positions. Every code stays under n * (n_cells + 1) for n cells in
    all: int32 where that fits, else int64, which holds it for any
    history that fits in memory. Keys are slices of one tuple of all
    cells, so the index holds plain Python ints. Equal (cell, count)
    pairs share one tuple, and so do the values of the grams with one
    continuation.
    """
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    n = int(lengths.sum())
    if n == 0:
        return
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
    flat = tuple(cells.tolist())
    at = np.arange(n, dtype=code)      # where each window of length w ends
    ids = rank.astype(code)            # and its gram id, below n_ids
    n_ids = radix - 1
    del cells, rank, lengths, ends
    for w in range(1, max_gram + 1):
        nexts = follow[at]
        keyed, inv, counts = np.unique(ids * radix + nexts, return_inverse=True,
                                       return_counts=True)
        gram, nxt = np.divmod(keyed, radix)
        # stable, and keyed is ascending: a tie in count keeps cells ascending
        order = np.lexsort((-counts, gram))
        distinct, pair = np.unique(counts[order] * radix + nxt[order], return_inverse=True)
        pairs = list(zip(next_cell[distinct % radix].tolist(), (distinct // radix).tolist()))
        singles = list(zip(pairs))
        width = np.bincount(gram, minlength=n_ids)
        first = np.cumsum(width) - width
        end = np.empty(n_ids, code)
        end[ids] = at
        for m in np.unique(width).tolist():
            if m == 0:
                continue         # an id of a STOP continuation, not a gram
            of_m = np.flatnonzero(width == m)
            keys = [flat[lo:lo + w] for lo in (end[of_m] - (w - 1)).tolist()]
            head = first[of_m]
            if m == 1:
                values = map(singles.__getitem__, pair[head].tolist())
            else:
                values = zip(*(map(pairs.__getitem__, pair[head + j].tolist())
                               for j in range(m)))
            yield keys, values
        grows = nexts != 0
        at, ids, n_ids = at[grows] + 1, inv[grows].astype(code), len(keyed)
        if not len(at):
            return


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
    per_query: list[float] = field(default_factory=list)


def deviation_metrics(results: list[PredictionResult], truths: list[int],
                      grid: GridMap, top_n: int = 3,
                      mode: str = "haversine") -> DeviationReport:
    """Average distance between the top predictions and the true destination.

    Per query, the top_n ranked cells' deviations are averaged; the report
    averages those across queries. mode="l1" scores one kilometer per grid
    hop, the convention of the synthetic worlds.
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
        if mode == "l1":
            devs = [float(l1_distance(d, truth, grid.g)) for d, _ in top]
        elif mode == "haversine":
            devs = [grid.center_distance_km(d, truth) for d, _ in top]
        else:
            raise ValueError(f"unknown deviation mode {mode!r}")
        per_query.append(sum(devs) / len(devs))
    return DeviationReport(mean_km=sum(per_query) / len(per_query), per_query=per_query)
