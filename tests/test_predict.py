import dataclasses
import inspect
import math
import random
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import pairwise
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edp import baseline, predict
from edp.errors import ColdStartError
from edp.grid import neighbors, unit_grid
from edp.ingest import (CellPath, TripDistanceHistogram, build_histogram, generate_synthetic,
                        synthetic_grid)
from edp.model import build_sstp, count_start_dest, train_initial
from edp.update import ChangeSet, apply_update
from edp.predict import (DistanceEstimate, FutureLocation, HistoryIndex, PredictionResult, Query,
                         answer, deviation_metrics, estimate_total_distance,
                         infer_future_location, predict_destination, predicted_length)


def bitwise(pairs):
    return [(d, float(p).hex()) for d, p in pairs]


def trips(*kms):
    return [CellPath(str(i), [0, 1], km) for i, km in enumerate(kms)]


class TestEstimateTotalDistance:
    def test_unconditional_at_zero(self):
        h = build_histogram(trips(1.5, 2.5, 7.25, 3.0), 1.0)
        est = estimate_total_distance(h, 0.0)
        assert est.km == h.expectation()
        assert not est.extrapolated

    def test_hand_case_only_top_bin_survives(self):
        h = build_histogram(trips(2.5, 7.5), 1.0)
        est = estimate_total_distance(h, 5.0)
        assert est.km == pytest.approx(7.0)

    def test_point_mass_conditioning(self):
        h = build_histogram(trips(5.0, 5.0, 5.0), 1.0)
        assert estimate_total_distance(h, 4.0).km == pytest.approx(5.0)

    def test_beyond_data_extrapolates(self):
        h = build_histogram(trips(2.5), 1.0)
        est = estimate_total_distance(h, 9.0)
        assert est.km == 9.0
        assert est.extrapolated

    def test_monotone_in_traveled_distance(self):
        rng = np.random.default_rng(0)
        h = build_histogram(trips(*rng.uniform(0.5, 30.0, size=60)), 1.0)
        values = [estimate_total_distance(h, d).km for d in np.linspace(0, 25, 120)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d_t", [0.0, 3.0, 9.0])
    def test_returns_a_distance_estimate(self, d_t):
        h = build_histogram(trips(2.5, 4.5), 1.0)
        want = oracles.masked_estimate(h, d_t)
        est = estimate_total_distance(h, d_t)
        assert type(est) is DistanceEstimate
        assert (est.km, est.extrapolated) == tuple(est) == want

    def test_negative_rejected(self):
        h = build_histogram(trips(2.5), 1.0)
        with pytest.raises(ValueError):
            estimate_total_distance(h, -1.0)

    @pytest.mark.parametrize("d_t", [math.nan, math.inf])
    def test_non_finite_rejected(self, d_t):
        h = build_histogram(trips(2.5), 1.0)
        with pytest.raises(ValueError):
            estimate_total_distance(h, d_t)


class TestEstimateProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=15).filter(any),
           st.sampled_from([0.3, 0.1, 0.7, 1.0, 2.5]),
           st.floats(0.0, 50.0))
    def test_equals_masked_sum(self, counts, width, anywhere):
        """The suffix tables give bitwise the estimate of masking the bins
        on every call, with d_t on, just beside and between bin edges."""
        h = TripDistanceHistogram(width, counts)
        edges = h.boundaries.tolist()
        d_ts = [anywhere, *edges, *(round(e, 6) for e in edges),
                *(math.nextafter(e, math.inf) for e in edges),
                *(math.nextafter(e, 0.0) for e in edges),
                *((a + b) / 2 for a, b in pairwise(edges))]
        for d_t in d_ts:
            est = estimate_total_distance(h, d_t)
            km, extrapolated = oracles.masked_estimate(h, d_t)
            assert (float(est.km).hex(), est.extrapolated) == (float(km).hex(), extrapolated)

    def test_histogram_is_read_only(self):
        counts = np.array([1, 2, 3], dtype=np.int64)
        h = TripDistanceHistogram(1.0, counts)
        counts[0] = 9
        assert h.counts.tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            h.counts[0] = 9


class TestPredictedLength:
    def test_completed_trip_is_zero(self):
        """Positive zero: log(1) / log(alpha) is -0.0, which the clamps
        keep, and `edp predict` printed it as a -0.0 budget."""
        assert predicted_length(10.0, 10.0, 0.004) == 0.0
        for e_total in (10.0, 0.3, 1e300):
            for alpha in (0.004, 0.5, 0.999):
                assert math.copysign(1.0, predicted_length(e_total, e_total, alpha)) == 1.0

    def test_reference_value(self):
        # independent evaluation of the decay at (10, 5, 0.004)
        expected = 10.0 * math.log(5.0 / 10.0) / math.log(0.004)
        assert predicted_length(10.0, 5.0, 0.004) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.2554, abs=1e-4)

    def test_default_alpha(self):
        sig = inspect.signature(predicted_length)
        assert sig.parameters["alpha"].default == 0.004

    def test_clamped_to_remaining(self):
        # early in the trip the raw decay exceeds what is left
        assert predicted_length(10.0, 9.99, 0.5) <= 10.0 - 9.99 + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            predicted_length(10.0, 0.0, 0.004)
        with pytest.raises(ValueError):
            predicted_length(0.0, 1.0, 0.004)
        with pytest.raises(ValueError):
            predicted_length(10.0, 5.0, 1.5)

    @pytest.mark.parametrize("d_t, e_total", [(5e-324, 10.0), (1e-300, 1e30)])
    def test_ratio_underflow_takes_the_limit(self, d_t, e_total):
        """A traveled distance so small next to the estimate that their
        ratio underflows to 0.0 gets the limit, all that is left, where
        the log of 0.0 used to raise a bare math domain error."""
        assert predicted_length(e_total, d_t, 0.004) == e_total - d_t

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(*[st.one_of(st.floats(0.0, exclude_min=True), st.sampled_from([math.nan, 1.0]))] * 2,
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_clamps_equal_min_and_max(self, e_total, d_t, alpha):
        """The conditional clamps give the builtins' result bit for bit,
        past the estimate, at infinities and NaN included."""
        ratio = d_t / e_total
        dp = e_total * math.log(ratio) / math.log(alpha) if ratio > 0.0 else math.inf
        want = min(max(dp, 0.0), max(e_total - d_t, 0.0)) + 0.0
        assert predicted_length(e_total, d_t, alpha).hex() == want.hex()

    def test_decreasing_in_alpha(self):
        smaller = predicted_length(100.0, 10.0, 0.0001)
        larger = predicted_length(100.0, 10.0, 0.1)
        assert larger > smaller


class TestInferFutureLocation:
    def test_zero_budget_stays_put(self):
        idx = HistoryIndex.build([CellPath("h", [0, 1, 2, 3, 4], 4.0)])
        loc = infer_future_location([0, 1, 2], 0.0, idx)
        assert loc.cell == 2
        assert loc.steps == 0

    def test_unique_continuation_walk(self):
        idx = HistoryIndex.build([CellPath("h", [0, 1, 2, 3, 4], 4.0)])
        loc = infer_future_location([0, 1, 2], 2.0, idx)
        assert loc.cell == 4
        assert loc.steps == 2

    def test_empty_history_degrades(self):
        loc = infer_future_location([0, 1, 2], 3.0, HistoryIndex.build([]))
        assert loc.cell == 2
        assert loc.no_match

    def test_majority_vote(self):
        hist = [CellPath("a", [0, 1, 2], 2.0)] * 3 + [CellPath("b", [0, 1, 11], 2.0)]
        idx = HistoryIndex.build(hist)
        loc = infer_future_location([5, 0, 1], 1.0, idx, k=10)
        assert loc.cell == 2

    def test_longer_suffix_wins_small_k(self):
        hist = [CellPath("a", [9, 0, 1, 2], 3.0)] + [CellPath("b", [3, 1, 11], 2.0)] * 5
        idx = HistoryIndex.build(hist)
        # suffix (0, 1) matches only trip a; with k=1 its continuation wins
        loc = infer_future_location([0, 1], 1.0, idx, k=1)
        assert loc.cell == 2

    def test_budget_in_km_uses_step_length(self):
        idx = HistoryIndex.build([CellPath("h", [0, 1, 2, 3, 4], 4.0)])
        loc = infer_future_location([0, 1], 4.0, idx, step_km=2.0)
        assert loc.steps == 2

    @pytest.mark.parametrize("history, budget, want", [
        ([CellPath("h", [0, 1, 2, 3, 4], 4.0)], 2.0, (4, 2, False)),
        ([CellPath("h", [0, 1, 2, 3, 4], 4.0)], 0.0, (2, 0, False)),
        ([], 3.0, (2, 0, True))], ids=["walked", "no-budget", "no-match"])
    def test_returns_a_future_location(self, history, budget, want):
        loc = infer_future_location([0, 1, 2], budget, HistoryIndex.build(history))
        assert type(loc) is FutureLocation
        assert (loc.cell, loc.steps, loc.no_match) == tuple(loc) == want

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            infer_future_location([], 1.0, HistoryIndex.build([]))
        with pytest.raises(ValueError):
            infer_future_location([0], 1.0, HistoryIndex.build([]), k=0)

    @pytest.mark.parametrize("dp_km, step_km", [
        (1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
        (math.inf, 1.0), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_budget_and_step_must_be_finite(self, dp_km, step_km):
        """A zero step on a history that never votes to stop used to walk
        forever; such a budget or step is rejected before the walk."""
        idx = HistoryIndex.build([CellPath("loop", [0, 1] * 20, 39.0)])
        with pytest.raises(ValueError):
            infer_future_location([0, 1], dp_km, idx, step_km=step_km)


class TestHistoryIndexProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=10), max_size=8),
           st.integers(1, 6),
           st.lists(st.lists(st.integers(0, 6), max_size=9), max_size=6),
           st.integers(1, 12),
           st.randoms(use_true_random=False))
    def test_continuation_equals_counter_index(self, paths, max_gram, queries, k, rng):
        """Over few cells, so that grams collide and votes tie, one index
        answers every context like the Counter-per-gram index, whatever
        order the contexts and vote counts arrive in, and keeps one hop
        table per vote count asked for, none per query."""
        history = [CellPath(str(i), cells, 0.0) for i, cells in enumerate(paths)]
        index = HistoryIndex.build(history, max_gram)
        oracle = oracles.CounterHistoryIndex(history, max_gram)
        contexts = queries + [cells[:p] for cells in paths for p in range(1, len(cells) + 1)]
        calls = [(cells, votes) for cells in contexts for votes in (1, 3, k)] * 2
        rng.shuffle(calls)
        for cells, votes in calls:
            hop = index.continuation(cells, votes)
            assert (hop and hop[0]) == oracle.continuation(cells, votes)
            if cells:
                infer_future_location(cells, 12.0, index, votes)
        assert set(index._hops) <= {1, 3, k}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=12), min_size=1,
                    max_size=10),
           st.integers(1, 8),
           st.integers(1, 20))
    def test_hop_tables_equal_scalar_reference(self, paths, max_gram, k):
        """Over few cells, so that counts tie, and short trips, so that
        stop votes win, every gram id names a gram, and every gram's entry
        in the hop table for k is the hop the scalar loop fills, its vote
        is the Counter-per-gram index's, and its next gram is the deepest
        indexed suffix of the gram extended by the vote."""
        history = [CellPath(str(i), cells, 0.0) for i, cells in enumerate(paths)]
        index = HistoryIndex.build(history, max_gram)
        oracle = oracles.CounterHistoryIndex(history, max_gram)
        cells_of = oracles.index_cells(index)
        assert len(cells_of) == index._stride - 1
        votes, nexts = predict._hop_tables(index._grams, k)
        assert type(votes) is array and type(nexts) is array
        for gram, cells in cells_of.items():
            vote, nxt = votes[gram], nexts[gram]
            assert (vote, nxt) == oracles.scalar_hop(index, gram, k)
            assert vote == oracle.continuation(cells, k)
            if vote == HistoryIndex.STOP:
                assert nxt == 0
                continue
            grown = (cells + (vote,))[-max_gram:]
            assert cells_of[nxt] == grown[-max(m for m in range(1, len(grown) + 1)
                                               if grown[-m:] in oracle.grams):]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 7).flatmap(lambda g: st.lists(
               st.lists(st.integers(0, g - 1), max_size=20), max_size=12)),
           st.integers(1, 12),
           st.integers(0, 12),
           st.sampled_from([1, 37, 10**6]),
           st.randoms(use_true_random=False))
    def test_build_equals_window_loop(self, paths, max_gram, repeats, scale, rng):
        """The array build makes the gram table the per-window loop makes:
        the same grams, each with the same (cell, count) pairs in the same
        order, over empty and one-cell paths, repeated paths, few cells (so
        that counts tie) and cell ids far apart; and every gram's id is
        what a search for its cells finds, which makes no hop table."""
        paths = [[c * scale for c in cells] for cells in paths]
        paths += [rng.choice(paths) for _ in range(repeats if paths else 0)]
        history = [CellPath(str(i), cells, 0.0) for i, cells in enumerate(paths)]
        index = HistoryIndex.build(history, max_gram)
        grams = oracles.index_grams(index)
        assert grams == oracles.loop_history_grams(history, max_gram)
        for gram, cells in oracles.index_cells(index).items():
            assert index.deepest(cells) == gram
        assert index._hops == {}

    @pytest.mark.parametrize("cells", [[0, 2**62, 2**61, 2**62, 0], [2**63 - 1, 0, 2**63 - 1]])
    def test_cells_whose_keys_pass_int64(self, cells):
        """Cells so large that first cell * stride passes int64 still key
        every gram exactly, and the walks over them end where the step
        walk ends."""
        history = [CellPath("h", cells, 0.0)]
        index = HistoryIndex.build(history, 3)
        assert oracles.index_grams(index) == oracles.loop_history_grams(history, 3)
        oracle = oracles.CounterHistoryIndex(history, 3)
        for p in range(1, len(cells) + 1):
            assert tuple(infer_future_location(cells[:p], 9.0, index, 1)) == \
                oracles.step_walk(cells[:p], 9.0, oracle, 1)

    def test_build_materializes_no_gram(self):
        """build keeps grams as plain integers in the child map and numpy
        arrays, and makes no cells tuple and no hop table."""
        paths, *_, index = tiny_world()
        assert index._child and index._ids == {} and index._hops == {}
        assert all(type(key) is int and type(gram) is int
                   for key, gram in index._child.items())
        assert all(type(table) is np.ndarray for table in
                   (index._grams.parent, index._grams.head, index._grams.pair,
                    index._grams.count))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=12), min_size=1,
                    max_size=8),
           st.integers(1, 6),
           st.lists(st.integers(0, 7), min_size=1, max_size=9),
           st.floats(0.5, 30.0),
           st.sampled_from([1, 3, 10]))
    def test_first_walk_makes_only_its_k_table(self, paths, max_gram, cells, budget, k):
        """On a fresh index, the first walk with a k whose context matches
        makes exactly that k's hop table, and a walk with another k makes
        that k's table and leaves the first untouched."""
        history = [CellPath(str(i), p, 0.0) for i, p in enumerate(paths)]
        index = HistoryIndex.build(history, max_gram)
        loc = infer_future_location(cells, budget, index, k)
        assert set(index._hops) == (set() if loc.no_match else {k})
        if loc.no_match:
            return
        table = index._hops[k]
        before = [t.tobytes() for t in table]
        other = k + 1
        infer_future_location(cells, budget, index, other)
        assert set(index._hops) == {k, other}
        assert index._hops[k] is table and [t.tobytes() for t in table] == before
        assert infer_future_location(cells, budget, index, k) == loc

    @pytest.mark.parametrize("k", [0, -1])
    def test_continuation_k_below_one_rejected(self, k):
        """A continuation with k below 1, a quota that takes no vote,
        raises naming k and makes no table."""
        index = HistoryIndex.build([CellPath("h", [0, 1, 2], 2.0)])
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.continuation([0, 1], k)
        assert index._hops == {}

    @pytest.mark.parametrize("max_gram", [0, -1])
    def test_max_gram_below_one_rejected(self, max_gram):
        with pytest.raises(ValueError, match="max_gram"):
            HistoryIndex(max_gram)
        with pytest.raises(ValueError, match="max_gram"):
            HistoryIndex.build([CellPath("h", [0, 1, 2], 2.0)], max_gram)

    @pytest.mark.parametrize("cells", [[0, -1, 2], [-1], [3, 4, -7], [0, 2**70, 1]])
    def test_negative_cell_rejected(self, cells):
        """-1 is STOP, so a history cell below 0 cannot be indexed, and nor
        can one past int64."""
        with pytest.raises(ValueError, match="cells must be >= 0"):
            HistoryIndex.build([CellPath("ok", [0, 1], 1.0), CellPath("h", cells, 1.0)])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12), max_size=8),
           st.integers(1, 6),
           st.lists(st.tuples(st.lists(st.integers(0, 6), min_size=1, max_size=9),
                              st.one_of(st.just(0.0), st.floats(0.0, 3.0),
                                        st.floats(3.0, 200.0)),
                              st.sampled_from([1.0, 0.25, 0.7, 2.5]),
                              st.integers(1, 12)), max_size=12),
           st.randoms(use_true_random=False))
    def test_walk_equals_step_walk(self, paths, max_gram, drawn, rng):
        """Hop by hop over one shared index, the walk ends where the walk
        that asks for a continuation of the whole grown context on every
        step ends, for any budget, step length and vote count, whichever
        walk made each table; and each context tail the walks keep as a
        whole gram maps to that gram's id."""
        history = [CellPath(str(i), cells, 0.0) for i, cells in enumerate(paths)]
        index = HistoryIndex.build(history, max_gram)
        oracle = oracles.CounterHistoryIndex(history, max_gram)
        walks = drawn + [(cells[:p], budget, 1.0, k) for cells in paths
                         for p in range(1, len(cells) + 1)
                         for budget, k in ((0.5, 1), (40.0, 3), (40.0, 10))]
        walks *= 2
        rng.shuffle(walks)
        for cells, budget, step_km, k in walks:
            assert tuple(infer_future_location(cells, budget, index, k, step_km)) == \
                oracles.step_walk(cells, budget, oracle, k, step_km)
        cells_of = oracles.index_cells(index)
        assert all(cells_of[gram] == cells for cells, gram in index._ids.items())

    def test_walk_fills_each_hop_once(self):
        """Over a shuffled batch of walks, each walk with a budget calls
        continuation once, to search its context, and the first that asks
        for a k makes that k's hop table, every hop at once; a second pass
        over the batch makes no table and answers the same."""
        paths, grid, *_, index = tiny_world()
        calls, built = [], []
        real = index.continuation

        def counting(cells, k):
            calls.append(k)
            return real(cells, k)

        def building(grams, k):
            built.append(k)
            return make_tables(grams, k)
        index.continuation = counting
        rng = np.random.default_rng(3)
        batch = []
        for _ in range(300):
            trip = paths[int(rng.integers(len(paths)))]
            cut = int(rng.integers(1, len(trip.cells) + 1))
            batch.append((trip.cells[:cut], float(rng.integers(0, 12)), int(rng.choice([1, 10]))))
        make_tables = predict._hop_tables
        with patch.object(predict, "_hop_tables", building):
            first = [infer_future_location(cells, budget, index, k) for cells, budget, k in batch]
            assert sorted(built) == [1, 10] and set(index._hops) == {1, 10}
            assert calls == [k for _, budget, k in batch if budget > 0]
            assert any(loc.steps > 1 for loc in first)
            built.clear()
            assert [infer_future_location(cells, budget, index, k)
                    for cells, budget, k in batch] == first
        assert built == []


def tiny_world(g=5, n_trips=400, seed=11, detour_rate=0.0, max_detour=4):
    paths, _ = generate_synthetic(g, n_trips, seed, detour_rate)
    grid = synthetic_grid(g)
    sstp = build_sstp(paths, g)
    counts = count_start_dest(paths)
    model = train_initial(sstp, counts, max_detour)
    hist = build_histogram(paths, 1.0)
    index = HistoryIndex.build(paths)
    return paths, grid, sstp, model, hist, index


class TestPredictDestination:
    def test_result_field_order(self):
        """predict_destination builds its result positionally, in this order."""
        assert [f.name for f in dataclasses.fields(PredictionResult)] == [
            "ranked", "future_location", "predicted_length_km", "estimated_total_km",
            "extrapolated", "future_no_match", "future_steps", "cold_start"]

    def test_single_destination_start(self):
        g = 4
        paths = [CellPath("a", [0, 1, 2], 2.0), CellPath("b", [0, 1, 2], 2.0),
                 CellPath("c", [5, 6], 1.0)]
        grid = unit_grid(g)
        model = train_initial(build_sstp(paths, g), count_start_dest(paths), 2)
        h = build_histogram(paths, 1.0)
        idx = HistoryIndex.build(paths)
        res = predict_destination(model, Query([0, 1], 1.0), h, idx, grid)
        assert res.ranked[0][0] == 2
        assert res.ranked[0][1] == pytest.approx(1.0)

    def test_destination_the_model_cannot_reach_is_no_candidate(self):
        """A start's recorded destination with p(start -> d) = 0 stays out
        of the candidate table, so no query divides by it."""
        g, paths = 4, [CellPath("a", [0, 1, 2], 2.0)]
        # cell 0 only ever stepped east, so within a detour of 2 nothing reaches cell 4
        model = train_initial(build_sstp(paths, g), ({0: {2: 1, 4: 1}}, {0: 2}), 2)
        assert model.totals[0, 4] == 0.0 < model.totals[0, 2]
        assert model.candidates(0) == ((2, 0.5, model.totals.item(0, 2)),)
        res = predict_destination(model, Query([0], 0.0), build_histogram(paths, 1.0),
                                  HistoryIndex.build(paths), unit_grid(g))
        assert res.ranked == [(2, 1.0)]

    def test_probabilities_normalized(self):
        paths, grid, _, model, hist, index = tiny_world()
        full = predict_destination(model, Query(paths[0].cells[:2], 1.0, top_k=100),
                                   hist, index, grid)
        assert sum(p for _, p in full.ranked) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 for _, p in full.ranked)
        probs = [p for _, p in full.ranked]
        assert probs == sorted(probs, reverse=True)

    def test_cold_start_carries_fallback(self):
        paths, grid, _, model, hist, index = tiny_world(n_trips=12)
        starts = {p.cells[0] for p in paths}
        assert len(starts) < 25
        unseen = next(c for c in range(25) if c not in starts)
        partial = [unseen]
        with pytest.raises(ColdStartError) as err:
            predict_destination(model, Query(partial, 0.5), hist, index, grid)
        fallback = err.value.fallback
        assert fallback and fallback[0][1] >= fallback[-1][1]
        assert sum(p for _, p in fallback) == pytest.approx(1.0, abs=1e-9)

    def test_scores_match_straight_line_recomputation(self):
        """Independent reimplementation of the ranking rule by direct table
        lookups, compared on a hundred random queries."""
        paths, grid, sstp, model, hist, index = tiny_world(seed=11)
        rng = np.random.default_rng(11)
        counts, totals_by_start = count_start_dest(paths)
        checked = 0
        for _ in range(200):
            trip = paths[int(rng.integers(len(paths)))]
            if len(trip.cells) < 3:
                continue
            cut = int(rng.integers(2, len(trip.cells)))
            q = Query(trip.cells[:cut], float(cut - 1), top_k=200)
            try:
                res = predict_destination(model, q, hist, index, grid)
            except ColdStartError:
                continue
            s = trip.cells[0]
            lp = res.future_location
            raw = {}
            for d, cnt in counts[s].items():
                if d == s:
                    continue
                p_sd = model.totals[s, d]
                p_ds = cnt / totals_by_start[s]
                if p_sd <= 0 or p_ds <= 0:
                    continue
                p_ld = 1.0 if d == lp else model.totals[lp, d]
                raw[d] = p_ld * p_ds / p_sd
            z = sum(raw.values())
            expected = {d: v / z for d, v in raw.items()}
            got = dict(res.ranked)
            assert set(got) == set(expected)
            for d in got:
                assert got[d] == pytest.approx(expected[d], abs=1e-12)
            checked += 1
        assert checked >= 100

    def test_forcing_future_to_current_matches_first_order_baseline(self):
        """With the future location pinned to the current cell and no detour
        layers, the ranking argmax must agree with the matrix-power scorer
        on every query."""
        for g, seed in ((4, 5), (5, 11), (6, 3)):
            paths, _ = generate_synthetic(g, 300, seed)
            grid = synthetic_grid(g)
            sstp = build_sstp(paths, g)
            counts, totals_by_start = count_start_dest(paths)
            model = train_initial(sstp, (counts, totals_by_start), 0)
            hist = build_histogram(paths, 1.0)
            index = HistoryIndex.build(paths)
            power_totals = baseline.power_totals(sstp.to_dense(), 0)
            rng = np.random.default_rng(seed)
            for _ in range(60):
                trip = paths[int(rng.integers(len(paths)))]
                cut = max(2, int(len(trip.cells) * 0.5))
                q = Query(trip.cells[:cut], float(cut - 1), top_k=1)
                try:
                    res = predict_destination(model, q, hist, index, grid,
                                              force_future_to_current=True)
                except ColdStartError:
                    continue
                scores = baseline.first_order_scores(
                    power_totals, counts, totals_by_start,
                    trip.cells[0], trip.cells[cut - 1])
                best = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
                assert res.ranked[0][0] == best

    def test_no_match_future_falls_back_to_current(self):
        paths, grid, _, model, hist, _ = tiny_world()
        empty_index = HistoryIndex.build([])
        trip = paths[0]
        q = Query(trip.cells[:2], 1.0)
        res = predict_destination(model, q, hist, empty_index, grid)
        assert res.future_location == trip.cells[1]
        assert res.future_no_match

    @pytest.mark.parametrize("g, n_trips, seed, detour_rate", [
        (4, 30, 5, 0.0), (5, 60, 11, 0.3), (6, 150, 2, 0.2)])
    def test_equals_scoring_loop_before_and_after_snapshot(self, g, n_trips, seed,
                                                           detour_rate):
        """Scores from the per-start candidate table are bitwise those of
        the loop that read the model one candidate at a time, for every
        start and future cell, cold starts and round trips included, on a
        trained model and on an apply_update snapshot of it."""
        paths, _ = generate_synthetic(g, n_trips, seed, detour_rate)
        # trips that end where they start, whose start is no candidate
        paths += [CellPath(f"round{c}", [c, c + 1, c], 2.0) for c in (0, g + 1, 2 * g + 2)]
        grid, n = synthetic_grid(g), g * g
        sstp = build_sstp(paths, g)
        model = train_initial(sstp, count_start_dest(paths), 4)
        hist, index = build_histogram(paths, 1.0), HistoryIndex.build(paths)

        def check(m):
            cold = 0
            for s in range(n):
                for lp in range(n):
                    q = Query([s, lp], 1.0, top_k=n)
                    ranked, fallback = oracles.score_destinations(m, s, lp)
                    try:
                        res = predict_destination(m, q, hist, index, grid,
                                                  force_future_to_current=True)
                    except ColdStartError as exc:
                        assert ranked is None
                        assert bitwise(exc.fallback) == bitwise(fallback)
                        cold += 1
                        continue
                    assert res.future_location == lp
                    assert bitwise(res.ranked) == bitwise(ranked)
            # and with the walk choosing the future cell
            for trip in paths[:80]:
                q = Query(trip.cells[:max(1, len(trip.cells) // 2)], 1.0, top_k=n)
                try:
                    res = predict_destination(m, q, hist, index, grid)
                except ColdStartError:
                    continue
                ranked, _ = oracles.score_destinations(m, q.cells[0], res.future_location)
                assert bitwise(res.ranked) == bitwise(ranked)
            return cold

        assert 0 < check(model) < n * n
        frozen = [model.candidates(s) for s in range(n)]
        rows = {}
        for cell in (0, n // 2):
            nbrs = neighbors(cell, g)
            rows[cell] = {b: (i + 1) / (len(nbrs) * (len(nbrs) + 1) / 2)
                          for i, b in enumerate(nbrs)}
        snap, _ = apply_update(model, sstp, ChangeSet(model.epoch + 1, rows))
        assert not np.array_equal(snap.totals, model.totals)
        check(snap)
        # the snapshot built its own tables, and the model kept its own
        assert all(snap.candidates(s) is not frozen[s] or not frozen[s] for s in range(n))
        assert [model.candidates(s) for s in range(n)] == frozen
        check(model)

    def test_concurrent_queries_match_sequential(self):
        """Four threads sharing one fresh model and index, whose tables the
        queries fill as they go, answer as one thread does."""
        paths, grid, _, model, hist, index = tiny_world(g=6, n_trips=500, seed=4)
        queries = [Query(t.cells[:cut], float(cut - 1), top_k=5)
                   for t in paths[:150] for cut in range(1, len(t.cells) + 1)]

        def answers(m, idx, order):
            out = {}
            for i in order:
                try:
                    res = predict_destination(m, queries[i], hist, idx, grid)
                    out[i] = (res.future_location, res.future_steps, bitwise(res.ranked))
                except ColdStartError as exc:
                    out[i] = bitwise(exc.fallback)
            return out

        expected = answers(model, index, range(len(queries)))
        shared_model, shared_index = model.copy(), HistoryIndex.build(paths)
        orders = [list(range(len(queries))) for _ in range(4)]
        for seed, order in enumerate(orders):
            random.Random(seed).shuffle(order)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda o: answers(shared_model, shared_index, o), orders,
                                    timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert all(g == expected for g in got)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            Query([], 0.0)
        with pytest.raises(ValueError):
            Query([0], -1.0)
        with pytest.raises(ValueError):
            Query([0], math.nan)
        with pytest.raises(ValueError):
            Query([0], math.inf)
        with pytest.raises(ValueError):
            Query([0], 0.0, top_k=0)

    @pytest.mark.parametrize("cells, named", [
        ([5, -1], "current cell -1"), ([36], "start cell 36"),
        ([-1, 5], "start cell -1"), ([5, 7, 36], "current cell 36")])
    def test_cell_outside_grid_rejected(self, cells, named):
        """A start or current cell outside 0..n_cells-1 raises naming it,
        where a negative one used to read another cell's row, and caches
        no candidate table."""
        *_, model, hist, index = tiny_world(g=6, n_trips=150, seed=2)
        with pytest.raises(ValueError, match=named):
            predict_destination(model, Query(cells, 1.0), hist, index, unit_grid(6))
        assert model._candidates == {}

    @pytest.mark.parametrize("ask", [predict_destination, answer])
    def test_walked_future_cell_outside_grid_rejected(self, ask):
        """A history path may hold cells the model's grid does not: the
        walk's future cell is refused naming it, not read out of bounds."""
        *_, model, hist, _ = tiny_world(g=6, n_trips=150, seed=2)
        index = HistoryIndex.build([CellPath("x", [0, 1, 50, 51], 3.0)] * 5)
        with pytest.raises(ValueError, match="future cell 50 outside 0..35"):
            ask(model, Query([0, 1], 1.0), hist, index, unit_grid(6))


def result_fields(res: PredictionResult):
    """Every field of a result, floats as their hex strings."""
    return (bitwise(res.ranked), res.future_location, res.predicted_length_km.hex(),
            res.estimated_total_km.hex(), res.extrapolated, res.future_no_match,
            res.future_steps, res.cold_start)


def reference_answer(model, q, hist, index, grid, force):
    """(answer's result, None), or on a cold start (answer's result, the
    ColdStartError's fallback and walk), assembled from the public helpers
    and the scoring oracle, every field by keyword."""
    est = estimate_total_distance(hist, q.d_t)
    dp = predicted_length(est.km, min(q.d_t, est.km)) if q.d_t > 0 and est.km > 0 else 0.0
    future = (FutureLocation(q.cells[-1], 0, False) if force else
              infer_future_location(q.cells, dp, index, step_km=grid.mean_pitch_km))
    ranked, fallback = oracles.score_destinations(model, q.cells[0], future.cell)
    if ranked is None:
        return PredictionResult(
            ranked=fallback[:q.top_k], future_location=future.cell, predicted_length_km=0.0,
            estimated_total_km=0.0, future_no_match=future.no_match,
            future_steps=future.steps, cold_start=True), (fallback, future)
    return PredictionResult(
        ranked=ranked[:q.top_k], future_location=future.cell, predicted_length_km=dp,
        estimated_total_km=est.km, extrapolated=est.extrapolated,
        future_no_match=future.no_match, future_steps=future.steps), None


def check_against_reference(model, q, hist, index, grid, force) -> PredictionResult:
    """answer, and predict_destination or its ColdStartError, equal the
    reference in every field, floats bit for bit; returns the reference."""
    want, cold = reference_answer(model, q, hist, index, grid, force)
    got = answer(model, q, hist, index, grid, force_future_to_current=force)
    assert result_fields(got) == result_fields(want)
    assert math.copysign(1.0, got.predicted_length_km) == 1.0
    if cold is None:
        res = predict_destination(model, q, hist, index, grid, force_future_to_current=force)
        assert result_fields(res) == result_fields(want)
    else:
        with pytest.raises(ColdStartError) as err:
            predict_destination(model, q, hist, index, grid, force_future_to_current=force)
        fallback, future = cold
        assert bitwise(err.value.fallback) == bitwise(fallback)
        assert type(err.value.future) is FutureLocation and err.value.future == future
    return want


class TestAnswer:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 6), st.integers(5, 120), st.integers(0, 2**16),
           st.sampled_from([0.0, 0.3]), st.sampled_from([0, 2, 4]), st.booleans(),
           st.integers(1, 6), st.floats(0.0, 12.0),
           st.lists(st.tuples(st.lists(st.integers(0, 35), min_size=1, max_size=4),
                              st.floats(0.0, 12.0)), max_size=6),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 12.0)), max_size=10))
    def test_warm_equals_predict_cold_equals_fallback(self, g, n_trips, seed, detour_rate,
                                                      max_detour, force, top_k, d_t, drawn,
                                                      cuts):
        """On small worlds, predict_destination and answer equal a reference
        built from the public helpers and the scoring oracle: a query whose
        start has candidates gets its ranking, budget, estimate and walk
        with cold_start unset; any other gets the fallback from the walked
        cell, cut to top_k, with the walk's cell, steps and no-match flag,
        a budget and estimate of 0.0, and cold_start set. Every cell is
        asked as a start, a whole trip is asked past the histogram's
        support, and every query is asked of the world's history and of
        one trip's, where most cells match nothing."""
        paths, _ = generate_synthetic(g, n_trips, seed, detour_rate)
        grid, n = synthetic_grid(g), g * g
        model = train_initial(build_sstp(paths, g), count_start_dest(paths), max_detour)
        hist = build_histogram(paths, 1.0)
        queries = [Query([s], d_t, top_k) for s in range(n)]
        queries += [Query([c % n for c in cells], km, top_k) for cells, km in drawn]
        for i, (f, km) in enumerate(cuts):
            trip = paths[i % len(paths)].cells
            queries.append(Query(trip[:max(1, math.ceil(len(trip) * f))], km, top_k))
        queries.append(Query(paths[0].cells, hist.upper_edges[-1] + d_t, top_k))
        for index in (HistoryIndex.build(paths), HistoryIndex.build(paths[:1])):
            for q in queries:
                check_against_reference(model, q, hist, index, grid, force)

    def test_flagged_queries_equal_the_reference(self):
        """Extrapolated, no-match, forced-current and cold-start queries
        each occur, and each equals the reference."""
        paths, grid, _, model, hist, index = tiny_world(n_trips=12)
        unseen = next(c for c in range(25) if c not in {p.cells[0] for p in paths})
        far = hist.upper_edges[-1] + 1.0
        elsewhere = HistoryIndex.build([CellPath("x", [100, 101], 1.0)])
        cases = [(Query(paths[0].cells, far), index, False),
                 (Query(paths[0].cells[:2], 1.0), elsewhere, False),
                 (Query(paths[1].cells[:3], 2.0), index, True),
                 (Query([unseen], 0.5), index, False)]
        got = [check_against_reference(model, q, hist, idx, grid, force)
               for q, idx, force in cases]
        assert got[0].extrapolated and got[0].predicted_length_km == 0.0
        assert got[1].future_no_match
        assert got[2].future_location == paths[1].cells[2] and got[2].future_steps == 0
        assert got[3].cold_start


class TestDeviationMetrics:
    def result(self, cells):
        return PredictionResult(ranked=[(c, 1.0 / len(cells)) for c in cells],
                                future_location=cells[0], predicted_length_km=0.0,
                                estimated_total_km=0.0)

    def test_perfect_prediction(self):
        grid = unit_grid(10)
        rep = deviation_metrics([self.result([42])], [42], grid, top_n=1)
        assert rep.mean_km == 0.0

    def test_across_queries(self):
        grid = unit_grid(10)
        # cells 56, 57 and 58 lie 1, 2 and 3 km east of 55, so that query
        # deviates 2 km; cell 51 lies four rows below cell 11, 4 km
        rep = deviation_metrics([self.result([56, 57, 58]), self.result([11])], [55, 51],
                                grid)
        assert rep.mean_km == pytest.approx(3.0, abs=1e-3)

    def test_haversine_mode_scales_with_pitch(self):
        grid = unit_grid(10)
        rep = deviation_metrics([self.result([56])], [55], grid, top_n=1)
        assert rep.mean_km == pytest.approx(1.0, abs=1e-3)

    def test_errors(self):
        grid = unit_grid(4)
        with pytest.raises(ValueError):
            deviation_metrics([], [], grid)
        with pytest.raises(ValueError):
            deviation_metrics([self.result([0])], [0, 1], grid)
