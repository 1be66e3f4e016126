import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from edp.errors import FormatError
from edp.grid import decode_cell, l1_distance, neighbors, step_pairs
from edp.model import (SSTPMatrix, TransitionModel, load_model, random_sstp, save_model,
                       train_initial)
from edp.update import (ChangeSet, _affected_mask_paper, _first_affected_layer, apply_update,
                        load_changeset, refresh_in_place)


def uniform_rows(cells, g):
    rows = {}
    for cell in cells:
        nbrs = neighbors(cell, g)
        rows[cell] = {b: 1.0 / len(nbrs) for b in nbrs}
    return rows


def skewed_rows(cells, g, seed=0):
    rng = np.random.default_rng(seed)
    rows = {}
    for cell in cells:
        nbrs = neighbors(cell, g)
        w = rng.random(len(nbrs)) + 0.05
        w /= w.sum()
        rows[cell] = {b: float(p) for b, p in zip(nbrs, w)}
    return rows


def sparse_rows(cells, g, seed=0):
    """Rows that zero about half of each cell's moves, keeping at least one."""
    rng = np.random.default_rng(seed)
    rows = {}
    for cell in cells:
        nbrs = neighbors(cell, g)
        w = (rng.random(len(nbrs)) + 0.05) * (rng.random(len(nbrs)) < 0.5)
        w[rng.integers(len(nbrs))] += 1.0
        rows[cell] = {b: float(p) for b, p in zip(nbrs, w / w.sum())}
    return rows


def paper_mask(changed, max_detour, g):
    return _affected_mask_paper(changed, max_detour, g)


def region(origin, changed, max_detour, g):
    """Destinations paper mode refreshes for one origin."""
    return set(np.flatnonzero(paper_mask(changed, max_detour, g)[origin]).tolist())


@st.composite
def change_sets(draw):
    g = draw(st.integers(2, 9))
    changed = draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=5, unique=True))
    return g, sorted(changed), 2 * draw(st.integers(0, 5))


def retrain_reference(sstp, rows, max_detour):
    mutated = sstp.copy()
    for cell, row in rows.items():
        mutated.replace_row(cell, row)
    return train_initial(mutated, None, max_detour)


class TestFindTaa:
    """The trip affected area (TAA) of one origin, as a paper-mode mask row."""

    def test_zero_detour_is_rectangle(self):
        assert region(56, [62], 0, 10) == oracles.brute_beyond(56, 62, 10)

    def test_two_detour_adds_facing_borders(self):
        top = {50, 51, 52}
        right = {63, 73, 83, 93}
        assert region(56, [62], 2, 10) == region(56, [62], 0, 10) | top | right

    def test_growth_strictly_monotone(self):
        sets = [region(56, [62], d, 10) for d in range(0, 10, 2)]
        for small, big in zip(sets, sets[1:]):
            assert small < big

    def test_same_row_ray_growth(self):
        assert region(55, [52], 0, 10) == {50, 51, 52}
        assert region(55, [52], 2, 10) == {50, 51, 52, 53}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            paper_mask([6], 3, 10)
        with pytest.raises(ValueError):
            paper_mask([6], -2, 10)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(change_sets())
    def test_matches_set_growth_oracle(self, case):
        g, changed, max_detour = case
        assert np.array_equal(paper_mask(changed, max_detour, g),
                              oracles.paper_mask(changed, max_detour, g))


class TestNearestChangedCell:
    """Each origin's region is anchored at its nearest changed cell."""

    def test_tie_breaks_to_smaller_id(self):
        assert l1_distance(0, 5, 10) == l1_distance(0, 50, 10) == 5
        assert region(0, [5, 50], 0, 10) == oracles.rect_beyond(0, 5, 10)

    def test_singleton(self):
        assert region(99, [0], 0, 10) == {0}

    def test_adjacent_tie(self):
        assert region(55, [56, 54], 0, 10) == {50, 51, 52, 53, 54}


class TestApplyUpdateExact:
    @pytest.mark.parametrize("g,seed,cells,detour", [
        (6, 3, (7, 20), 4),
        (5, 1, (3,), 8),
        (7, 9, (0, 24, 48), 2),
        (4, 2, (5,), 0),
        (9, 5, (0, 80), 4),
    ])
    def test_matches_full_retrain(self, g, seed, cells, detour):
        sstp = random_sstp(g, seed)
        model = train_initial(sstp, None, detour)
        rows = skewed_rows(cells, g, seed + 1)
        live = sstp.copy()
        updated, stats = apply_update(model, live, ChangeSet(1, rows), mode="exact")
        reference = retrain_reference(sstp, rows, detour)
        assert np.array_equal(updated.layers, reference.layers)
        assert np.array_equal(updated.totals, reference.totals)
        assert stats.entries_recomputed < stats.entries_full

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_full_retrain_on_random_changes(self, data):
        g = data.draw(st.integers(2, 11))
        cells = data.draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=4,
                                   unique=True))
        detour = 2 * data.draw(st.integers(0, 4))
        seed = data.draw(st.integers(0, 2**16))
        sstp = random_sstp(g, seed)
        model = train_initial(sstp, None, detour)
        rows = skewed_rows(cells, g, seed + 1)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
        reference = retrain_reference(sstp, rows, detour)
        assert np.array_equal(updated.layers, reference.layers)
        assert np.array_equal(updated.totals, reference.totals)

    def test_central_change_with_big_budget_touches_everything(self):
        # the detour budget reaches around a central change on a small grid,
        # so every origin is refreshed; the low layers of pairs far from the
        # change are still read as stored
        g = 5
        sstp = random_sstp(g, 1)
        model = train_initial(sstp, None, 8)
        rows = skewed_rows([12], g, 2)
        updated, stats = apply_update(model, sstp.copy(), ChangeSet(1, rows))
        reference = retrain_reference(sstp, rows, 8)
        assert np.array_equal(updated.layers, reference.layers)
        assert stats.origins_recomputed == g * g
        first = oracles.first_affected_layer([12], model.n_layers, g)
        assert stats.entries_recomputed == int((model.n_layers - first).sum())

    @pytest.mark.parametrize("g", [5, 35])
    def test_corner_change_at_zero_detour_refreshes_its_row_and_column(self, g):
        # a shortest route uses the corner's row only when it starts there or
        # passes through it, and only routes from row 0 or column 0 can
        sstp = random_sstp(g, 3)
        model = train_initial(sstp, None, 0)
        rows = skewed_rows([0], g, 4)
        updated, stats = apply_update(model, sstp.copy(), ChangeSet(1, rows))
        assert stats.origins_recomputed == 2 * g - 1
        assert np.array_equal(updated.layers, retrain_reference(sstp, rows, 0).layers)

    def test_noop_change_preserves_values(self):
        g = 6
        sstp = random_sstp(g, 4)
        model = train_initial(sstp, None, 4)
        rows = {9: oracles.sstp_row(sstp, 9)}
        live = sstp.copy()
        updated, _ = apply_update(model, live, ChangeSet(1, rows), mode="exact")
        assert np.abs(updated.totals - model.totals).max() <= 1e-12

    def test_epoch_advances_and_regression_rejected(self):
        g = 4
        sstp = random_sstp(g, 0)
        model = train_initial(sstp, None, 2)
        model.epoch = 5
        cs = ChangeSet(5, uniform_rows([3], g))
        with pytest.raises(ValueError):
            apply_update(model, sstp.copy(), cs, mode="exact")
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(6, uniform_rows([3], g)))
        assert updated.epoch == 6

    def test_epoch_past_u64_rejected_before_mutation(self):
        """The model file stores the epoch as u64: a change set past it is
        refused before the matrix changes, and the last u64 saves."""
        g = 4
        sstp = random_sstp(g, 0)
        model = train_initial(sstp, None, 2)
        rows = uniform_rows([3], g)
        for epoch in (-1, 2**64, 2**70):
            with pytest.raises(ValueError, match="outside 0..2"):
                ChangeSet(epoch, rows).validate(g)
            live = sstp.copy()
            with pytest.raises(ValueError, match="outside 0..2"):
                apply_update(model, live, ChangeSet(epoch, rows))
            assert np.array_equal(live.probs, sstp.probs)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(2**64 - 1, rows))
        assert updated.epoch == 2**64 - 1

    def test_refresh_shares_trip_counts_and_starts_an_empty_candidate_table(self):
        g = 4
        sstp = random_sstp(g, 2)
        model = train_initial(sstp, ({0: {5: 2, 15: 1}, 3: {12: 4}}, {0: 3, 3: 4}), 2)
        assert model.candidates(0)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(1, skewed_rows([6], g, 1)))
        assert updated.start_counts is model.start_counts
        assert updated.start_totals is model.start_totals
        assert updated._candidates == {}
        assert [d for d, _, _ in updated.candidates(0)] == [5, 15]
        assert updated.candidates(0) != model.candidates(0)

    def test_dimension_mismatch(self):
        model = train_initial(random_sstp(4, 0), None, 2)
        with pytest.raises(ValueError):
            apply_update(model, random_sstp(5, 0), ChangeSet(1, uniform_rows([0], 5)))

    def test_changed_origin_recomputes_whole_row(self):
        g = 5
        sstp = random_sstp(g, 6)
        model = train_initial(sstp, None, 2)
        rows = skewed_rows([12], g, 3)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
        reference = retrain_reference(sstp, rows, 2)
        assert np.array_equal(updated.layers[:, 12, :], reference.layers[:, 12, :])

    def test_sstp_mutated_in_place(self):
        g = 4
        sstp = random_sstp(g, 1)
        model = train_initial(sstp, None, 0)
        rows = uniform_rows([5], g)
        apply_update(model, sstp, ChangeSet(1, rows))
        assert oracles.sstp_prob(sstp, 5, 1) == rows[5][1]


class TestRefreshInPlace:
    """The one refresh core writes into the model it is given; apply_update
    is that core on a copy."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_snapshot_refresh_and_retraining(self, data):
        g = data.draw(st.integers(2, 11))
        cells = data.draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=4,
                                   unique=True))
        detour = 2 * data.draw(st.integers(0, 4))
        mode = data.draw(st.sampled_from(["exact", "paper"]))
        seed = data.draw(st.integers(0, 2**16))
        sstp = (data.draw(strategies.sparse_sstp(g)) if data.draw(st.booleans())
                else random_sstp(g, seed))
        rows = skewed_rows(cells, g, seed + 1)
        model = train_initial(sstp, None, detour)
        snapshot, snapshot_stats = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode)
        assert np.array_equal(model.layers, train_initial(sstp, None, detour).layers)
        target = model.copy()
        stats = refresh_in_place(target, ChangeSet(1, rows), mode)
        assert np.array_equal(target.layers, snapshot.layers)
        assert np.array_equal(target.totals, snapshot.totals)
        assert target.epoch == snapshot.epoch == 1
        for name in ("mode", "epoch", "origins_recomputed", "entries_recomputed",
                     "entries_full"):
            assert getattr(stats, name) == getattr(snapshot_stats, name)
        # plain ints, which json and the benchmark's records take
        assert {type(getattr(stats, name)) for name in ("origins_recomputed",
                                                        "entries_recomputed")} == {int}
        # both modes run the one recursion, so they report its counts
        other = refresh_in_place(model.copy(), ChangeSet(1, rows),
                                 "paper" if mode == "exact" else "exact")
        for name in ("origins_recomputed", "entries_recomputed", "entries_full"):
            assert getattr(other, name) == getattr(stats, name)
        reference = retrain_reference(sstp, rows, detour)
        if mode == "exact":
            assert np.array_equal(target.layers, reference.layers)
            assert np.array_equal(target.totals, reference.totals)
        else:
            inside = oracles.paper_mask(cells, detour, g)
            assert np.array_equal(target.layers[:, inside], reference.layers[:, inside])
            assert np.array_equal(target.totals[inside], reference.totals[inside])
            assert np.array_equal(target.layers[:, ~inside], model.layers[:, ~inside])
            assert np.array_equal(target.totals[~inside], model.totals[~inside])

    def test_candidates_read_before_answer_from_new_totals(self):
        g = 5
        sstp = random_sstp(g, 3)
        model = train_initial(sstp, ({0: {12: 2, 24: 1}}, {0: 3}), 4)
        before = model.candidates(0)
        refresh_in_place(model, ChangeSet(1, skewed_rows([6], g, 2)))
        after = model.candidates(0)
        assert after != before
        assert after == tuple((d, p, model.totals.item(0, d)) for d, p, _ in before)

    def test_loaded_model_refreshes_in_place(self, tmp_path):
        g = 6
        sstp = random_sstp(g, 5)
        save_model(train_initial(sstp, None, 4), tmp_path / "m.edp")
        loaded = load_model(tmp_path / "m.edp")
        layers = loaded.layers
        rows = skewed_rows([0, 20], g, 6)
        refresh_in_place(loaded, ChangeSet(1, rows))
        assert loaded.layers is layers
        reference = retrain_reference(sstp, rows, 4)
        assert np.array_equal(loaded.layers, reference.layers)
        assert np.array_equal(loaded.totals, reference.totals)

    @pytest.mark.parametrize("layout,message", [("unaligned", "aligned to 8 bytes"),
                                                ("read-only", "writable"),
                                                ("strided", "C-contiguous")])
    def test_layers_it_cannot_write_fast_raise_before_any_mutation(self, layout, message):
        g = 4
        sstp = random_sstp(g, 0)
        trained = train_initial(sstp, None, 2)
        layers = trained.layers
        if layout == "unaligned":
            buf = bytearray(layers.nbytes + 4)
            layers = np.frombuffer(buf, np.float64, layers.size, 4).reshape(layers.shape)
            layers[...] = trained.layers
        elif layout == "read-only":
            layers = layers.copy()
            layers.flags.writeable = False
        else:
            layers = np.repeat(layers, 2, axis=2)[:, :, ::2]
        model = TransitionModel(g=g, max_detour=2, layers=layers, totals=trained.totals.copy(),
                                start_counts={}, start_totals={})
        with pytest.raises(ValueError, match=f"layers must be {message}"):
            refresh_in_place(model, ChangeSet(1, uniform_rows([5], g)))
        assert np.array_equal(model.layers, trained.layers)
        assert model.epoch == 0

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_chain_reads_the_matrix_from_the_model(self, data):
        """A chain of refreshes through refresh_in_place alone carries the
        training matrix with each change set's rows written in, bit for
        bit; in exact mode the model is that matrix's retraining."""
        g = data.draw(st.integers(2, 11))
        detour = 2 * data.draw(st.integers(0, 4))
        mode = data.draw(st.sampled_from(["exact", "paper"]))
        seed = data.draw(st.integers(0, 2**16))
        sstp = (data.draw(strategies.sparse_sstp(g)) if data.draw(st.booleans())
                else random_sstp(g, seed))
        model = train_initial(sstp, None, detour)
        expected = sstp.copy()
        for epoch in range(1, data.draw(st.integers(1, 3)) + 1):
            cells = data.draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=4,
                                       unique=True))
            make_rows = sparse_rows if data.draw(st.booleans()) else skewed_rows
            rows = make_rows(cells, g, seed + epoch)
            for cell, row in rows.items():
                expected.replace_row(cell, row)
            refresh_in_place(model, ChangeSet(epoch, rows), mode)
            assert np.array_equal(model.single_step().probs, expected.probs)
        if mode == "exact":
            reference = train_initial(expected, None, detour)
            assert np.array_equal(model.layers, reference.layers)
            assert np.array_equal(model.totals, reference.totals)


class TestSingleStep:
    """A model's layer-0 one-step entries are its single-step matrix."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_trained_and_refreshed_matrix(self, tmp_path_factory, data):
        g = data.draw(st.integers(2, 11))
        detour = 2 * data.draw(st.integers(0, 4))
        seed = data.draw(st.integers(0, 2**16))
        sstp = random_sstp(g, seed)
        model = train_initial(sstp, None, detour)
        assert np.array_equal(model.single_step().probs, sstp.probs)
        for epoch in (1, 2):
            cells = data.draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=4,
                                       unique=True))
            mode = data.draw(st.sampled_from(["exact", "paper"]))
            model, _ = apply_update(model, sstp, ChangeSet(epoch, skewed_rows(cells, g, seed)),
                                    mode=mode)
            assert np.array_equal(model.single_step().probs, sstp.probs)
        path = tmp_path_factory.mktemp("model") / "m.edp"
        save_model(model, path)
        assert np.array_equal(load_model(path).single_step().probs, sstp.probs)


class TestStaleMatrixGuard:
    """apply_update refuses a matrix whose unchanged rows are not the model's."""

    def trained(self, g=5):
        sstp = random_sstp(g, 1)
        return sstp, train_initial(sstp, None, 4), skewed_rows([12], g, 3)

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_raises_before_any_mutation(self, mode):
        _, model, rows = self.trained()
        other = random_sstp(5, 2)
        probs, layers, totals = other.probs.copy(), model.layers.copy(), model.totals.copy()
        with pytest.raises(ValueError, match=r"cells \[0, 1, 2, 3, 4\]"):
            apply_update(model, other, ChangeSet(1, rows), mode=mode)
        assert np.array_equal(other.probs, probs)
        assert np.array_equal(model.layers, layers) and np.array_equal(model.totals, totals)
        assert model.epoch == 0

    def test_names_the_differing_cell(self):
        sstp, model, rows = self.trained()
        sstp.replace_row(7, uniform_rows([7], 5)[7])
        with pytest.raises(ValueError, match=r"cells \[7\]"):
            apply_update(model, sstp, ChangeSet(1, rows))
        assert oracles.sstp_row(sstp, 12) != rows[12]

    def test_changed_cell_row_may_differ(self):
        # as on a rerun after the refreshed model failed to save: the matrix
        # already holds the change set's rows
        sstp, model, rows = self.trained()
        live = sstp.copy()
        live.replace_row(12, rows[12])
        updated, _ = apply_update(model, live, ChangeSet(1, rows))
        assert np.array_equal(updated.layers, retrain_reference(sstp, rows, 4).layers)


class TestFirstAffectedLayer:
    """The refresh recomputes exactly the entries a change can move."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(change_sets(), st.integers(0, 2**16))
    def test_matches_taint_oracle(self, case, seed):
        # every move of a dense matrix carries probability, so the walks are
        # the grid's and the first layers are the geometric ones
        g, changed, max_detour = case
        n_layers = max_detour // 2 + 1
        sstp = random_sstp(g, seed)
        for cell, row in skewed_rows(changed, g, seed).items():
            sstp.replace_row(cell, row)
        assert np.array_equal(_first_affected_layer(sstp, changed, n_layers),
                              oracles.first_affected_layer(changed, n_layers, g))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_between_geometric_and_value_taint_on_sparse_matrices(self, data):
        # no entry a change moves is skipped (<= the value-level taint), and
        # no entry is recomputed that the grid alone rules out (>= geometric)
        g = data.draw(st.integers(2, 7))
        sstp = data.draw(strategies.sparse_sstp(g))
        changed = sorted(data.draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=4,
                                            unique=True)))
        n_layers = data.draw(st.integers(1, 4))
        for cell, row in sparse_rows(changed, g, data.draw(st.integers(0, 2**16))).items():
            sstp.replace_row(cell, row)
        first = _first_affected_layer(sstp, changed, n_layers)
        assert np.all(oracles.first_affected_layer(changed, n_layers, g) <= first)
        assert np.all(first <= oracles.first_affected_layer(changed, n_layers, g, sstp))


class TestSparseMatrixRefresh:
    """Refresh on matrices where some moves, and all moves into some cells,
    have probability 0."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_retrain(self, data):
        g = data.draw(st.integers(2, 11))
        sstp = data.draw(strategies.sparse_sstp(g))
        cells = data.draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=4,
                                   unique=True))
        detour = 2 * data.draw(st.integers(0, 4))
        seed = data.draw(st.integers(0, 2**16))
        rows = (sparse_rows if data.draw(st.booleans()) else skewed_rows)(cells, g, seed)
        model = train_initial(sstp, None, detour)
        reference = retrain_reference(sstp, rows, detour)
        exact, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
        assert np.array_equal(exact.layers, reference.layers)
        assert np.array_equal(exact.totals, reference.totals)
        paper, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        inside = oracles.paper_mask(cells, detour, g)
        assert np.array_equal(paper.layers[:, inside], reference.layers[:, inside])
        assert np.array_equal(paper.totals[inside], reference.totals[inside])
        assert np.array_equal(paper.layers[:, ~inside], model.layers[:, ~inside])
        assert np.array_equal(paper.totals[~inside], model.totals[~inside])

    def test_change_to_a_cell_no_move_enters_refreshes_its_own_row(self):
        # only a walk that starts at cell 12 can leave it
        g = 5
        rng = np.random.default_rng(8)
        src, dst, direction = step_pairs(g)
        weights = np.zeros((g * g, 4))
        weights[src, direction] = (rng.random(src.size) + 0.05) * (dst != 12)
        sstp = SSTPMatrix.from_weights(g, weights)
        model = train_initial(sstp, None, 4)
        rows = skewed_rows([12], g, 9)
        updated, stats = apply_update(model, sstp.copy(), ChangeSet(1, rows))
        assert stats.origins_recomputed == 1
        reference = retrain_reference(sstp, rows, 4)
        assert np.array_equal(updated.layers, reference.layers)
        assert np.array_equal(updated.totals, reference.totals)


class TestApplyUpdatePaper:
    def test_untouched_entries_bitwise_stable(self):
        g = 8
        sstp = random_sstp(g, 5)
        model = train_initial(sstp, None, 4)
        rows = skewed_rows([27], g, 7)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        outside = ~oracles.paper_mask([27], 4, g)
        assert np.array_equal(updated.layers[:, outside], model.layers[:, outside])
        assert np.array_equal(updated.totals[outside], model.totals[outside])

    def test_in_region_entries_equal_retrain(self):
        g = 8
        sstp = random_sstp(g, 5)
        model = train_initial(sstp, None, 4)
        rows = skewed_rows([27], g, 7)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        reference = retrain_reference(sstp, rows, 4)
        inside = oracles.paper_mask([27], 4, g)
        assert np.array_equal(updated.layers[:, inside], reference.layers[:, inside])
        assert np.array_equal(updated.totals[inside], reference.totals[inside])

    @pytest.mark.parametrize("g,seed,changed", [(6, 2, 14), (8, 3, 19), (5, 8, 7)])
    def test_zero_detour_single_change_matches_exact(self, g, seed, changed):
        """With no detour budget the beyond-rectangle is exactly the
        affected set, so the literal construction agrees with exact mode
        for origins in a strict quadrant (and degenerates are recomputed
        identically here too because their rays cover the changed column)."""
        sstp = random_sstp(g, seed)
        model = train_initial(sstp, None, 0)
        rows = skewed_rows([changed], g, seed)
        paper, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        exact, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
        rc, cc = decode_cell(changed, g)
        for origin in range(g * g):
            ro, co = decode_cell(origin, g)
            if origin != changed and ro != rc and co != cc:
                assert np.abs(paper.totals[origin] - exact.totals[origin]).max() <= 1e-12

    def test_detour_budget_divergence_is_real(self):
        """The border-growth region under-covers once detours are allowed: a
        route may pass through the changed cell from outside the grown
        rectangle. Pin the divergence so nobody mistakes paper mode for an
        exact method."""
        g = 8
        sstp = random_sstp(g, 11)
        model = train_initial(sstp, None, 2)
        changed = 5 * g + 3  # (5, 3)
        origin = 4 * g + 4   # (4, 4), strict quadrant relative to the change
        far = 2 * g + 2      # (2, 2): reachable via the change with detour 2
        rows = skewed_rows([changed], g, 13)
        paper, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        exact, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
        assert far not in region(origin, [changed], 2, g)
        assert l1_distance(origin, changed, g) + l1_distance(changed, far, g) \
            == l1_distance(origin, far, g) + 2
        assert abs(paper.totals[origin, far] - exact.totals[origin, far]) > 1e-9

    def test_paper_recomputes_the_exact_entries(self):
        """Paper mode is the exact pass plus a write-back, so it reports
        the entries and origins the exact pass computed."""
        g = 8
        sstp = random_sstp(g, 5)
        model = train_initial(sstp, None, 4)
        rows = skewed_rows([27], g, 7)
        _, stats_p = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        _, stats_e = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
        assert stats_p.entries_recomputed == stats_e.entries_recomputed
        assert stats_p.origins_recomputed == stats_e.origins_recomputed
        assert stats_e.entries_recomputed < stats_e.entries_full


class TestChangeSetIO:
    def test_csv_round_trip(self, tmp_path):
        g = 6
        rows = skewed_rows([7, 20], g, 1)
        f = tmp_path / "c.csv"
        lines = ["epoch,cell_id,neighbor_cell_id,probability"]
        for cell, row in rows.items():
            for nbr, p in row.items():
                lines.append(f"3,{cell},{nbr},{p!r}")
        f.write_text("\n".join(lines) + "\n")
        cs = load_changeset(f, g)
        assert cs.epoch == 3
        assert cs.changed.keys() == rows.keys()
        for cell in rows:
            for nbr in rows[cell]:
                assert cs.changed[cell][nbr] == pytest.approx(rows[cell][nbr], abs=1e-15)

    def test_byte_order_mark_skipped(self, tmp_path):
        """A change set that starts with a UTF-8 byte order mark loads as
        the same file without one."""
        text = "epoch,cell_id,neighbor_cell_id,probability\n2,0,1,0.25\n2,0,4,0.75\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = load_changeset(plain, 4)
        cs = load_changeset(marked, 4)
        assert (cs.epoch, cs.changed) == (expected.epoch, expected.changed)
        assert (cs.epoch, cs.changed) == (2, {0: {1: 0.25, 4: 0.75}})

    def test_bad_rows(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("epoch,cell_id,neighbor_cell_id,probability\n1,0,1,0.4\n")
        with pytest.raises(ValueError):
            load_changeset(f, 4)  # row does not sum to 1
        f.write_text("epoch,cell_id\n1,0\n")
        with pytest.raises(FormatError):
            load_changeset(f, 4)
        f.write_text("epoch,cell_id,neighbor_cell_id,probability\n")
        with pytest.raises(FormatError):
            load_changeset(f, 4)

    @pytest.mark.parametrize("first", ["0.9", "0.5"], ids=["other-probability", "same-row"])
    def test_repeated_pair_is_format_error(self, tmp_path, first):
        f = tmp_path / "c.csv"
        f.write_text(f"epoch,cell_id,neighbor_cell_id,probability\n1,0,1,{first}\n"
                     "1,0,1,0.5\n1,0,4,0.5\n")
        with pytest.raises(FormatError, match="c.csv: cell 0 lists neighbor 1 twice"):
            load_changeset(f, 4)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(strategies.change_set_csv())
    def test_loads_exactly_the_distinct_rows_written(self, text):
        """A change set either loads as exactly the rows written, each pair
        once, ids and epoch in plain digits, under an epoch the model file
        can store, or raises FormatError or ValueError."""
        with strategies.text_file(text) as f:
            try:
                cs = load_changeset(f, 4)
            except (FormatError, ValueError):
                return
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert all(field.isascii() and field.isdigit() for row in rows for field in row[:3])
        expected: dict[int, dict[int, float]] = {}
        for _, cell, nbr, p in rows:
            expected.setdefault(int(cell), {})[int(nbr)] = float(p)
        assert len(rows) == sum(map(len, expected.values()))
        assert cs.changed == expected
        assert cs.epoch == int(rows[0][0]) < 2**64

    @pytest.mark.parametrize("row", ["1,0,0_4,0.5", "1, 0 ,1,0.5", "+1,0,4,0.5", "1,-0,1,0.5",
                                     "1,0,\u0664,0.5", "1,0,4 ,0.5"])
    def test_loose_integer_is_format_error(self, tmp_path, row):
        """An id or epoch that int() reads but is not plain ASCII digits
        used to load silently: 0_4 as neighbor 4, " 0 " as cell 0, +1 as
        epoch 1."""
        f = tmp_path / "c.csv"
        f.write_text(f"epoch,cell_id,neighbor_cell_id,probability\n1,0,1,0.5\n{row}\n",
                     encoding="utf-8")
        with pytest.raises(FormatError, match="malformed row"):
            load_changeset(f, 4)

    def test_oversized_field_is_format_error(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text(f"epoch,cell_id,neighbor_cell_id,probability\n1,0,1,{'1' * 200_000}\n")
        with pytest.raises(FormatError):
            load_changeset(f, 4)

    def test_non_utf8_bytes_are_format_error(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_bytes(b"epoch,cell_id,neighbor_cell_id,probability\n1,0,\xff,0.5\n")
        with pytest.raises(FormatError):
            load_changeset(f, 4)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(strategies.garbled_csv(strategies.CHANGESET_FIELDS),
                     strategies.corrupted_changeset()))
    def test_bad_rows_raise_format_or_value_error(self, text):
        """Garbled change sets end in FormatError or ValueError, never in a
        TypeError or KeyError; one that loads is a valid change set."""
        with strategies.text_file(text) as f:
            try:
                cs = load_changeset(f, 4)
            except (FormatError, ValueError):
                return
        cs.validate(4)
        assert all(math.isfinite(p) and p >= 0.0 for row in cs.changed.values()
                   for p in row.values())

    @pytest.mark.parametrize("row", [{1: float("nan"), 4: 1.0}, {1: -0.5, 4: 1.5}])
    def test_non_finite_or_negative_probability_rejected(self, row):
        # neither row fails the sum check: nan compares false, and -0.5 + 1.5 is 1
        with pytest.raises(ValueError):
            ChangeSet(1, {0: row}).validate(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChangeSet(1, {}).validate(4)
        with pytest.raises(ValueError):
            ChangeSet(1, {0: {1: 0.5, 2: 0.5}}).validate(4)  # 2 not adjacent to 0
