import numpy as np
import pytest

from edp.errors import FormatError
from edp.grid import decode_cell, l1_distance, neighbors, rect_beyond
from edp.model import random_sstp, train_initial
from edp.update import (ChangeSet, apply_update, find_taa, load_changeset,
                        nearest_changed_cell)


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


def retrain_reference(sstp, rows, max_detour):
    mutated = sstp.copy()
    for cell, row in rows.items():
        mutated.replace_row(cell, row)
    return train_initial(mutated, None, max_detour)


class TestFindTaa:
    def test_zero_detour_is_rectangle(self):
        taa = find_taa(56, 62, 0, 10)
        assert taa.cells(0) == rect_beyond(56, 62, 10)

    def test_two_detour_adds_facing_borders(self):
        taa = find_taa(56, 62, 2, 10)
        top = {50, 51, 52}
        right = {63, 73, 83, 93}
        assert taa.cells(2) == taa.cells(0) | top | right

    def test_growth_strictly_monotone(self):
        taa = find_taa(56, 62, 8, 10)
        sizes = [len(s) for s in taa.sets]
        assert sizes == sorted(set(sizes))
        for small, big in zip(taa.sets, taa.sets[1:]):
            assert small < big

    def test_same_row_ray_growth(self):
        taa = find_taa(55, 52, 2, 10)
        assert taa.cells(0) == {50, 51, 52}
        assert taa.cells(2) == {50, 51, 52, 53}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            find_taa(5, 5, 2, 10)
        with pytest.raises(ValueError):
            find_taa(5, 6, 3, 10)


class TestNearestChangedCell:
    def test_tie_breaks_to_smaller_id(self):
        cs = ChangeSet(1, uniform_rows([5, 50], 10))
        assert l1_distance(0, 5, 10) == l1_distance(0, 50, 10) == 5
        assert nearest_changed_cell(0, cs, 10) == 5

    def test_singleton(self):
        cs = ChangeSet(1, uniform_rows([0], 10))
        assert nearest_changed_cell(99, cs, 10) == 0

    def test_adjacent_tie(self):
        cs = ChangeSet(1, uniform_rows([54, 56], 10))
        assert nearest_changed_cell(55, cs, 10) == 54


class TestApplyUpdateExact:
    @pytest.mark.parametrize("g,seed,cells,detour", [
        (6, 3, (7, 20), 4),
        (5, 1, (3,), 8),
        (7, 9, (0, 24, 48), 2),
        (4, 2, (5,), 0),
        (9, 5, (0, 80), 4),  # 81 affected origins: more than one wavefront batch
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

    def test_central_change_with_big_budget_touches_everything(self):
        # the detour budget reaches around a central change on a small grid,
        # so nothing survives; still exact, just not cheaper than retraining
        g = 5
        sstp = random_sstp(g, 1)
        model = train_initial(sstp, None, 8)
        rows = skewed_rows([12], g, 2)
        updated, stats = apply_update(model, sstp.copy(), ChangeSet(1, rows))
        reference = retrain_reference(sstp, rows, 8)
        assert np.array_equal(updated.layers, reference.layers)
        assert stats.entries_recomputed == stats.entries_full

    def test_noop_change_preserves_values(self):
        g = 6
        sstp = random_sstp(g, 4)
        model = train_initial(sstp, None, 4)
        rows = {9: sstp.row(9)}
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
        assert sstp.prob(5, 1) == rows[5][1]


class TestApplyUpdatePaper:
    def test_untouched_entries_bitwise_stable(self):
        g = 8
        sstp = random_sstp(g, 5)
        model = train_initial(sstp, None, 4)
        rows = skewed_rows([27], g, 7)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        for origin in range(g * g):
            if origin == 27:
                continue
            otp = 27
            region = find_taa(origin, otp, 4, g).all_cells
            outside = sorted(set(range(g * g)) - set(region))
            assert np.array_equal(updated.layers[:, origin, outside],
                                  model.layers[:, origin, outside])

    def test_in_region_entries_equal_retrain(self):
        g = 8
        sstp = random_sstp(g, 5)
        model = train_initial(sstp, None, 4)
        rows = skewed_rows([27], g, 7)
        updated, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        reference = retrain_reference(sstp, rows, 4)
        for origin in range(g * g):
            region = range(g * g) if origin == 27 else find_taa(origin, 27, 4, g).all_cells
            inside = sorted(region)
            assert np.array_equal(updated.layers[:, origin, inside],
                                  reference.layers[:, origin, inside])
            assert np.array_equal(updated.totals[origin, inside],
                                  reference.totals[origin, inside])

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
        region = find_taa(origin, changed, 2, g).all_cells
        assert far not in region
        assert l1_distance(origin, changed, g) + l1_distance(changed, far, g) \
            == l1_distance(origin, far, g) + 2
        assert abs(paper.totals[origin, far] - exact.totals[origin, far]) > 1e-9

    def test_paper_recomputes_fewer_entries(self):
        g = 8
        sstp = random_sstp(g, 5)
        model = train_initial(sstp, None, 4)
        rows = skewed_rows([27], g, 7)
        _, stats_p = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
        _, stats_e = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
        assert stats_p.entries_recomputed <= stats_e.entries_recomputed
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

    def test_validation(self):
        with pytest.raises(ValueError):
            ChangeSet(1, {}).validate(4)
        with pytest.raises(ValueError):
            ChangeSet(1, {0: {1: 0.5, 2: 0.5}}).validate(4)  # 2 not adjacent to 0
