"""Acceptance suite: one test per criterion, run with -v for the per-line
pass/fail record.

Criterion 2 and the fixed-size slope clause of criterion 5 assert claims
that the underlying mathematics does not support (odd-sided grids exceed
the one-half ratio at saturation by 1/(2 g^4); the published counters grow
far slower than cubically/quartically at fixed matrix size). They are
implemented exactly as stated and fail with the measured numbers; the
companion tests pin down what is actually true.
"""

import math
import time

import numpy as np
import pytest

import oracles
from edp import baseline
from edp.errors import ColdStartError
from edp.ingest import build_histogram, generate_synthetic, synthetic_grid
from edp.model import (build_sstp, count_start_dest, l1_matrix, load_model, random_sstp,
                       save_model, train_initial)
from edp.predict import (HistoryIndex, Query, estimate_total_distance, predict_destination,
                         predicted_length)
from edp.update import ChangeSet, apply_update
from edp.grid import decode_cell, neighbors


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1OracleEquivalence:
    def test_training_matches_matrix_powers(self):
        t0 = time.perf_counter()
        worst_total = worst_layer = 0.0
        for g in range(3, 9):
            n = g * g
            L = l1_matrix(g)
            for seed in range(5):
                sstp = random_sstp(g, seed)
                powers = oracles.dense_powers(sstp.to_dense(), 2 * (g - 1) + 8)
                stack = np.stack(powers)
                for detour in (0, 2, 4, 8):
                    model = train_initial(sstp, None, detour)
                    expected_layers = [
                        np.take_along_axis(stack, (L + 2 * k)[None, :, :], axis=0)[0]
                        for k in range(detour // 2 + 1)
                    ]
                    for k, exp in enumerate(expected_layers):
                        worst_layer = max(worst_layer,
                                          float(np.abs(model.layers[k] - exp).max()))
                    exp_totals = np.sum(expected_layers, axis=0)
                    worst_total = max(worst_total,
                                      float(np.abs(model.totals - exp_totals).max()))
        elapsed = time.perf_counter() - t0
        report(1, worst_total <= 1e-12 and worst_layer <= 1e-12 and elapsed < 60,
               f"max totals err {worst_total:.2e}, max layer err {worst_layer:.2e}, "
               f"{elapsed:.1f}s")
        assert worst_total <= 1e-12
        assert worst_layer <= 1e-12
        assert elapsed < 60


class TestCriterion2DensityBound:
    def test_nonzero_ratio_bound_as_stated(self):
        """Asserts the published one-half bound verbatim. Odd-sided grids
        violate it at the saturated even steps (unequal checkerboard color
        classes), so this criterion fails by 1/(2 g^4) per offending cell;
        see the companion test for the exact characterization."""
        rep = baseline.verify_density_bound(range(2, 21))
        detail = (f"{len(rep.rows)} (g,s) cells checked, "
                  f"{len(rep.violations)} above 0.5: "
                  f"{[(g, s, round(r, 6)) for g, s, r in rep.violations[:6]]}...")
        report(2, rep.ok, detail)
        assert rep.ok, (
            "nonzero/total ratio exceeds 0.5 at "
            + ", ".join(f"(g={g}, s={s}, ratio={r:.6f})" for g, s, r in rep.violations)
        )

    def test_documented_truth(self):
        rep = baseline.verify_density_bound(range(2, 21))
        expected = {(g, s) for g in range(3, 21, 2) for s in (2 * g - 2, 2 * g)}
        assert {(g, s) for g, s, _ in rep.violations} == expected
        for g, s, ratio in rep.violations:
            assert ratio == pytest.approx(0.5 + 1 / (2 * g**4), abs=1e-12)
        even_ok = baseline.verify_density_bound(range(2, 21, 2))
        assert even_ok.ok


class TestCriterion3IncrementalUpdate:
    def test_exact_mode_equals_retrain(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for g in range(4, 9):
            detour = 2 if g <= 6 else 4
            for n_changed in (1, 2, 3):
                cells = [int(c) for c in rng.choice(g * g, size=n_changed, replace=False)]
                rows = {}
                for cell in cells:
                    nbrs = neighbors(cell, g)
                    w = rng.random(len(nbrs)) + 0.05
                    w /= w.sum()
                    rows[cell] = {b: float(p) for b, p in zip(nbrs, w)}
                sstp = random_sstp(g, 100 + g)
                model = train_initial(sstp, None, detour)
                updated, stats = apply_update(model, sstp.copy(), ChangeSet(1, rows),
                                              mode="exact")
                mutated = sstp.copy()
                for cell, row in rows.items():
                    mutated.replace_row(cell, row)
                reference = train_initial(mutated, None, detour)
                assert np.abs(updated.totals - reference.totals).max() <= 1e-12
                assert np.abs(updated.layers - reference.layers).max() <= 1e-12
                assert stats.entries_recomputed < stats.entries_full, (g, cells)
                checked += 1
        report(3, True, f"{checked} change sets: exact == retrain, strictly fewer entries")

    def test_paper_mode_matches_exact_on_zero_detour_quadrant_cases(self):
        agree = 0
        for g, changed in ((5, 7), (6, 14), (7, 31), (8, 19)):
            sstp = random_sstp(g, g)
            model = train_initial(sstp, None, 0)
            nbrs = neighbors(changed, g)
            rng = np.random.default_rng(g + 50)
            w = rng.random(len(nbrs)) + 0.05
            w /= w.sum()
            rows = {changed: {b: float(p) for b, p in zip(nbrs, w)}}
            paper, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="paper")
            exact, _ = apply_update(model, sstp.copy(), ChangeSet(1, rows), mode="exact")
            rc, cc = decode_cell(changed, g)
            for origin in range(g * g):
                ro, co = decode_cell(origin, g)
                if origin == changed or ro == rc or co == cc:
                    continue
                assert np.abs(paper.totals[origin] - exact.totals[origin]).max() <= 1e-12
                agree += 1
        report(3, True, f"paper == exact on {agree} strict-quadrant origins at detour 0")


class TestCriterion4TrainingSpeedup:
    def test_speedup_at_g50(self):
        t_start = time.perf_counter()
        rows = []
        for g in (20, 35, 50):
            sstp = random_sstp(g, 0)
            t0 = time.perf_counter()
            model = train_initial(sstp, None, 8)
            edp_s = time.perf_counter() - t0
            totals, smm_s = baseline.matrix_power_train(sstp.to_dense(), 8)
            assert np.abs(model.totals - totals).max() <= 1e-9
            rows.append((g, edp_s, smm_s, smm_s / edp_s))
        elapsed = time.perf_counter() - t_start
        lines = ", ".join(f"g={g}: {e:.1f}s vs {s:.1f}s ({sp:.1f}x)"
                          for g, e, s, sp in rows)
        monotone = all(a[3] <= b[3] for a, b in zip(rows, rows[1:]))
        report(4, rows[-1][3] >= 5.0,
               f"{lines}; speedup monotone non-decreasing: {monotone} (soft); "
               f"sweep {elapsed:.0f}s")
        assert rows[-1][3] >= 5.0, f"speedup at g=50 is {rows[-1][3]:.2f}x"
        assert elapsed <= 600


class TestCriterion5AppendixAsymptotics:
    def test_fixed_size_slopes_as_stated(self):
        """Log-log regression of the counters over i in [2, sqrt(n)) at
        n = 10^4, asserted inside the published cubic/quartic windows. The
        counters actually grow like rings (~linear) and filled diamonds
        (~quadratic) at fixed n, so this fails; the cross-scale test below
        validates the growth claims in the regime where they hold."""
        n = 10_000
        xs = np.arange(2, 100)
        ze = np.array([baseline.analytic_z_etp(int(i), n) for i in xs])
        zs = np.array([baseline.analytic_z_smm(int(i), n) for i in xs])
        slope_etp = float(np.polyfit(np.log(xs), np.log(ze), 1)[0])
        slope_smm = float(np.polyfit(np.log(xs), np.log(zs), 1)[0])
        ok = abs(slope_etp - 3) <= 0.5 and abs(slope_smm - 4) <= 0.5
        report(5, ok, f"fixed-n slopes: shortest-route {slope_etp:.3f} (want 3±0.5), "
                      f"full-power {slope_smm:.3f} (want 4±0.5)")
        assert abs(slope_etp - 3) <= 0.5, \
            f"Z_ETP slope at fixed n=10^4 is {slope_etp:.3f}, not 3±0.5"
        assert abs(slope_smm - 4) <= 0.5, \
            f"Z_SMM slope at fixed n=10^4 is {slope_smm:.3f}, not 4±0.5"

    def test_cross_scale_slopes_validate_growth_claims(self):
        # evaluated at the block edge i = sqrt(n)-1 while n grows, the
        # counters scale cubically vs quartically, one order apart
        gs = np.array([10, 20, 40, 80, 160])
        ze = np.array([baseline.analytic_z_etp(g - 1, g * g) for g in gs])
        zs = np.array([baseline.analytic_z_smm(g - 1, g * g) for g in gs])
        slope_etp = float(np.polyfit(np.log(gs), np.log(ze), 1)[0])
        slope_smm = float(np.polyfit(np.log(gs), np.log(zs), 1)[0])
        report(5, True, f"cross-scale slopes: shortest-route {slope_etp:.3f} ~ 3, "
                        f"full-power {slope_smm:.3f} ~ 4")
        assert abs(slope_etp - 3) <= 0.5
        assert abs(slope_smm - 4) <= 0.5
        assert slope_smm - slope_etp >= 0.5

    def test_etp_counter_never_exceeds_smm_counter(self):
        for n in (16, 64, 100, 400, 2500, 10_000):
            rn = int(math.isqrt(n))
            for i in range(1, 2 * rn + 1):
                assert baseline.analytic_z_etp(i, n) \
                    <= baseline.analytic_z_smm(i, n, form="raw"), (n, i)
        report(5, True, "Z_ETP <= Z_SMM everywhere tested")

    def test_census_emitted_with_discrepancies(self, tmp_path):
        rows = baseline.census(10, 20)
        out = tmp_path / "census.csv"
        with open(out, "w") as fh:
            fh.write("g,s,empirical,z_smm,z_etp,ratio,smm_match,etp_match\n")
            for r in rows:
                fh.write(f"{r.g},{r.s},{r.empirical},{r.z_smm:.0f},{r.z_etp:.0f},"
                         f"{r.ratio:.6f},{r.smm_match},{r.etp_match}\n")
        below_edge = [r for r in rows if r.s < 10]
        past_edge = [r for r in rows if r.s >= 10]
        assert all(r.smm_match for r in below_edge)
        assert any(not r.smm_match for r in past_edge)
        n_mismatch = sum(1 for r in rows if not (r.smm_match and r.etp_match))
        report(5, True, f"census written ({len(rows)} rows, {n_mismatch} analytic "
                        f"divergences past the block edge, documented)")


@pytest.fixture(scope="module")
def world():
    g, seed = 20, 7
    paths, _ = generate_synthetic(g, 10_000, seed, detour_rate=0.3, n_attractors=4)
    grid = synthetic_grid(g)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(paths))
    test = [paths[i] for i in order[:600] if len(paths[i].cells) >= 10][:300]
    train = [paths[i] for i in order[600:]]
    sstp = build_sstp(train, g)
    counts = count_start_dest(train)
    return {
        "grid": grid, "test": test, "train": train, "sstp": sstp,
        "counts": counts,
        "m8": train_initial(sstp, counts, 8),
        "m0": train_initial(sstp, counts, 0),
        "hist": build_histogram(train, 1.0),
        "index": HistoryIndex.build(train),
    }


class TestCriterion6PredictionPipeline:

    def _deviation(self, w, model, force, top):
        results, truths = [], []
        for trip in w["test"]:
            cut = max(1, math.ceil(len(trip.cells) * 0.7))
            q = Query(trip.cells[:cut], trip.trip_km * 0.7, top_k=top)
            try:
                res = predict_destination(model, q, w["hist"], w["index"], w["grid"],
                                          force_future_to_current=force)
            except ColdStartError:
                continue
            results.append(res)
            truths.append(trip.cells[-1])
        return oracles.l1_deviation_km(results, truths, w["grid"].g, top)

    def test_a_edp_beats_endpoint_baseline(self, world):
        t0 = time.perf_counter()
        edp = self._deviation(world, world["m8"], force=False, top=1)
        base = self._deviation(world, world["m0"], force=True, top=1)
        report(6, edp <= base,
               f"(a) top-1 deviation at 70%: engine {edp:.3f} km vs "
               f"endpoint baseline {base:.3f} km ({time.perf_counter()-t0:.0f}s)")
        assert edp <= base

    def test_b_detour_layers_do_not_hurt(self, world):
        with_detours = self._deviation(world, world["m8"], force=False, top=3)
        without = self._deviation(world, world["m0"], force=False, top=3)
        report(6, with_detours <= without + 1e-9,
               f"(b) top-3 deviation: detour budget 8 {with_detours:.3f} km vs "
               f"budget 0 {without:.3f} km on detoured trips")
        assert with_detours <= without + 1e-9

    def test_c_reduction_to_first_order_baseline(self, world):
        totals = baseline.power_totals(world["sstp"].to_dense(), 0)
        counts, start_totals = world["counts"]
        checked = mismatches = 0
        for trip in world["test"]:
            cut = max(1, math.ceil(len(trip.cells) * 0.7))
            q = Query(trip.cells[:cut], trip.trip_km * 0.7, top_k=1)
            try:
                res = predict_destination(world["m0"], q, world["hist"], world["index"],
                                          world["grid"], force_future_to_current=True)
            except ColdStartError:
                continue
            ref = baseline.first_order_scores(totals, counts, start_totals,
                                              trip.cells[0], trip.cells[cut - 1])
            if not ref:
                continue
            checked += 1
            best = min(ref.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            mismatches += res.ranked[0][0] != best
        report(6, mismatches == 0,
               f"(c) ranking argmax equals matrix-power baseline on "
               f"{checked} queries ({mismatches} mismatches)")
        assert checked >= 250
        assert mismatches == 0


class TestCriterion7EquationChecks:
    def test_conditional_expectation_at_zero_is_unconditional(self):
        rng = np.random.default_rng(5)
        from edp.ingest import CellPath
        paths = [CellPath(str(i), [0, 1], float(km))
                 for i, km in enumerate(rng.uniform(0.2, 25.0, size=200))]
        h = build_histogram(paths, 1.0)
        est = estimate_total_distance(h, 0.0)
        ok = est.km == h.expectation()
        report(7, ok, f"E(D|0) == E(D) == {est.km:.4f} exactly")
        assert est.km == h.expectation()

    def test_decay_is_zero_at_completion(self):
        assert predicted_length(10.0, 10.0, 0.004) == 0.0
        report(7, True, "decay budget at d_t = E is exactly 0")

    def test_decay_reference_value(self):
        expected = 10.0 * math.log(5.0 / 10.0) / math.log(0.004)
        got = predicted_length(10.0, 5.0, 0.004)
        report(7, abs(got - expected) <= 1e-9,
               f"decay(10, 5, 0.004) = {got:.12f} vs independent {expected:.12f}")
        assert abs(got - expected) <= 1e-9


class TestCriterion8Persistence:
    def test_twenty_random_models_round_trip(self, tmp_path):
        rng = np.random.default_rng(99)
        for case in range(20):
            g = int(rng.integers(2, 7))
            detour = int(rng.choice([0, 2, 4, 8]))
            sstp = random_sstp(g, case)
            counts, totals = {}, {}
            for _ in range(int(rng.integers(0, 6))):
                s, d = int(rng.integers(g * g)), int(rng.integers(g * g))
                counts.setdefault(s, {})[d] = int(rng.integers(1, 50))
            totals = {s: sum(d.values()) for s, d in counts.items()}
            model = train_initial(sstp, (counts, totals), detour)
            model.epoch = int(rng.integers(0, 1000))
            path = tmp_path / f"m{case}.edp"
            save_model(model, path)
            again = load_model(path)
            assert again.equals(model), f"case {case} not bit-identical"
        report(8, True, "20 random models round-trip bit-identical")
