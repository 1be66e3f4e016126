import numpy as np
import pytest

import oracles
from edp.baseline import (analytic_theta, analytic_z_etp, analytic_z_smm, census,
                          empirical_nonzero, empirical_nonzero_series,
                          matrix_power_train, structural_adjacency,
                          verify_density_bound)
from edp.model import random_sstp, train_initial


class TestMatrixPowerTrain:
    @pytest.mark.parametrize("g,seed,detour", [(4, 7, 4), (5, 2, 0), (6, 9, 8)])
    def test_agrees_with_wavefront_trainer(self, g, seed, detour):
        sstp = random_sstp(g, seed)
        model = train_initial(sstp, None, detour)
        totals, elapsed = matrix_power_train(sstp.to_dense(), detour)
        assert np.abs(model.totals - totals).max() <= 1e-12
        assert elapsed > 0

    def test_agrees_with_enumeration_oracle(self):
        g, detour = 4, 2
        sstp = random_sstp(g, 3)
        totals, _ = matrix_power_train(sstp.to_dense(), detour)
        expected = oracles.power_totals(sstp.to_dense(), g, detour)
        assert np.abs(totals - expected).max() <= 1e-12

    def test_zero_row_leaks_mass(self):
        g = 3
        M = random_sstp(g, 0).to_dense()
        M[4, :] = 0.0  # absorbing center
        P2 = M @ M
        leaky = [i for i in range(9) if P2[i].sum() < 1.0 - 1e-12]
        assert 4 in leaky or any(M[i, 4] > 0 for i in leaky)
        assert leaky

    def test_odd_detour_rejected(self):
        with pytest.raises(ValueError):
            matrix_power_train(random_sstp(3, 0).to_dense(), 3)


class TestEmpiricalNonzero:
    def test_two_by_two_one_step(self):
        # each of the 4 cells reaches its 2 neighbors
        assert oracles.nonzero_count_by_sets(2, 1) == 8
        assert empirical_nonzero(2, 1) == 8

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_set_frontier_oracle(self, g):
        for s in range(1, 2 * g + 1):
            assert empirical_nonzero(g, s) == oracles.nonzero_count_by_sets(g, s)

    @pytest.mark.parametrize("g", [3, 5, 8, 12])
    def test_matches_parity_census(self, g):
        series = empirical_nonzero_series(g, 2 * g)
        for s in range(1, 2 * g + 1):
            assert series[s - 1] == oracles.parity_pair_count(g, s)

    def test_adjacency_structure(self):
        A = structural_adjacency(3)
        assert A.sum() == 2 * (2 * 3 * 2)  # ordered adjacent pairs
        assert not A.diagonal().any()

    def test_bad_step(self):
        with pytest.raises(ValueError):
            empirical_nonzero(3, 0)


class TestAnalyticTheta:
    def test_case1_closed_form(self):
        # same parity, below the block edge
        i, m, n = 6, 2, 100
        rn = 10
        u = (i - m) // 2
        expected = (u + 1) * ((m - i) / 2 + rn) - rn / 2
        assert analytic_theta(i, m, n, form="closed") == expected

    def test_case2_closed_form(self):
        i, m, n = 5, 2, 100
        rn = 10
        v = i - m
        expected = 0.25 * (v + 1) * (2 * rn - v - 1) - rn / 2
        assert analytic_theta(i, m, n, form="closed") == expected

    def test_raw_form_reference_values(self):
        # frozen from the defining alternating sum at n = 10^4
        assert analytic_theta(2, 0, 10_000, form="raw") == 296.0
        assert analytic_theta(1, 1, 10_000, form="raw") == 100.0

    def test_raw_and_closed_disagree(self):
        # the published reduction drops the alternating weights; census
        # output documents rather than repairs this
        assert analytic_theta(2, 0, 10_000, form="raw") \
            != analytic_theta(2, 0, 10_000, form="closed")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            analytic_theta(2, 0, 10)

    def test_saturation_rule_alternates(self):
        n = 64
        high = analytic_theta(10, 0, n, form="raw")
        higher = analytic_theta(12, 0, n, form="raw")
        assert high == higher  # same parity picks the same saturated value


class TestAnalyticCounts:
    @pytest.mark.parametrize("g", [4, 6, 8, 10])
    def test_z_smm_exact_below_block_edge(self, g):
        emp = empirical_nonzero_series(g, g - 1)
        for s in range(1, g):
            assert analytic_z_smm(s, g * g, form="raw") == emp[s - 1]

    def test_z_smm_closed_form_undercounts(self):
        assert analytic_z_smm(2, 10_000, form="closed") == 34_302.0
        assert analytic_z_smm(2, 10_000, form="raw") == 88_404.0

    @pytest.mark.parametrize("g", [4, 6, 8, 12])
    def test_z_etp_equals_ring_counts_below_block_edge(self, g):
        for s in range(1, g + 1):
            assert analytic_z_etp(s, g * g) == oracles.ring_pair_count(g, s)

    def test_z_etp_edge_count_at_one_step(self):
        g = 100
        assert analytic_z_etp(1, g * g) == 2 * (2 * g * (g - 1))

    def test_z_etp_breaks_down_past_block_edge(self):
        # published formula under-counts, eventually going negative; the
        # census reports the divergence
        g = 5
        assert analytic_z_etp(6, g * g) != oracles.ring_pair_count(g, 6)
        assert analytic_z_etp(8, g * g) < 0

    def test_z_etp_domain(self):
        with pytest.raises(ValueError):
            analytic_z_etp(0, 16)
        with pytest.raises(ValueError):
            analytic_z_etp(9, 16)

    @pytest.mark.parametrize("n", [16, 36, 64, 100, 10_000])
    def test_etp_never_exceeds_smm(self, n):
        rn = int(np.sqrt(n))
        for i in range(1, 2 * rn + 1):
            assert analytic_z_etp(i, n) <= analytic_z_smm(i, n, form="raw")


class TestDensityBound:
    def test_even_grids_never_exceed_half(self):
        report = verify_density_bound(range(2, 13, 2))
        assert report.ok

    def test_odd_grid_violations_are_exactly_saturation(self):
        """On odd-sided grids the color classes hold (g^2+1)/2 and
        (g^2-1)/2 cells, so the fully saturated even steps reach
        (g^4+1)/2 ordered pairs: above one half by exactly 1/(2 g^4)."""
        report = verify_density_bound(range(3, 10, 2))
        expected = {(g, s) for g in range(3, 10, 2) for s in (2 * g - 2, 2 * g)}
        assert {(g, s) for g, s, _ in report.violations} == expected
        for g, s, ratio in report.violations:
            assert ratio == pytest.approx(0.5 + 1 / (2 * g**4), abs=1e-15)

    def test_report_rows_complete(self):
        report = verify_density_bound([4], range(1, 5))
        assert len(report.rows) == 4


class TestCensus:
    def test_rows_and_matches(self):
        rows = census(6, 12)
        assert len(rows) == 12
        for r in rows:
            assert r.ratio == r.empirical / 6**4
            if r.s < 6:
                assert r.smm_match and r.etp_match
        assert not all(r.smm_match for r in rows)  # saturation documented

    def test_census_ratio_matches_density_report(self):
        rows = census(4, 8)
        report = verify_density_bound([4], range(1, 9))
        for r, (_, _, count, ratio) in zip(rows, report.rows):
            assert r.empirical == count and r.ratio == ratio
