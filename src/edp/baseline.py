"""Reference competitor and verification oracles.

This module deliberately recomputes everything the slow, obvious way:
repeated full matrix multiplication for transition totals, boolean matrix
powers for structural reachability, and the closed-form nonzero counters
with their empirical cross-checks. The training modules are validated
against these, never the other way around.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import step_pairs
from .model import detour_layers, l1_matrix


def structural_adjacency(g: int) -> np.ndarray:
    """Boolean 4-adjacency matrix of the g x g grid, zero diagonal."""
    A = np.zeros((g * g, g * g), dtype=bool)
    src, dst, _ = step_pairs(g)
    A[src, dst] = True
    return A


def matrix_power_train(M: np.ndarray, max_detour: int) -> tuple[np.ndarray, float]:
    """Totals by brute force: sum the (l1 + detour)-step matrix entries.

    Every power is produced by one full dense matrix multiplication.
    Returns (totals, wall seconds).
    """
    detour_layers(max_detour)   # raises unless max_detour is even and >= 0
    n = M.shape[0]
    g = math.isqrt(n)
    if g * g != n:
        raise ValueError(f"matrix size {n} is not a square grid")
    L = l1_matrix(g)
    tmax = 2 * (g - 1) + max_detour
    t0 = time.perf_counter()
    totals = np.zeros((n, n))
    totals[L == 0] += 1.0  # t = 0: identity layer
    P = np.eye(n)
    for t in range(1, tmax + 1):
        P = P @ M
        d = t - L
        sel = (d >= 0) & (d <= max_detour) & (d % 2 == 0)
        totals[sel] += P[sel]
    return totals, time.perf_counter() - t0


def power_totals(M: np.ndarray, max_detour: int = 0) -> np.ndarray:
    """Summed matrix-power layers without timing, for scoring oracles."""
    totals, _ = matrix_power_train(M, max_detour)
    return totals


def first_order_scores(totals: np.ndarray, start_counts: dict[int, dict[int, int]],
                       start_totals: dict[int, int], s: int, c: int) -> dict[int, float]:
    """Destination scores straight from matrix-power totals, no trained model.

    score(d) = p(c -> d) * P(d | s) / p(s -> d). Used as the independent
    check of the online scoring path.
    """
    t_s = start_totals.get(s, 0)
    scores = {}
    for d, cnt in start_counts.get(s, {}).items():
        if d == s or t_s == 0:
            continue
        p_sd = totals[s, d]
        if p_sd <= 0.0 or cnt == 0:
            continue
        p_cd = 1.0 if d == c else totals[c, d]
        scores[d] = p_cd * (cnt / t_s) / p_sd
    return scores


# ---------------------------------------------------------------------------
# structural nonzero censuses


def empirical_nonzero(g: int, s: int) -> int:
    """Ordered cell pairs reachable in exactly s steps (boolean power)."""
    if s < 1:
        raise ValueError("step count must be >= 1")
    return empirical_nonzero_series(g, s)[-1]


def empirical_nonzero_series(g: int, smax: int) -> list[int]:
    A = structural_adjacency(g).astype(np.uint8)
    B = np.eye(g * g, dtype=np.uint8)
    out = []
    for _ in range(smax):
        B = ((B @ A) > 0).astype(np.uint8)
        out.append(int(B.sum()))
    return out


def _lam(a: int) -> int:
    return 1 + (-1) ** a


def _check_square(n: int) -> int:
    rn = math.isqrt(n)
    if rn * rn != n:
        raise ValueError(f"n={n} is not a perfect square")
    return rn


def analytic_theta(i: int, m: int, n: int, form: str = "closed") -> float:
    """Nonzero count of one block diagonal of the s-step transition matrix.

    form="raw" evaluates the defining alternating sum; form="closed"
    evaluates the published per-parity closed forms. The two disagree (the
    closed-form reduction drops the alternating weights), which the census
    reports rather than repairs. Steps at or past the block edge use the
    published two-point fluctuation rule in both forms.
    """
    if m < 0:
        raise ValueError("diagonal offset must be >= 0")
    rn = _check_square(n)
    if i > rn:
        return 0.5 * (_lam(i - 1) * analytic_theta(rn, m, n, form)
                      + _lam(i) * analytic_theta(rn - 1, m, n, form))
    if i < m:
        return 0.0
    if form == "raw" or i == rn:
        total = sum(_lam(i + j + m) * (rn - j) for j in range(0, i - m + 1))
        return total - _lam(i + m) * rn / 2
    if form != "closed":
        raise ValueError(f"unknown form {form!r}")
    if (i - m) % 2 == 0:
        u = (i - m) // 2
        return (u + 1) * ((m - i) / 2 + rn) - rn / 2
    v = i - m
    return 0.25 * (v + 1) * (2 * rn - v - 1) - rn / 2


def analytic_z_smm(i: int, n: int, form: str = "raw") -> float:
    """Nonzero entries of the i-step matrix under full multiplication.

    Sums the per-diagonal counts over all block diagonals, weighting
    off-diagonal blocks twice; the upper summation bound saturates at the
    block edge.
    """
    if i < 1:
        raise ValueError("step count must be >= 1")
    rn = _check_square(n)
    t = i if i < rn else rn - 1
    return rn * analytic_theta(i, 0, n, form) + 2 * sum(
        (rn - m) * analytic_theta(i, m, n, form) for m in range(1, t + 1)
    )


def _delta(m: int, rn: int) -> float:
    if m == 0:
        return rn
    if m < rn:
        return 2 * (rn - m)
    return 0.0


def analytic_z_etp(i: int, n: int) -> float:
    """Entries touched by the shortest-route recursion at step i.

    Counts ordered pairs at L1 distance exactly i via the per-block offset
    counts; valid as published for i in [1, 2*sqrt(n)].
    """
    rn = _check_square(n)
    if not 1 <= i <= 2 * rn:
        raise ValueError(f"step {i} outside [1, {2 * rn}]")
    return rn * _delta(i, rn) + 2 * sum((rn - j) * _delta(i - j, rn) for j in range(1, i + 1))


@dataclass
class CensusRow:
    g: int
    s: int
    empirical: int
    z_smm: float
    z_etp: float
    ratio: float
    smm_match: bool = False
    etp_match: bool = False


@dataclass
class DensityReport:
    rows: list[tuple[int, int, int, float]] = field(default_factory=list)
    violations: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def census(g: int, steps: int) -> list[CensusRow]:
    """Empirical vs analytic nonzero counts for s = 1..steps on one grid.

    etp_match compares the analytic shortest-route count against the exact
    ring census {pairs at L1 distance s}; smm_match compares the raw-form
    count against the boolean-power census. Mismatches are expected past
    the block edge and are the point of emitting the table.
    """
    n = g * g
    emp = empirical_nonzero_series(g, steps)
    L = l1_matrix(g)
    ring = np.bincount(L.ravel(), minlength=2 * g - 1)
    rows = []
    for s in range(1, steps + 1):
        z_s = analytic_z_smm(s, n, form="raw")
        z_e = analytic_z_etp(s, n) if s <= 2 * g else float("nan")
        rows.append(CensusRow(
            g=g, s=s, empirical=emp[s - 1], z_smm=z_s, z_etp=z_e,
            ratio=emp[s - 1] / (n * n),
            smm_match=(emp[s - 1] == z_s),
            etp_match=(s <= 2 * (g - 1) and ring[s] == z_e),
        ))
    return rows


def verify_density_bound(g_range, step_range=None) -> DensityReport:
    """Tabulate nonzero/total ratios and flag any exceeding one half.

    The checkerboard argument makes the bound exact on even-sided grids.
    Odd-sided grids have unequal color classes, so saturated even steps
    exceed 0.5 by 1/(2 g^4); the report carries those as violations.
    """
    report = DensityReport()
    for g in g_range:
        steps = step_range if step_range is not None else range(1, 2 * g + 1)
        emp = empirical_nonzero_series(g, max(steps))
        for s in steps:
            count = emp[s - 1]
            ratio = count / g**4
            report.rows.append((g, s, count, ratio))
            if ratio > 0.5:
                report.violations.append((g, s, ratio))
    return report
