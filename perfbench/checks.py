"""Output checks, run outside the timed region.

Each check returns the number of mismatches it found; zero means the
outputs are correct. The references are independent of the code under
test: layer rows come from vector-matrix powers e_i . M^t of the dense
single-step matrix (numpy only, no wavefront), destination counts come
from the generator's own trip endpoints, and rankings are recomputed with
`edp.baseline.first_order_scores`, the repository's scoring oracle.
"""

import re
from collections import Counter

import numpy as np

TOL = 1e-9
ORIGINS = 8      # model rows checked against matrix powers
ANSWERS = 30     # ranked answers checked against the first-order oracle, per batch


def power_layers(M: np.ndarray, origins, g: int, max_detour: int) -> np.ndarray:
    """Reference layers for `origins`, shape (max_detour/2 + 1, len(origins), n).

    Entry [k, b, j] is (e_i . M^t)_j at t = l1(i, j) + 2k, i = origins[b].
    """
    n = g * g
    origins = np.asarray(origins)
    rr, cc = np.divmod(np.arange(n), g)
    ro, co = np.divmod(origins, g)
    L = np.abs(ro[:, None] - rr[None, :]) + np.abs(co[:, None] - cc[None, :])
    out = np.zeros((max_detour // 2 + 1, len(origins), n))
    V = np.zeros((len(origins), n))
    V[np.arange(len(origins)), origins] = 1.0
    for t in range(int(L.max()) + max_detour + 1):
        if t:
            V = V @ M
        d = t - L
        b, j = np.nonzero((d >= 0) & (d <= max_detour) & (d % 2 == 0))
        out[d[b, j] // 2, b, j] = V[b, j]
    return out


def check_model(model, sstp, origins) -> int:
    """Layer rows and totals of `origins` against matrix powers of `sstp`."""
    ref = power_layers(sstp.to_dense(), origins, model.g, model.max_detour)
    got = model.layers[:, origins, :]
    bad_rows = np.abs(got - ref).max(axis=(0, 2)) > TOL
    bad_rows |= np.abs(model.totals[origins] - ref.sum(axis=0)).max(axis=1) > TOL
    return int(bad_rows.sum())


def check_train_output(stdout: str, meta: dict) -> int:
    """`edp train` reports every generated trip and every malformed row."""
    fields = dict(re.findall(r"(\w+)=(\d+)", stdout))
    expected = {"trips": meta["history_trips"], "degenerate": 0,
                "malformed_rows": meta["malformed_rows"]}
    return sum(int(fields.get(k, -1)) != v for k, v in expected.items())


def check_start_counts(model, endpoints) -> int:
    """Start/destination counts in the model match the generated trips."""
    pairs = Counter((s, d) for s, d in endpoints)
    stored = Counter({(s, d): c for s, row in model.start_counts.items()
                      for d, c in row.items()})
    return int(pairs != stored)


def check_same_model(got, want) -> int:
    """Bitwise equality of layers, totals and trip counts."""
    same = (np.array_equal(got.layers, want.layers)
            and np.array_equal(got.totals, want.totals)
            and got.start_counts == want.start_counts)
    return int(not same)


def check_rankings(edp, model, sstp, endpoints, answers) -> int:
    """Ranked answers (not cold starts) against the first-order oracle.

    Totals for the start cell and the inferred future location come from
    matrix powers; start counts from the generated trip endpoints. Cold
    starts are counted by the caller, not checked: whether one is due
    depends on the future location, which a ColdStartError does not carry.
    """
    by_start: dict[int, Counter] = {}
    for s, d in endpoints:
        by_start.setdefault(s, Counter())[d] += 1
    start_counts = {s: dict(c) for s, c in by_start.items()}
    start_totals = {s: sum(c.values()) for s, c in by_start.items()}
    origins = sorted({a.query.cells[0] for a in answers}
                     | {a.result.future_location for a in answers})
    n = model.n_cells
    totals = np.zeros((n, n))
    totals[origins] = power_layers(sstp.to_dense(), origins, model.g,
                                   model.max_detour).sum(axis=0)
    bad = 0
    for a in answers:
        s, res = a.query.cells[0], a.result
        scores = edp.baseline.first_order_scores(totals, start_counts, start_totals,
                                                 s, res.future_location)
        z = sum(scores.values())
        want = sorted(((d, v / z) for d, v in scores.items()), key=lambda kv: (-kv[1], kv[0]))
        want = want[:len(res.ranked)]
        if len(want) != len(res.ranked) or not res.ranked:
            bad += 1
            continue
        ok = all(abs(p - wp) <= TOL * max(1.0, wp) for (_, p), (_, wp) in zip(res.ranked, want))
        # ties may order cells differently; every returned cell must carry its own score
        ok = ok and all(d in scores and abs(scores[d] / z - p) <= TOL * max(1.0, p)
                        for d, p in res.ranked)
        bad += not ok
    return bad


def check_pass(edp, p, seed: int) -> dict[str, int]:
    """Every check on one untraced pass: {check name: mismatches}."""
    rng = np.random.default_rng([seed, 2])
    meta, served = p.inputs.meta, p.served
    model, sstp = served.model, served.sstp
    endpoints = meta["endpoints"]
    n = model.n_cells

    def sample(batch):
        warm = [a for a in batch if not a.cold]
        idx = rng.choice(len(warm), size=min(ANSWERS, len(warm)), replace=False)
        return [warm[i] for i in sorted(idx)]

    final = p.snapshots[-1]
    retrained = edp.model.train_initial(p.final_sstp, (model.start_counts, model.start_totals),
                                        model.max_detour)
    return {
        "train_output": check_train_output(p.train_stdout, meta),
        "model_oracle": check_model(model, sstp,
                                    sorted(rng.choice(n, size=min(ORIGINS, n), replace=False))),
        "start_counts": check_start_counts(model, endpoints),
        "rankings": check_rankings(edp, model, sstp, endpoints, sample(p.first_batch)),
        "refresh_retrain": check_same_model(final, retrained),
        "refresh_rankings": check_rankings(edp, final, p.final_sstp, endpoints,
                                           sample(p.final_batch)),
    }
