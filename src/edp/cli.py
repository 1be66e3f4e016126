"""Command-line surface: train, update, predict, eval, bench, census, gen.

Exit codes: 0 success, 2 usage or validation problems, 3 I/O and file
format problems.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import baseline, ingest, predict, update
from .errors import ColdStartError, CorruptModelError, FormatError
from .grid import GridMap, unit_grid
from .model import (build_sstp, count_start_dest, load_model, load_sstp, random_sstp,
                    save_model, save_sstp, train_initial)

EXIT_USAGE = 2
EXIT_IO = 3


def _read_config(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _resolve(args, key, cast, fallback):
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config", {})
    if key in cfg:
        return cast(cfg[key])
    return fallback


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bbox must be lat_min,lat_max,lon_min,lon_max")
    return tuple(parts)  # type: ignore[return-value]


def _bbox_of_points(result: ingest.ParseResult) -> tuple[float, float, float, float]:
    lats = [p[1] for t in result.trajectories for p in t.points]
    lons = [p[2] for t in result.trajectories for p in t.points]
    if not lats:
        raise ValueError("no points to infer a bounding box from")
    pad_lat = (max(lats) - min(lats)) * 1e-6 + 1e-9
    pad_lon = (max(lons) - min(lons)) * 1e-6 + 1e-9
    return min(lats) - pad_lat, max(lats) + pad_lat, min(lons) - pad_lon, max(lons) + pad_lon


def _load_trips(args, path) -> tuple[GridMap, ingest.ParseResult]:
    """The grid and one parse of a trajectory CSV.

    With --unit-grid or --bbox the grid is built first and the parse drops
    points outside it. Otherwise the grid is the padded bounding box of
    every parsed point, so nothing lies outside it.
    """
    g = _resolve(args, "grid", int, None)
    if g is None:
        raise ValueError("--grid is required")
    if args.unit_grid:
        grid = unit_grid(g)
    elif args.bbox is not None:
        grid = GridMap(*_parse_bbox(args.bbox), g)
    else:
        result = ingest.parse_trajectories(path)
        return GridMap(*_bbox_of_points(result), g), result
    return grid, ingest.parse_trajectories(path, grid)


def _discretize_all(result: ingest.ParseResult, grid: GridMap):
    paths, degenerate = [], 0
    for traj in result.trajectories:
        try:
            paths.append(ingest.discretize(traj, grid))
        except ingest.DegenerateTripError:
            degenerate += 1
    return paths, degenerate


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w")
    return sys.stdout


def cmd_train(args) -> int:
    max_detour = _resolve(args, "max_detour", int, 8)
    if max_detour < 0 or max_detour % 2 != 0:
        raise ValueError(f"--max-detour must be even and >= 0, got {max_detour}")
    grid, result = _load_trips(args, args.input)
    paths, degenerate = _discretize_all(result, grid)
    if not paths:
        raise ValueError("no usable trips after discretization")
    sstp = build_sstp(paths, grid.g)
    counts = count_start_dest(paths)
    t0 = time.perf_counter()
    model = train_initial(sstp, counts, max_detour)
    elapsed = (time.perf_counter() - t0) * 1e3
    save_model(model, args.out)
    save_sstp(sstp, args.out + ".sstp")
    n = grid.g * grid.g
    print(f"trained g={grid.g} max_detour={max_detour} trips={len(paths)} "
          f"degenerate={degenerate} malformed_rows={result.malformed_rows} "
          f"entries={n * n * model.n_layers} train_ms={elapsed:.1f}")
    print(f"model written to {args.out} (+{args.out}.sstp)")
    return 0


def cmd_update(args) -> int:
    model = load_model(args.model)
    sstp_path = args.sstp or args.model + ".sstp"
    sstp = load_sstp(sstp_path)
    cs = update.load_changeset(args.changes, model.g)
    new_model, stats = update.apply_update(model, sstp, cs, mode=args.mode)
    out = args.out or args.model
    save_model(new_model, out)
    save_sstp(sstp, out + ".sstp")
    print(f"mode={stats.mode} epoch={stats.epoch} "
          f"entries_recomputed={stats.entries_recomputed} "
          f"entries_full={stats.entries_full} "
          f"origins={stats.origins_recomputed} update_ms={stats.wall_ms:.1f}")
    return 0


def _result_json(trip_id, res: predict.PredictionResult, cold: bool) -> str:
    return json.dumps({
        "trip_id": trip_id,
        "cold_start": cold,
        "future_location": res.future_location,
        "predicted_length_km": round(res.predicted_length_km, 6),
        "estimated_total_km": round(res.estimated_total_km, 6),
        "extrapolated": res.extrapolated,
        "ranked": [{"cell": d, "p": p} for d, p in res.ranked],
    })


def cmd_predict(args) -> int:
    model = load_model(args.model)
    grid, hist_result = _load_trips(args, args.history)
    history, _ = _discretize_all(hist_result, grid)
    hist = ingest.build_histogram(history, _resolve(args, "bin_width_km", float, 1.0))
    index = predict.HistoryIndex.build(history)
    alpha = _resolve(args, "alpha", float, 0.004)
    k = _resolve(args, "knn", int, 10)
    q_result = ingest.parse_trajectories(args.queries, grid)
    out = _out_stream(args)
    try:
        for traj in q_result.trajectories:
            path = ingest.cell_path(traj, grid)
            q = predict.Query(path.cells, path.trip_km, top_k=args.top)
            res, cold = _predict_or_fallback(model, q, hist, index, grid, alpha, k)
            out.write(_result_json(traj.trip_id, res, cold) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _predict_or_fallback(model, q, hist, index, grid, alpha, k, force=False):
    """(result, cold_start): the prediction, or the start cell's fallback ranking."""
    try:
        return predict.predict_destination(model, q, hist, index, grid, alpha=alpha,
                                           k=k, force_future_to_current=force), False
    except ColdStartError as exc:
        return predict.PredictionResult(
            ranked=exc.fallback[:q.top_k], future_location=q.cells[-1],
            predicted_length_km=0.0, estimated_total_km=0.0), True


def cmd_eval(args) -> int:
    max_detour = _resolve(args, "max_detour", int, 8)
    alpha = _resolve(args, "alpha", float, 0.004)
    k = _resolve(args, "knn", int, 10)
    seed = _resolve(args, "seed", int, 0)
    grid, result = _load_trips(args, args.input)
    paths, _ = _discretize_all(result, grid)
    if len(paths) < 10:
        raise ValueError("need at least 10 trips to evaluate")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(paths))
    n_test = max(1, int(len(paths) * (1 - args.train_frac)))
    test = [paths[i] for i in order[:n_test]]
    train = [paths[i] for i in order[n_test:]]
    sstp = build_sstp(train, grid.g)
    counts = count_start_dest(train)
    model = train_initial(sstp, counts, max_detour)
    hist = ingest.build_histogram(train, _resolve(args, "bin_width_km", float, 1.0))
    index = predict.HistoryIndex.build(train)
    baseline_model = None
    if args.compare_baseline:
        baseline_model = train_initial(sstp, counts, 0)
    train_seqs = {tuple(p.cells) for p in train}
    completions = [float(x) for x in args.completion.split(",")]
    alphas = [alpha]
    if args.alpha_sweep:
        alphas = [float(x) for x in args.alpha_sweep.split(",")]
    out = _out_stream(args)
    try:
        cols = "alpha,completion,bucket,queries,edp_deviation_km"
        if baseline_model is not None:
            cols += ",baseline_deviation_km"
        out.write(cols + "\n")
        for a in alphas:
            for f in completions:
                if not 0 < f <= 1:
                    raise ValueError(f"completion point {f} outside (0, 1]")
                buckets: dict[str, list[tuple[float, float]]] = {}
                for trip in test:
                    cut = max(1, math.ceil(len(trip.cells) * f))
                    q = predict.Query(trip.cells[:cut], trip.trip_km * f, top_k=args.top)
                    res, _ = _predict_or_fallback(model, q, hist, index, grid, a, k)
                    dev = predict.deviation_metrics([res], [trip.cells[-1]], grid,
                                                    top_n=args.top).mean_km
                    base_dev = float("nan")
                    if baseline_model is not None:
                        bres, _ = _predict_or_fallback(baseline_model, q, hist, index,
                                                       grid, a, k, force=True)
                        base_dev = predict.deviation_metrics(
                            [bres], [trip.cells[-1]], grid, top_n=args.top).mean_km
                    bucket = "all"
                    if args.match_ratio_buckets:
                        bucket = "match" if tuple(trip.cells) in train_seqs else "novel"
                    buckets.setdefault(bucket, []).append((dev, base_dev))
                for bucket in sorted(buckets):
                    rows = buckets[bucket]
                    mean_dev = sum(r[0] for r in rows) / len(rows)
                    line = f"{a},{f},{bucket},{len(rows)},{mean_dev:.4f}"
                    if baseline_model is not None:
                        mean_base = sum(r[1] for r in rows) / len(rows)
                        line += f",{mean_base:.4f}"
                    out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_bench(args) -> int:
    max_detour = _resolve(args, "max_detour", int, 8)
    seed = _resolve(args, "seed", int, 0)
    grids = [int(x) for x in args.grids.split(",")]
    out = _out_stream(args)
    try:
        out.write("g,edp_ms,smm_ms,speedup\n")
        for g in grids:
            if g < 2:
                raise ValueError(f"grid side must be >= 2, got {g}")
            sstp = random_sstp(g, seed)
            t0 = time.perf_counter()
            model = train_initial(sstp, None, max_detour)
            edp_ms = (time.perf_counter() - t0) * 1e3
            totals, smm_s = baseline.matrix_power_train(sstp.to_dense(), max_detour)
            err = float(np.abs(model.totals - totals).max())
            if err > 1e-9:
                raise RuntimeError(f"trainers disagree at g={g}: {err}")
            smm_ms = smm_s * 1e3
            out.write(f"{g},{edp_ms:.1f},{smm_ms:.1f},{smm_ms / edp_ms:.2f}\n")
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_census(args) -> int:
    g = _resolve(args, "grid", int, None)
    if g is None or g < 2:
        raise ValueError("--grid >= 2 is required")
    steps = args.steps or 2 * g
    out = _out_stream(args)
    try:
        if args.analytic:
            rows = baseline.census(g, steps)
            out.write("g,s,empirical,z_smm,z_etp,ratio\n")
            mismatches = []
            for r in rows:
                out.write(f"{r.g},{r.s},{r.empirical},{r.z_smm:.0f},{r.z_etp:.0f},"
                          f"{r.ratio:.6f}\n")
                if not (r.smm_match and r.etp_match):
                    mismatches.append(r.s)
            if mismatches:
                print(f"analytic counts diverge from empirical at steps {mismatches} "
                      f"(expected past the block edge s >= {g})", file=sys.stderr)
        else:
            series = baseline.empirical_nonzero_series(g, steps)
            out.write("g,s,empirical,ratio\n")
            for s, count in enumerate(series, start=1):
                out.write(f"{g},{s},{count},{count / g**4:.6f}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_gen(args) -> int:
    g = _resolve(args, "grid", int, None)
    if g is None or g < 2:
        raise ValueError("--grid >= 2 is required")
    seed = _resolve(args, "seed", int, 0)
    paths, truth = ingest.generate_synthetic(
        g, args.trips, seed, detour_rate=args.detour_rate,
        n_attractors=args.attractors)
    grid = ingest.synthetic_grid(g)
    ingest.write_trajectories_csv(paths, grid, args.out + ".csv")
    save_sstp(truth, args.out + ".sstp")
    print(f"wrote {len(paths)} trips to {args.out}.csv "
          f"(ground-truth matrix: {args.out}.sstp)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edp",
                                     description="grid destination prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file overriding defaults")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train a model from a trajectory CSV")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--bbox", help="lat_min,lat_max,lon_min,lon_max")
    p.add_argument("--unit-grid", action="store_true",
                   help="1 km cells anchored at the origin (synthetic data)")
    p.add_argument("--max-detour", dest="max_detour", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("update", help="apply a change set to a trained model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--changes", required=True)
    p.add_argument("--sstp", help="single-step matrix file (default <model>.sstp)")
    p.add_argument("--mode", choices=("paper", "exact"), default="exact")
    p.add_argument("--out")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("predict", help="answer destination queries")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--bbox")
    p.add_argument("--unit-grid", action="store_true")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--knn", type=int, default=None)
    p.add_argument("--bin-width-km", dest="bin_width_km", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="held-out accuracy at completion points")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--bbox")
    p.add_argument("--unit-grid", action="store_true")
    p.add_argument("--completion", default="0.3,0.7")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--max-detour", dest="max_detour", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-sweep", help="comma list of decay factors")
    p.add_argument("--knn", type=int, default=None)
    p.add_argument("--bin-width-km", dest="bin_width_km", type=float, default=None)
    p.add_argument("--match-ratio-buckets", action="store_true")
    p.add_argument("--compare-baseline", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="trainer speed vs the matrix-power baseline")
    common(p)
    p.add_argument("--grids", required=True, help="comma list of grid sides")
    p.add_argument("--max-detour", dest="max_detour", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("census", help="structural nonzero counts per step")
    common(p)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--steps", type=int)
    p.add_argument("--analytic", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("gen", help="generate a synthetic trajectory dataset")
    common(p)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--trips", type=int, required=True)
    p.add_argument("--detour-rate", dest="detour_rate", type=float, default=0.0)
    p.add_argument("--attractors", type=int, default=None)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _read_config(args.config) if args.config else {}
        return args.func(args)
    except (FormatError, CorruptModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
