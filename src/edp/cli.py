"""Command-line surface: train, update, predict, eval, bench, census, gen.

Exit codes: 0 success, 2 usage or validation problems, 3 I/O and file
format problems.
"""

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import baseline, ingest, predict, update
from .errors import CorruptModelError, FormatError
from .grid import GridMap, neighbors, unit_grid
from .model import (TransitionModel, atomic_write, build_sstp, count_start_dest, detour_layers,
                    load_model, random_sstp, save_model, save_sstp, train_initial)

EXIT_USAGE = 2
EXIT_IO = 3
BENCH_REPEATS = 3   # timed runs per trainer and grid in `edp bench`

# argparse reads a value starting with "-" as an option, so a box with a
# negative first coordinate has to be attached with "="
BBOX_HELP = ("lat_min,lat_max,lon_min,lon_max; write --bbox=-33.9,-33.7,151.1,151.3 "
             "when lat_min is negative")

# The settings a --config file may set, {key: (type, default)}. main fills
# each one a command takes from the command line, else the config file,
# else this default.
SETTINGS = {
    "grid": (int, None),
    "max_detour": (int, 8),
    "alpha": (float, 0.004),
    "knn": (int, 10),
    "bin_width_km": (float, 1.0),
    "seed": (int, 0),
}


def _read_config(path) -> dict:
    """The settings a key=value file sets, each cast to its SETTINGS type."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise FormatError(f"{path}: unknown key {key!r}; a config sets "
                              + ", ".join(SETTINGS))
        cast = SETTINGS[key][0]
        try:
            out[key] = cast(val)
        except ValueError:
            raise ValueError(f"{path}: {key}={val!r} is not a valid {cast.__name__}") from None
    return out


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bbox must be lat_min,lat_max,lon_min,lon_max")
    return tuple(parts)  # type: ignore[return-value]


def _bbox_of_points(result: ingest.ParseResult) -> tuple[float, float, float, float]:
    trips = result.trajectories    # each holds at least one point
    if not trips:
        raise ValueError("no points to infer a bounding box from")
    # the extremes of each trip's columns, then of those: the same values a
    # flat list of every coordinate gives
    lat_lo, lat_hi = min(min(t.lats) for t in trips), max(max(t.lats) for t in trips)
    lon_lo, lon_hi = min(min(t.lons) for t in trips), max(max(t.lons) for t in trips)
    pad_lat = (lat_hi - lat_lo) * 1e-6 + 1e-9
    lon_span = lon_hi - lon_lo
    # the padding stops at the poles and at a 360-degree span, so data that
    # reaches them still gets a grid
    pad_lon = min(lon_span * 1e-6 + 1e-9, max(360.0 - lon_span, 0.0) / 2)
    return (max(lat_lo - pad_lat, -90.0), min(lat_hi + pad_lat, 90.0),
            lon_lo - pad_lon, lon_hi + pad_lon)


def _load_trips(args, path) -> tuple[GridMap, ingest.ParseResult]:
    """The grid and one parse of a trajectory CSV.

    With --unit-grid or --bbox the grid is built first and the parse drops
    points outside it. Otherwise the grid is the padded bounding box of
    every parsed point, so nothing lies outside it.
    """
    if args.grid is None:
        raise ValueError("--grid is required")
    if args.unit_grid:
        grid = unit_grid(args.grid)
    elif args.bbox is not None:
        grid = GridMap(*_parse_bbox(args.bbox), args.grid)
    else:
        result = ingest.parse_trajectories(path)
        return GridMap(*_bbox_of_points(result), args.grid), result
    return grid, ingest.parse_trajectories(path, grid)


def _discretize_all(result: ingest.ParseResult, grid: GridMap):
    paths, degenerate = [], 0
    for traj in result.trajectories:
        try:
            paths.append(ingest.discretize(traj, grid))
        except ingest.DegenerateTripError:
            degenerate += 1
    return paths, degenerate


def _check_scoring(args, alphas, alpha_flag="--alpha") -> None:
    """Reject the query settings before any model or CSV is read."""
    outside = [a for a in alphas if not 0.0 < a < 1.0]
    if outside:
        raise ValueError(f"{alpha_flag} value {outside[0]} outside (0, 1)")
    if args.knn < 1:
        raise ValueError(f"--knn must be >= 1, got {args.knn}")
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    if not (math.isfinite(args.bin_width_km) and args.bin_width_km > 0):
        raise ValueError(f"--bin-width-km must be finite and > 0, got {args.bin_width_km}")


@contextmanager
def _output(args):
    """The --out file, written atomically, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with atomic_write(args.out, "w") as fh:
        yield fh


def cmd_train(args) -> int:
    detour_layers(args.max_detour, "--max-detour")
    grid, result = _load_trips(args, args.input)
    paths, degenerate = _discretize_all(result, grid)
    if not paths:
        raise ValueError("no usable trips after discretization")
    sstp = build_sstp(paths, grid.g)
    counts = count_start_dest(paths)
    t0 = time.perf_counter()
    model = train_initial(sstp, counts, args.max_detour)
    elapsed = (time.perf_counter() - t0) * 1e3
    save_model(model, args.out)
    save_sstp(sstp, args.out + ".sstp")
    n = grid.g * grid.g
    print(f"trained g={grid.g} max_detour={args.max_detour} trips={len(paths)} "
          f"degenerate={degenerate} malformed_rows={result.malformed_rows} "
          f"entries={n * n * model.n_layers} train_ms={elapsed:.1f}")
    print(f"model written to {args.out} (+{args.out}.sstp)")
    return 0


def cmd_update(args) -> int:
    model = load_model(args.model)
    single_step = model.single_step()
    try:
        single_step.validate()
    except ValueError as exc:
        raise CorruptModelError(f"{args.model}: single-step entries: {exc}") from None
    cs = update.load_changeset(args.changes, model.g)
    # the loaded model is refreshed in place and saved, so one model is held
    stats = update.refresh_in_place(model, single_step, cs, mode=args.mode)
    save_model(model, args.out or args.model)
    print(f"mode={stats.mode} epoch={stats.epoch} "
          f"entries_recomputed={stats.entries_recomputed} "
          f"entries_full={stats.entries_full} "
          f"origins={stats.origins_recomputed} update_ms={stats.wall_ms:.1f}")
    return 0


def _result_json(trip_id, res: predict.PredictionResult) -> str:
    return json.dumps({
        "trip_id": trip_id,
        "cold_start": res.cold_start,
        "future_location": res.future_location,
        "future_no_match": res.future_no_match,
        "future_steps": res.future_steps,
        "predicted_length_km": round(res.predicted_length_km, 6),
        "estimated_total_km": round(res.estimated_total_km, 6),
        "extrapolated": res.extrapolated,
        "ranked": [{"cell": d, "p": p} for d, p in res.ranked],
    })


def cmd_predict(args) -> int:
    _check_scoring(args, [args.alpha])
    model = load_model(args.model)
    if args.grid not in (None, model.g):
        raise ValueError(f"--grid {args.grid} does not match the model's g={model.g}")
    args.grid = model.g
    grid, hist_result = _load_trips(args, args.history)
    history, _ = _discretize_all(hist_result, grid)
    del hist_result     # each path holds its columns only until the histogram reads them
    hist = ingest.build_histogram(history, args.bin_width_km)
    index = predict.HistoryIndex.build(history)
    q_result = ingest.parse_trajectories(args.queries, grid)
    if q_result.dropped_points or q_result.malformed_rows:
        # a query trip left with no point gets no line
        print(f"note: {args.queries}: skipped {q_result.dropped_points} points outside the "
              f"grid and {q_result.malformed_rows} malformed rows", file=sys.stderr)
    with _output(args) as out:
        for traj in q_result.trajectories:
            path = ingest.cell_path(traj, grid)
            q = predict.Query(path.cells, path.trip_km, top_k=args.top)
            res = predict.answer(model, q, hist, index, grid, args.alpha, args.knn)
            out.write(_result_json(traj.trip_id, res) + "\n")
    return 0


def _shortest_route_model(model: TransitionModel) -> TransitionModel:
    """The first-order baseline: `model` cut to its shortest-route layer.

    Layer 0's entries read no detour layer, so they are bitwise those of
    train_initial(sstp, counts, 0), and this is that model without a
    second training. It shares the layer's memory and the counts with
    `model`.
    """
    return replace(model, max_detour=0, layers=model.layers[:1], totals=model.layers[0])


def cmd_eval(args) -> int:
    if not 0 < args.train_frac < 1:
        raise ValueError(f"--train-frac must lie in (0, 1), got {args.train_frac}")
    completions = [float(x) for x in args.completion.split(",")]
    outside = [f for f in completions if not 0 < f <= 1]
    if outside:
        raise ValueError(f"completion point {outside[0]} outside (0, 1]")
    alphas = [float(x) for x in args.alpha_sweep.split(",")] if args.alpha_sweep else [args.alpha]
    _check_scoring(args, alphas, "--alpha-sweep" if args.alpha_sweep else "--alpha")
    detour_layers(args.max_detour, "--max-detour")
    grid, result = _load_trips(args, args.input)
    paths, _ = _discretize_all(result, grid)
    if len(paths) < 10:
        raise ValueError("need at least 10 trips to evaluate")
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(paths))
    n_test = max(1, int(len(paths) * (1 - args.train_frac)))
    test = [paths[i] for i in order[:n_test]]
    train = [paths[i] for i in order[n_test:]]
    sstp = build_sstp(train, grid.g)
    counts = count_start_dest(train)
    model = train_initial(sstp, counts, args.max_detour)
    hist = ingest.build_histogram(train, args.bin_width_km)
    index = predict.HistoryIndex.build(train)
    baseline_model = _shortest_route_model(model) if args.compare_baseline else None
    train_seqs = {tuple(p.cells) for p in train}
    with _output(args) as out:
        cols = "alpha,completion,bucket,queries,edp_deviation_km"
        if baseline_model is not None:
            cols += ",baseline_deviation_km"
        out.write(cols + "\n")
        for a in alphas:
            for f in completions:
                # per bucket: the EDP results, the baseline results and the truths
                buckets: dict[str, tuple[list, list, list[int]]] = {}
                for trip in test:
                    cut = max(1, math.ceil(len(trip.cells) * f))
                    q = predict.Query(trip.cells[:cut], trip.trip_km * f, top_k=args.top)
                    bucket = "all"
                    if args.match_ratio_buckets:
                        bucket = "match" if tuple(trip.cells) in train_seqs else "novel"
                    results, base_results, truths = buckets.setdefault(bucket, ([], [], []))
                    results.append(predict.answer(model, q, hist, index, grid, a, args.knn))
                    if baseline_model is not None:
                        base_results.append(predict.answer(baseline_model, q, hist, index, grid, a,
                                                           args.knn, force_future_to_current=True))
                    truths.append(trip.cells[-1])
                for bucket in sorted(buckets):
                    results, base_results, truths = buckets[bucket]
                    dev = predict.deviation_metrics(results, truths, grid, args.top).mean_km
                    line = f"{a},{f},{bucket},{len(truths)},{dev:.4f}"
                    if baseline_model is not None:
                        base_dev = predict.deviation_metrics(base_results, truths, grid,
                                                             args.top).mean_km
                        line += f",{base_dev:.4f}"
                    out.write(line + "\n")
    return 0


def _refresh_ms(model, sstp, cells) -> float:
    """The fastest of BENCH_REPEATS exact in-place refreshes that give
    `cells` uniform rows, each of a copy made outside the timed region and
    checked bitwise against retraining."""
    rows = {}
    for cell in cells:
        nbrs = neighbors(cell, sstp.g)
        rows[cell] = {b: 1.0 / len(nbrs) for b in nbrs}
    change = update.ChangeSet(model.epoch + 1, rows)
    best, reference = math.inf, None
    for _ in range(BENCH_REPEATS):
        live, refreshed = sstp.copy(), model.copy()
        t0 = time.perf_counter()
        update.refresh_in_place(refreshed, live, change)
        best = min(best, time.perf_counter() - t0)
        if reference is None:
            reference = train_initial(live, None, model.max_detour)
        if not (np.array_equal(refreshed.layers, reference.layers)
                and np.array_equal(refreshed.totals, reference.totals)):
            raise RuntimeError(f"refresh of cells {cells} differs from retraining at g={sstp.g}")
    return best * 1e3


def cmd_bench(args) -> int:
    grids = [int(x) for x in args.grids.split(",")]
    small = [g for g in grids if g < 2]
    if small:
        raise ValueError(f"grid side must be >= 2, got {small[0]}")
    detour_layers(args.max_detour, "--max-detour")
    with _output(args) as out:
        out.write("g,edp_ms,smm_ms,speedup,corner_ms,cluster_ms\n")
        for g in grids:
            sstp = random_sstp(g, args.seed)
            dense = sstp.to_dense()
            # the minimum of a few runs: a single one swings by an order of
            # magnitude on small grids
            edp_s = smm_s = math.inf
            for _ in range(BENCH_REPEATS):
                t0 = time.perf_counter()
                model = train_initial(sstp, None, args.max_detour)
                edp_s = min(edp_s, time.perf_counter() - t0)
                totals, elapsed = baseline.matrix_power_train(dense, args.max_detour)
                smm_s = min(smm_s, elapsed)
            err = float(np.abs(model.totals - totals).max())
            if err > 1e-9:
                raise RuntimeError(f"trainers disagree at g={g}: {err}")
            del dense, totals
            # the corner cell, then the 2x2 block at the centre
            h = g // 2 - 1
            corner_ms = _refresh_ms(model, sstp, [0])
            cluster_ms = _refresh_ms(model, sstp, [h * g + h, h * g + h + 1,
                                                   (h + 1) * g + h, (h + 1) * g + h + 1])
            edp_ms, smm_ms = edp_s * 1e3, smm_s * 1e3
            out.write(f"{g},{edp_ms:.1f},{smm_ms:.1f},{smm_ms / edp_ms:.2f},"
                      f"{corner_ms:.1f},{cluster_ms:.1f}\n")
            out.flush()
    return 0


def cmd_census(args) -> int:
    g = args.grid
    if g is None or g < 2:
        raise ValueError("--grid >= 2 is required")
    steps = 2 * g if args.steps is None else args.steps
    if steps < 1:
        raise ValueError(f"--steps must be >= 1, got {steps}")
    with _output(args) as out:
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
    return 0


def cmd_gen(args) -> int:
    g = args.grid
    if g is None or g < 2:
        raise ValueError("--grid >= 2 is required")
    paths, truth = ingest.generate_synthetic(
        g, args.trips, args.seed, detour_rate=args.detour_rate,
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

    grid, box, detour, scoring, seed, out, config = (
        argparse.ArgumentParser(add_help=False) for _ in range(7))
    grid.add_argument("--grid", type=int)
    box.add_argument("--bbox", help=BBOX_HELP)
    box.add_argument("--unit-grid", action="store_true",
                     help="1 km cells anchored at the origin (synthetic data)")
    detour.add_argument("--max-detour", type=int)
    scoring.add_argument("--top", type=int, default=3)
    scoring.add_argument("--alpha", type=float)
    scoring.add_argument("--knn", type=int)
    scoring.add_argument("--bin-width-km", type=float)
    seed.add_argument("--seed", type=int)
    out.add_argument("--out")
    config.add_argument("--config", help="key=value file of settings: " + ", ".join(SETTINGS))

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[config, *parents])
        p.set_defaults(func=func)
        return p

    p = command("train", cmd_train, "train a model from a trajectory CSV", grid, box, detour)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = command("update", cmd_update, "apply a change set to a trained model", out)
    p.add_argument("--model", required=True)
    p.add_argument("--changes", required=True)
    p.add_argument("--mode", choices=("paper", "exact"), default="exact")

    p = command("predict", cmd_predict, "answer destination queries", grid, box, scoring, out)
    p.add_argument("--model", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--queries", required=True)

    p = command("eval", cmd_eval, "held-out accuracy at completion points",
                grid, box, detour, scoring, seed, out)
    p.add_argument("--input", required=True)
    p.add_argument("--completion", default="0.3,0.7")
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--alpha-sweep", help="comma list of decay factors")
    p.add_argument("--match-ratio-buckets", action="store_true")
    p.add_argument("--compare-baseline", action="store_true")

    p = command("bench", cmd_bench, "trainer speed vs the matrix-power baseline, "
                "and refresh speed", detour, seed, out)
    p.add_argument("--grids", required=True, help="comma list of grid sides")

    p = command("census", cmd_census, "structural nonzero counts per step", grid, out)
    p.add_argument("--steps", type=int)
    p.add_argument("--analytic", action="store_true")

    p = command("gen", cmd_gen, "generate a synthetic trajectory dataset", grid, seed)
    p.add_argument("--trips", type=int, required=True)
    p.add_argument("--detour-rate", type=float, default=0.0)
    p.add_argument("--attractors", type=int)
    p.add_argument("--out", required=True, help="output prefix")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        for key, (cast, default) in SETTINGS.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, cast(config[key]) if key in config else default)
        return args.func(args)
    except (FormatError, CorruptModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
