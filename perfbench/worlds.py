"""Seeded benchmark inputs: workload definitions and the files each run reads.

A world is a city: a trip pool from `edp.ingest.generate_synthetic` with a
fixed per-workload city seed, so the grid, the movement preferences and
the destination districts are part of the workload's definition. The run's
--seed draws which trips are observed: a history, written as a trajectory
CSV (what `edp train` and the serving set-up read), and query trips whose
prefixes become queries. Query trips are held out, unless the world
replays prefixes of its own history. Keeping the city fixed keeps trip lengths
and prediction difficulty, and so every cost, from swinging with the seed.
Two change-set CSVs (one corner cell, then a 2x2 block at the centre)
drive the refresh phase.

The CSV is made to look like GPS input rather than cell centres: every cell
visit gets several points jittered inside the cell, a seeded share of
interior visits is dropped (gaps that `discretize` must bridge), and a
seeded share of extra malformed rows is mixed in. The shares are recorded
in `world.json`.

Run as a script it writes one world:

    python3 perfbench/worlds.py --workload serve --seed 3 --out DIR
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMPLETIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
POOL_FACTOR = 2          # a city's trip pool, in multiples of the trips a run draws
DETOUR_RATE = 0.2
ATTRACTORS = 4
MAX_DETOUR = 8
GAP_SHARE = 0.05         # interior cell visits whose points are all dropped
MALFORMED_SHARE = 0.01   # extra malformed rows per valid row


def import_edp():
    """Import `edp` from the checkout's own `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "edp" / "__init__.py").is_file():
        raise SystemExit(f"error: no edp sources under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import edp
    import edp.baseline
    import edp.cli
    return edp


@dataclass(frozen=True)
class World:
    g: int
    city_seed: int
    history_trips: int
    query_trips: int             # each gives one query per completion point
    replay: bool = False         # query trips come from the history instead of held out
    points_per_visit: tuple[int, int] = (1, 4)   # inclusive range


@dataclass(frozen=True)
class Workload:
    """A world plus the operations of one round, in order.

    A run repeats rounds until --seconds have passed. Every round trains,
    sets up, queries and refreshes, and query passes sit between the other
    operations, so each metric is sampled across the whole run rather than
    in one burst.
    """
    world: World
    round: tuple[str, ...]  # "train" (`edp train`), "setup", "query" (one pass over
                            # every prefix) or "refresh" (corner + cluster change sets)
    why: str


# Two worlds. serve is a mid grid with many trips: its `edp train` is
# dominated by ingest, its set-up by the history index, and its rounds
# query between the change sets. train_grid is a larger grid with few
# trips: its `edp train` is dominated by the wavefront and the model save,
# and its rounds by the update. Sizes keep a round to a few seconds on
# two CPUs. train_grid's history is small and sparsely sampled on purpose,
# so that ingest stays a minority of `edp train`. With under a trip per
# cell, many held-out trips would start where no trip was seen, and the
# cold-start fallback's cost depends on which cells the seed's trips
# reached. Its queries therefore replay its whole history. Query passes
# follow every `edp train`, so that query time is a large and evenly spread
# share of each round.
WORKLOADS = {
    "serve": Workload(
        World(g=16, city_seed=7103, history_trips=2000, query_trips=600),
        ("train", "setup", "query", "query", "train", "query", "query", "refresh"),
        "many trips on a mid grid: CSV ingest dominates edp train, the history index "
        "dominates set-up, and closed-loop queries run before and after each update"),
    "train_grid": Workload(
        World(g=20, city_seed=7102, history_trips=300, query_trips=300, replay=True,
              points_per_visit=(1, 2)),
        ("train", "setup", "query", "query") + ("train", "query", "query") * 3 + ("refresh",),
        "few trips on a larger grid: the wavefront and the model save dominate edp "
        "train, and incremental update dominates each round"),
}


def change_cells(g: int) -> dict[str, list[int]]:
    h = g // 2 - 1
    return {"corner": [0], "cluster": [h * g + h, h * g + h + 1,
                                       (h + 1) * g + h, (h + 1) * g + h + 1]}


def _malformed_row(rng, trip_id: str, seq: int) -> list[str]:
    kind = int(rng.integers(4))
    if kind == 0:
        return [trip_id, "x", "0", "0.5", "0.5"]          # non-integer seq
    if kind == 1:
        return [trip_id, str(seq), "0", "", "0.5"]         # empty latitude
    if kind == 2:
        return ["", str(seq), "0", "0.5", "0.5"]           # empty trip id
    return [trip_id, str(seq)]                             # truncated row


def write_history_csv(paths, grid, world: World, rng, out_path) -> dict:
    """Jittered, gappy, partly malformed points for each path; returns counts."""
    lat_step = (grid.lat_max - grid.lat_min) / grid.g
    lon_step = (grid.lon_max - grid.lon_min) / grid.g
    lo, hi = world.points_per_visit
    visits = interior = gaps = points = malformed = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("trip_id", "seq", "timestamp", "lat", "lon"))
        for p in paths:
            seq = 0
            last = len(p.cells) - 1
            for i, cell in enumerate(p.cells):
                visits += 1
                if 0 < i < last:
                    interior += 1
                    if rng.random() < GAP_SHARE:
                        gaps += 1
                        continue
                row, col = divmod(cell, grid.g)
                for _ in range(int(rng.integers(lo, hi + 1))):
                    # stay 10% inside the cell edges so the cell is unambiguous
                    u, v = 0.1 + 0.8 * rng.random(2)
                    lat = grid.lat_max - (row + u) * lat_step
                    lon = grid.lon_min + (col + v) * lon_step
                    writer.writerow((p.trip_id, seq, seq * 15, f"{lat:.8f}", f"{lon:.8f}"))
                    seq += 1
                    points += 1
                    if rng.random() < MALFORMED_SHARE:
                        writer.writerow(_malformed_row(rng, p.trip_id, seq))
                        malformed += 1
    return {"rows": points + malformed, "points": points, "malformed_rows": malformed,
            "cell_visits": visits, "gap_visits": gaps,
            "malformed_share": malformed / (points + malformed),
            "gap_share": gaps / max(interior, 1),
            "points_per_visit": points / (visits - gaps)}


def write_changeset_csv(cells, epoch: int, g: int, neighbors, rng, out_path) -> None:
    """Seeded new outgoing rows for `cells` in the change-set CSV format."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "cell_id", "neighbor_cell_id", "probability"))
        for cell in cells:
            nbrs = neighbors(cell, g)
            w = rng.random(len(nbrs)) + 0.05
            w /= w.sum()
            for b, p in zip(nbrs, w):
                writer.writerow((epoch, cell, b, repr(float(p))))


def generate(workload: Workload, seed: int, out_dir) -> dict:
    """Write history.csv, queries.json, corner.csv, cluster.csv and world.json."""
    edp = import_edp()
    world = workload.world
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    drawn = world.history_trips + world.query_trips
    pool, _ = edp.ingest.generate_synthetic(
        world.g, POOL_FACTOR * drawn, world.city_seed,
        detour_rate=DETOUR_RATE, n_attractors=ATTRACTORS)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    history = [pool[i] for i in order[:world.history_trips]]
    if world.replay:
        asked = [history[i] for i in sorted(rng.choice(len(history), world.query_trips,
                                                       replace=False))]
    else:
        asked = [pool[i] for i in order[world.history_trips:drawn]]
    grid = edp.ingest.synthetic_grid(world.g)
    counts = write_history_csv(history, grid, world, rng, out / "history.csv")
    queries = []
    for p in asked:
        for f in COMPLETIONS:
            cut = max(1, math.ceil(len(p.cells) * f))
            queries.append([p.cells[:cut], p.trip_km * f, p.cells[-1]])
    (out / "queries.json").write_text(json.dumps(queries))
    for epoch, (name, cells) in enumerate(change_cells(world.g).items(), start=1):
        write_changeset_csv(cells, epoch, world.g, edp.grid.neighbors, rng, out / f"{name}.csv")
    meta = {"world": asdict(world), "detour_rate": DETOUR_RATE, "attractors": ATTRACTORS,
            "max_detour": MAX_DETOUR, "seed": seed, "history_trips": len(history),
            "queries": len(queries),
            "single_cell_queries": sum(len(q[0]) == 1 for q in queries),
            "endpoints": [[p.cells[0], p.cells[-1]] for p in history], **counts}
    (out / "world.json").write_text(json.dumps(meta))
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
