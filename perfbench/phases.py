"""One pass over a workload: rounds of train, set-up, queries and refresh.

Every round runs every operation, so every metric exists on every
workload and each is sampled across the whole run: on a shared machine
the speed drifts over seconds, and a metric measured in one burst would
carry that drift in full. The workload sets the operations of a round,
in order, and the world they run on. Calls are a closed loop
from one caller in this process, because `edp train`,
`predict_destination` and `apply_update` all answer synchronously.
"""

import io
import json
import os
import re
import resource
import statistics
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from worlds import MAX_DETOUR

CHANGE_SETS = ("corner", "cluster")
MIN_ROUNDS = 3


@dataclass
class Inputs:
    dir: Path
    meta: dict
    queries: list          # edp.predict.Query
    truths: list[int]

    @classmethod
    def load(cls, edp, path) -> "Inputs":
        path = Path(path)
        meta = json.loads((path / "world.json").read_text())
        raw = json.loads((path / "queries.json").read_text())
        queries = [edp.predict.Query(cells, d_t, top_k=3) for cells, d_t, _ in raw]
        return cls(path, meta, queries, [truth for _, _, truth in raw])


@dataclass
class Served:
    """What set-up produces: everything a query needs."""
    model: object
    sstp: object
    hist: object
    index: object
    trips: int


class Answer(NamedTuple):
    query: object
    result: object       # PredictionResult; the fallback ranking on a cold start
    cold: bool
    truth: int


class Pass:
    def __init__(self, edp, workload, inputs: Inputs, seconds: float, tracer=None):
        self.edp = edp
        self.workload = workload
        self.inputs = inputs
        self.seconds = seconds
        self.tracer = tracer
        world = workload.world
        self.grid = edp.ingest.synthetic_grid(world.g)
        self.csv = str(inputs.dir / "history.csv")
        self.model_path = str(inputs.dir / "model.edp")
        self.train_s: list[float] = []
        self.setup_s: list[float] = []
        self.update_s: list[float] = []
        self.update_stats: dict[str, object] = {}
        self.snapshots: list = []        # base, after corner, after cluster (first cycle)
        self.final_sstp = None
        self.latency_ns: list[int] = []
        self.pass_p50_us: list[float] = []    # per-call latency percentiles of each pass
        self.pass_p99_us: list[float] = []
        self.query_wall_s = 0.0
        self.first_batch: list[Answer] = []   # the first query pass
        self.final_batch: list[Answer] = []   # the pass after the last change set
        self.train_stdout = ""
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def run(self) -> None:
        """Rounds until --seconds have passed, at least MIN_ROUNDS of them."""
        self.changes = {name: self.edp.update.load_changeset(self.inputs.dir / f"{name}.csv",
                                                             self.grid.g)
                        for name in CHANGE_SETS}
        ops = {"train": self._train, "setup": self._setup, "query": self._query_pass,
               "refresh": self._refresh_cycle}
        t0 = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            for op in self.workload.round:
                ops[op]()
            rounds += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _train(self) -> None:
        argv = ["train", "--input", self.csv, "--grid", str(self.grid.g), "--unit-grid",
                "--max-detour", str(MAX_DETOUR), "--out", self.model_path]
        out = io.StringIO()
        t0 = time.perf_counter()
        with self._span("cli.main"), redirect_stdout(out):
            rc = self.edp.cli.main(argv)
        self.train_s.append(time.perf_counter() - t0)
        self.attempted += 1
        if rc != 0:
            self._fail(f"edp train exited with {rc}")
        self.train_stdout = out.getvalue()

    def _setup(self) -> None:
        edp = self.edp
        t0 = time.perf_counter()
        with self._span("bench.setup"):
            model = edp.model.load_model(self.model_path)
            sstp = edp.model.load_sstp(self.model_path + ".sstp")
            parsed = edp.ingest.parse_trajectories(self.csv, self.grid)
            paths = []
            for traj in parsed.trajectories:
                try:
                    paths.append(edp.ingest.discretize(traj, self.grid))
                except edp.DegenerateTripError:
                    pass      # edp train skips these too; the checks count trips
            hist = edp.ingest.build_histogram(paths)
            index = edp.predict.HistoryIndex.build(paths)
        self.setup_s.append(time.perf_counter() - t0)
        self.attempted += 1
        self.served = Served(model, sstp, hist, index, len(paths))

    def _query_pass(self) -> None:
        records = self._batch(self.served.model, record=not self.first_batch)
        self.first_batch = self.first_batch or records

    def _batch(self, model, record: bool) -> list:
        """One closed-loop pass over every query prefix against `model`."""
        edp, served, tracer = self.edp, self.served, self.tracer
        predict = edp.predict.predict_destination
        lat = self.latency_ns
        records = []
        t_batch = time.perf_counter()
        for q, truth in zip(self.inputs.queries, self.inputs.truths):
            if tracer:
                tracer.query_id += 1
            cold = False
            t0 = time.perf_counter_ns()
            try:
                res = predict(model, q, served.hist, served.index, self.grid)
            except edp.ColdStartError as exc:
                res, cold = exc, True
            except Exception as exc:     # keep measuring; the failure is counted
                lat.append(time.perf_counter_ns() - t0)
                self._fail(f"query {q.cells[:3]}...: {exc!r}")
                continue
            lat.append(time.perf_counter_ns() - t0)
            if record:
                records.append(Answer(q, res, cold, truth))
        self.query_wall_s += time.perf_counter() - t_batch
        p50, p99 = np.percentile(np.asarray(lat[-len(self.inputs.queries):]) / 1e3, (50, 99))
        self.pass_p50_us.append(float(p50))
        self.pass_p99_us.append(float(p99))
        self.attempted += len(self.inputs.queries)
        for i, a in enumerate(records):
            if a.cold:    # answer with the fallback ranking, as `edp predict` does
                records[i] = a._replace(result=edp.predict.PredictionResult(
                    ranked=a.result.fallback[:a.query.top_k],
                    future_location=a.query.cells[-1],
                    predicted_length_km=0.0, estimated_total_km=0.0))
        return records

    def _refresh_cycle(self) -> None:
        """Both change sets from the served model, with a query batch after each."""
        first = not self.update_s
        sstp = self.served.sstp.copy()
        snap = self.served.model
        snaps = [snap]
        total = 0.0
        for name in CHANGE_SETS:
            t0 = time.perf_counter()
            try:
                with self._span(f"bench.{name}"):
                    snap, stats = self.edp.update.apply_update(snap, sstp, self.changes[name])
            except (ValueError, RuntimeError) as exc:
                self.attempted += 1
                self._fail(f"apply_update({name}): {exc!r}")
                return
            dt = time.perf_counter() - t0
            total += dt
            self.attempted += 1
            self.update_stats[name] = stats
            snaps.append(snap)
            records = self._batch(snap, record=first and name == CHANGE_SETS[-1])
        self.update_s.append(total)
        if first:
            self.snapshots = snaps
            self.final_sstp = sstp
            self.final_batch = records

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """{metric: (value, unit, samples)}.

        Repeated operations are averaged, and the query percentiles are
        taken within each pass and averaged over the run's passes. A shared
        host's speed switches between regimes that last seconds, so samples
        pooled over a run are bimodal, and their median jumps between the
        modes with the share of time spent in each. The mean moves only in
        proportion to that share. Set-up time is the median of its samples.
        """
        n_calls = len(self.latency_ns)
        answers = self.first_batch
        dev = self.edp.predict.deviation_metrics([a.result for a in answers],
                                                 [a.truth for a in answers], self.grid, top_n=3)
        return {
            "train_s": (statistics.mean(self.train_s), "s", len(self.train_s)),
            "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
            "query_p50_us": (statistics.mean(self.pass_p50_us), "us", n_calls),
            "query_p99_us": (statistics.mean(self.pass_p99_us), "us", n_calls),
            "queries_per_s": (1 / self.query_seconds(), "1/s", n_calls),
            "update_s": (statistics.mean(self.update_s), "s", len(self.update_s)),
            "top3_deviation_km": (dev.mean_km, "km", len(answers)),
        }

    def query_seconds(self) -> float:
        return self.query_wall_s / len(self.latency_ns)

    def per_layer(self, untraced: "Pass") -> dict[str, tuple[float, str, int]]:
        """{metric: (value, unit, samples)} from this traced pass.

        Times are self seconds per operation: per `edp train` for ingest, cli
        and model-training metrics, per set-up for load, histogram and index
        metrics, per query for predict metrics and per change set for update
        metrics.
        """
        tracer = self.tracer
        report = tracer.report()

        def agg(name, root=None):
            rows = [v for (r, nm), v in report.items() if nm == name and root in (None, r)]
            calls, total, own = (sum(col) for col in zip(*rows)) if rows else (0, 0, 0)
            return calls, total / 1e9, own / 1e9

        world, meta = self.workload.world, self.inputs.meta
        n_train = agg("cli.main")[0]
        n_setup = agg("bench.setup")[0]
        n_query = agg("predict.predict_destination")[0]

        def per_train(name):
            return (agg(name, "cli.main")[2] / n_train, "s", n_train)

        def per_setup(name):
            return (agg(name, "bench.setup")[2] / n_setup, "s", n_setup)

        def per_query(name):
            return (agg(name)[2] / n_query, "s", n_query)

        parse_calls, _, parse_s = agg("ingest.parse_trajectories", "cli.main")
        discretize_s = agg("ingest.discretize", "cli.main")[2]
        train_initial_s = per_train("model.train_initial")[0]
        index_s = per_setup("predict.HistoryIndex.build")[0]
        malformed = int(dict(re.findall(r"(\w+)=(\d+)", self.train_stdout))["malformed_rows"])
        out = {
            "ingest.parse_s": (parse_s / parse_calls, "s", parse_calls),
            "ingest.parse_calls": (parse_calls / n_train, "count", n_train),
            "ingest.rows_per_s": (meta["rows"] * parse_calls / parse_s, "1/s", parse_calls),
            "ingest.discretize_s": (discretize_s / n_train, "s", n_train),
            "ingest.points_per_s": (meta["points"] * n_train / discretize_s, "1/s", n_train),
            "ingest.histogram_s": per_setup("ingest.build_histogram"),
            "ingest.malformed_rows": (malformed, "count", 1),
            "cli.train_self_s": per_train("cli.main"),
            "model.build_sstp_s": per_train("model.build_sstp"),
            "model.count_start_dest_s": per_train("model.count_start_dest"),
            "model.train_initial_s": (train_initial_s, "s", n_train),
            "model.entries_per_s": (world.g ** 4 * (MAX_DETOUR // 2 + 1) / train_initial_s,
                                    "1/s", n_train),
            "model.save_model_s": per_train("model.save_model"),
            "model.model_bytes": (os.path.getsize(self.model_path), "B", 1),
            "model.save_sstp_s": per_train("model.save_sstp"),
            "model.load_model_s": per_setup("model.load_model"),
            "model.load_sstp_s": per_setup("model.load_sstp"),
            "predict.index_build_s": (index_s, "s", n_setup),
            "predict.index_trips_per_s": (self.served.trips / index_s, "1/s", n_setup),
            "predict.estimate_s": per_query("predict.estimate_total_distance"),
            "predict.future_s": per_query("predict.infer_future_location"),
            "predict.continuation_calls": (
                tracer.counters["predict.HistoryIndex.continuation"] / n_query, "count", n_query),
            "predict.score_s": per_query("predict.predict_destination"),
        }
        answers = self.first_batch
        model = self.served.model
        out["predict.candidates_mean"] = (statistics.mean(
            sum(d != a.query.cells[0] for d in model.start_counts.get(a.query.cells[0], {}))
            for a in answers), "count", len(answers))
        for key, flag in (("cold_start", lambda a: a.cold),
                          ("no_match", lambda a: not a.cold and a.result.future_no_match),
                          ("extrapolated", lambda a: not a.cold and a.result.extrapolated)):
            out[f"predict.{key}_share"] = (sum(map(flag, answers)) / len(answers), "ratio",
                                           len(answers))
        per_set = {}
        for name in CHANGE_SETS:
            calls, total, _ = agg("update.apply_update", f"bench.{name}")
            per_set[name] = total / calls
            out[f"update.{name}_s"] = (per_set[name], "s", calls)
        stats = list(self.update_stats.values())
        recomputed = sum(s.entries_recomputed for s in stats)
        changed = sum(int(np.count_nonzero(new.layers != old.layers))
                      for old, new in zip(self.snapshots, self.snapshots[1:]))
        calls, retrain_s, _ = agg("model.train_initial", "bench.retrain")
        out.update({
            "update.origins_recomputed": (sum(s.origins_recomputed for s in stats), "count", 1),
            "update.entries_recomputed": (recomputed, "count", 1),
            "update.recompute_share": (recomputed / sum(s.entries_full for s in stats), "ratio", 1),
            "update.useful_share": (changed / recomputed, "ratio", 1),
            "update.retrain_s": (retrain_s / calls, "s", calls),
            "update.vs_retrain": (statistics.mean(per_set.values()) / (retrain_s / calls),
                                  "ratio", calls),
            # time in the ingest and model layers under `edp train`; the rest is cli's own
            "trace.train_coverage": ((agg("cli.main")[1] - agg("cli.main")[2]) / sum(self.train_s),
                                     "ratio", n_train),
            "trace.query_coverage": (agg("predict.predict_destination")[1] / self.query_wall_s,
                                     "ratio", n_query),
            "trace.train_overhead": (statistics.mean(self.train_s)
                                     / statistics.mean(untraced.train_s) - 1, "ratio", n_train),
            "trace.query_overhead": (self.query_seconds() / untraced.query_seconds() - 1,
                                     "ratio", n_query),
            "trace.update_overhead": (statistics.mean(self.update_s)
                                      / statistics.mean(untraced.update_s) - 1,
                                      "ratio", len(self.update_s)),
        })
        return out
