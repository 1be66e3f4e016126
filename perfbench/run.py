"""End-to-end and per-layer benchmark of edp: train, serve and refresh.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; edp is imported from its `src/`. The
inputs of a run are generated from --seed in a child process (so peak
memory is the workload's alone), then rounds of every operation run for
--seconds and the outputs are checked. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics; with --trace 1 the same pass runs again with
spans recorded around each layer and the line carries the per-layer
metrics instead. Lines before it, prefixed with '#', give sample counts,
input shares, check results, the environment and (traced) self time per
span. Results and spans are also written under `.bench_out/`.
"""

import argparse
import functools
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import phases
import spans
import worlds

HERE = Path(__file__).resolve().parent

# (owner under the edp package, attribute, span name). Each is patched where
# its callers look it up: cli imported the model functions by name, so the
# training path is wrapped in edp.cli and the serving path in edp.model.
LAYER_SPANS = (
    ("ingest", "parse_trajectories", "ingest.parse_trajectories"),
    ("ingest", "discretize", "ingest.discretize"),
    ("ingest", "build_histogram", "ingest.build_histogram"),
    ("cli", "build_sstp", "model.build_sstp"),
    ("cli", "count_start_dest", "model.count_start_dest"),
    ("cli", "train_initial", "model.train_initial"),
    ("cli", "save_model", "model.save_model"),
    ("cli", "save_sstp", "model.save_sstp"),
    ("model", "train_initial", "model.train_initial"),
    ("model", "load_model", "model.load_model"),
    ("model", "load_sstp", "model.load_sstp"),
    ("predict.HistoryIndex", "build", "predict.HistoryIndex.build"),
    ("predict", "predict_destination", "predict.predict_destination"),
    ("predict", "estimate_total_distance", "predict.estimate_total_distance"),
    ("predict", "infer_future_location", "predict.infer_future_location"),
    ("update", "apply_update", "update.apply_update"),
)
LAYER_COUNTS = (
    ("predict.HistoryIndex", "continuation", "predict.HistoryIndex.continuation"),
)


def install_tracer(edp, tracer: spans.Tracer) -> None:
    def owner(path):
        return functools.reduce(getattr, path.split("."), edp)
    for path, attr, name in LAYER_SPANS:
        tracer.wrap(owner(path), attr, name)
    for path, attr, key in LAYER_COUNTS:
        tracer.count(owner(path), attr, key)


def traced_pass(edp, workload, inputs, seconds, untraced) -> tuple[phases.Pass, dict]:
    """Run the workload again with spans; returns the pass and its layer metrics."""
    tracer = spans.Tracer()
    install_tracer(edp, tracer)
    try:
        p = phases.Pass(edp, workload, inputs, seconds, tracer)
        p.run()
        model = p.served.model
        with tracer.span("bench.retrain"):
            edp.model.train_initial(p.final_sstp, (model.start_counts, model.start_totals),
                                    model.max_detour)
    finally:
        tracer.restore()
    return p, p.per_layer(untraced)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def self_time_table(tracer: spans.Tracer) -> list[dict]:
    rows = [{"root": root, "span": name, "calls": calls, "total_s": total / 1e9,
             "self_s": own / 1e9}
            for (root, name), (calls, total, own) in tracer.report().items()]
    return sorted(rows, key=lambda r: (r["root"], -r["self_s"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worlds.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    edp = worlds.import_edp()
    workload = worlds.WORKLOADS[args.workload]

    out_dir = worlds.ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{stem}-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(HERE / "worlds.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(work)],
                       check=True, timeout=150)
        inputs = phases.Inputs.load(edp, work)
        base = phases.Pass(edp, workload, inputs, args.seconds)
        base.run()
        e2e = base.end_to_end()
        found = checks.check_pass(edp, base, args.seed)
        metrics, tracer = e2e, None
        if args.trace:
            traced, metrics = traced_pass(edp, workload, inputs, args.seconds, base)
            tracer = traced.tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = base.failed + sum(found.values())
    meta = {k: v for k, v in inputs.meta.items() if k != "endpoints"}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workload.why, "environment": environment(),
        "inputs": meta, "checks": found, "errors": base.errors,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "samples": {"train_s": base.train_s, "setup_s": base.setup_s,
                    "update_s": base.update_s, "pass_p50_us": base.pass_p50_us,
                    "pass_p99_us": base.pass_p99_us},
    }
    if tracer:
        result["per_layer"] = {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in metrics.items()}
        result["self_time"] = self_time_table(tracer)
        tracer.save(out_dir / f"{stem}-spans.npz")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# environment " + json.dumps(result["environment"]))
    print("# inputs " + json.dumps(meta))
    print("# checks " + json.dumps(found) + (f" errors {base.errors}" if base.errors else ""))
    for name, (v, u, n) in metrics.items():
        print(f"# {name:28s} {v:>16.6g} {u:6s} n={n}")
    if tracer:
        print("# self time per span (root / span: calls, self s)")
        for r in result["self_time"]:
            print(f"#   {r['root']:28s} {r['span']:34s} {r['calls']:8d} {r['self_s']:10.4f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": base.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
