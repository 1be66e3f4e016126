"""Run every perfbench workload for one second, untraced and traced; pass
only if each run is correct, no operation failed and nothing was written
to stderr.

A library change that breaks what perfbench calls (a loader it uses, a
function its spans wrap) otherwise shows up only in a full benchmark run.
Only a traced run looks up the functions its spans and counters wrap by
name, so each workload named in BENCHMARK.json runs twice,

    python perfbench/run.py --workload NAME --seed 1 --seconds 1 --trace T

for T = 0 and 1, each in a child process, and the last stdout line of
each, the JSON result, must read "correct": true and "failed": 0, and
the child must write nothing to stderr: a warning, a traceback or a CLI
note in the measured path fails the run. A traced run must also read
above 0 on each per-layer metric in ANSWER_SPANS and INGEST_SPANS, from
the record it writes under .bench_out/: a 0 or a missing metric means
the answer path, or edp train's parse and discretize, no longer enters a
function that perfbench wraps by name, and those per-layer numbers would
measure nothing. After each run's pass/fail line come that run's end-to-end
metrics (name, value, unit), read from the same record, so each CI log
keeps a coarse record of them; they do not change the verdict. Run from
anywhere in the checkout:

    python ci/bench_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


SEED = 1
# per query: the spans of the two helpers predict_destination calls, and
# the count of HistoryIndex.continuation calls
ANSWER_SPANS = ("predict.estimate_s", "predict.future_s", "predict.continuation_calls")
# per edp train: the self times of the CSV parse and of the per-trip
# discretize loop, between which mapping points to cells can move work
INGEST_SPANS = ("ingest.parse_s", "ingest.discretize_s")


def run_workload(name: str, trace: int, metrics: list[str]) -> bool:
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                          "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    ok = result.get("correct") is True and result.get("failed") == 0 and not run.stderr
    print(f"{name} trace {trace}: exit {run.returncode}, correct {result.get('correct')}, "
          f"failed {result.get('failed')}, stderr {len(run.stderr)} chars")
    if not ok:
        print(run.stdout[-4000:], run.stderr[-4000:], sep="\n")
    record = read_record(ROOT / ".bench_out" / f"{name}-seed{SEED}-trace{trace}.json")
    if trace:
        ok = spans_entered(record, ANSWER_SPANS, "the answer path") and ok
        ok = spans_entered(record, INGEST_SPANS, "edp train") and ok
    print_end_to_end(record, metrics)
    return ok


def read_record(path: Path) -> dict:
    """The run's .bench_out/ record, or {} when it is missing or unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def spans_entered(record: dict, metrics: tuple[str, ...], path: str) -> bool:
    """Whether each of `metrics` reads above 0; prints each that does not,
    a missing one included."""
    layers = record.get("per_layer", {})
    entered = True
    for metric in metrics:
        value = layers.get(metric, {}).get("value")
        if value is None or not value > 0:
            reads = "is missing" if value is None else f"reads {value}"
            print(f"  per-layer {metric} {reads}: {path} skips its span")
            entered = False
    return entered


def print_end_to_end(record: dict, metrics: list[str]) -> None:
    """One line per end-to-end metric of the run's record, in spec order."""
    found = record.get("end_to_end")
    if not found:
        print("  no end-to-end metrics in the run's record")
        return
    for metric in metrics:
        if metric in found:
            print(f"  {metric:20s} {found[metric]['value']:>14.6g} {found[metric]['unit']}")
        else:
            print(f"  {metric:20s} {'missing':>14s}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    results = [run_workload(w["name"], trace, metrics)
               for w in spec["workloads"] for trace in (0, 1)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
