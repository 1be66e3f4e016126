"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import phases
import run
import worlds

edp = worlds.import_edp()
BENCHMARK = json.loads((worlds.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> worlds.Workload:
    wl = worlds.WORKLOADS[name]
    return replace(wl, world=replace(wl.world, g=8, history_trips=150, query_trips=8))


def tiny_pass(tmp_path, name, seed=5):
    """One untraced pass of MIN_ROUNDS rounds on a g=8 version of the workload."""
    wl = tiny(name)
    worlds.generate(wl, seed, tmp_path)
    p = phases.Pass(edp, wl, phases.Inputs.load(edp, tmp_path), seconds=0.01)
    p.run()
    return p


def test_same_seed_gives_identical_inputs(tmp_path):
    wl = tiny("serve")
    for d in ("a", "b", "c"):
        worlds.generate(wl, 3 if d != "c" else 4, tmp_path / d)
    files = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert files == ["cluster.csv", "corner.csv", "history.csv", "queries.json", "world.json"]
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "history.csv").read_bytes() != \
        (tmp_path / "c" / "history.csv").read_bytes()


def test_inputs_carry_gaps_and_malformed_rows(tmp_path):
    meta = worlds.generate(tiny("serve"), 1, tmp_path)
    assert meta["malformed_rows"] > 0 and meta["gap_visits"] > 0
    assert meta["points_per_visit"] > 1.5
    assert meta["single_cell_queries"] > 0


@pytest.mark.parametrize("name", sorted(worlds.WORKLOADS))
def test_tiny_workload_runs_and_checks_pass(tmp_path, name):
    p = tiny_pass(tmp_path, name)
    e2e = p.end_to_end()
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v > 0 for v, _, _ in e2e.values())
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u, _) in e2e.items()} == units
    assert p.failed == 0
    assert checks.check_pass(edp, p, seed=5) == dict.fromkeys(
        ["train_output", "model_oracle", "start_counts", "rankings", "refresh_retrain",
         "refresh_rankings"], 0)


def test_every_span_fires_and_every_layer_metric_is_reported(tmp_path):
    base = tiny_pass(tmp_path, "serve")
    p, layer = run.traced_pass(edp, tiny("serve"), base.inputs, 0.01, base)
    fired = set(p.tracer.names)
    for _, _, name in run.LAYER_SPANS:
        assert name in fired, name
    for _, _, key in run.LAYER_COUNTS:
        assert p.tracer.counters[key] > 0, key
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u, _) in layer.items()} == units
    # every query's spans share the query's id
    qid = np.asarray(p.tracer.qid)
    names = np.asarray(p.tracer.name_id)
    parent = np.asarray(p.tracer.parent)
    child = parent >= 0
    query = names[np.maximum(parent, 0)] == p.tracer.names.index("predict.predict_destination")
    assert (qid[child & query] == qid[parent[child & query]]).all()
    # wrappers are gone once the pass ends
    assert edp.predict.predict_destination.__module__ == "edp.predict"
    assert "build" in vars(edp.predict.HistoryIndex)
    assert isinstance(vars(edp.predict.HistoryIndex)["build"], classmethod)


def test_model_check_rejects_one_flipped_layer_entry(tmp_path):
    p = tiny_pass(tmp_path, "train_grid")
    model, sstp = p.served.model, p.served.sstp
    origins = [3, 17]
    assert checks.check_model(model, sstp, origins) == 0
    bad = model.copy()
    bad.layers[1, 17, 40] += 1e-6
    assert checks.check_model(bad, sstp, origins) == 1
    assert checks.check_same_model(bad, model) == 1


def test_ranking_check_rejects_an_altered_ranking(tmp_path):
    p = tiny_pass(tmp_path, "serve")
    meta, served = p.inputs.meta, p.served
    warm = [a for a in p.first_batch if not a.cold and len(a.result.ranked) >= 2]
    assert checks.check_rankings(edp, served.model, served.sstp, meta["endpoints"], warm) == 0
    a = warm[0]
    (d0, p0), (d1, p1) = a.result.ranked[:2]
    swapped = replace(a.result, ranked=[(d1, p0), (d0, p1)] + a.result.ranked[2:])
    altered = a._replace(result=swapped)
    if p0 != p1:
        assert checks.check_rankings(edp, served.model, served.sstp, meta["endpoints"],
                                     [altered]) == 1
    shifted = a._replace(result=replace(a.result, ranked=[(d0, p0 * 0.9)] + a.result.ranked[1:]))
    assert checks.check_rankings(edp, served.model, served.sstp, meta["endpoints"],
                                 [shifted]) == 1


def test_train_output_check_counts_trips_and_malformed_rows(tmp_path):
    p = tiny_pass(tmp_path, "serve")
    assert checks.check_train_output(p.train_stdout, p.inputs.meta) == 0
    meta = dict(p.inputs.meta, malformed_rows=p.inputs.meta["malformed_rows"] + 1)
    assert checks.check_train_output(p.train_stdout, meta) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(worlds.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(worlds.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
    assert not Path(tmp_path / ".bench_out").exists()


def test_benchmark_json_names_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: wl.why for name, wl in worlds.WORKLOADS.items()}
