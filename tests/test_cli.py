import json

import pytest

from edp import cli, ingest, predict
from edp.cli import main
from edp.grid import neighbors, unit_grid
from edp.model import load_model


@pytest.fixture
def synthetic_csv(tmp_path):
    out = tmp_path / "world"
    rc = main(["gen", "--grid", "6", "--trips", "300", "--seed", "4",
               "--detour-rate", "0.2", "--out", str(out)])
    assert rc == 0
    return out.with_suffix(".csv"), out.with_suffix(".sstp")


def train_model(tmp_path, synthetic_csv, extra=()):
    csv_path, _ = synthetic_csv
    model_path = tmp_path / "m.edp"
    rc = main(["train", "--input", str(csv_path), "--grid", "6", "--unit-grid",
               "--max-detour", "4", "--out", str(model_path), *extra])
    assert rc == 0
    return model_path


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen", "--grid", "5", "--trips", "40", "--seed", "42",
                         "--out", str(out)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.sstp").read_bytes() == (tmp_path / "b.sstp").read_bytes()

    def test_requires_grid(self, tmp_path):
        assert main(["gen", "--trips", "5", "--out", str(tmp_path / "x")]) == 2


class TestTrain:
    def test_happy_path(self, tmp_path, synthetic_csv, capsys):
        model_path = train_model(tmp_path, synthetic_csv)
        out = capsys.readouterr().out
        assert "train_ms=" in out
        assert model_path.exists()
        assert model_path.with_suffix(".edp.sstp").exists()
        model = load_model(model_path)
        assert model.g == 6 and model.max_detour == 4

    def test_odd_detour_rejected(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        rc = main(["train", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                   "--max-detour", "3", "--out", str(tmp_path / "m.edp")])
        assert rc == 2

    def test_tiny_grid_rejected(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        rc = main(["train", "--input", str(csv_path), "--grid", "1", "--unit-grid",
                   "--out", str(tmp_path / "m.edp")])
        assert rc == 2

    def test_missing_input(self, tmp_path):
        rc = main(["train", "--input", str(tmp_path / "nope.csv"), "--grid", "4",
                   "--unit-grid", "--out", str(tmp_path / "m.edp")])
        assert rc == 3

    def test_config_file_supplies_detour(self, tmp_path, synthetic_csv, capsys):
        csv_path, _ = synthetic_csv
        cfg = tmp_path / "edp.cfg"
        cfg.write_text("max_detour=2\n")
        rc = main(["train", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                   "--config", str(cfg), "--out", str(tmp_path / "m.edp")])
        assert rc == 0
        assert load_model(tmp_path / "m.edp").max_detour == 2

    def test_bbox_flag(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        rc = main(["train", "--input", str(csv_path), "--grid", "6",
                   "--bbox=-0.01,0.06,-0.01,0.06", "--out", str(tmp_path / "m.edp")])
        assert rc == 0
        assert load_model(tmp_path / "m.edp").g == 6

    def test_inferred_box_equals_explicit_bbox(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        box = cli._bbox_of_points(ingest.parse_trajectories(csv_path))
        inferred, explicit = tmp_path / "inferred.edp", tmp_path / "explicit.edp"
        assert main(["train", "--input", str(csv_path), "--grid", "6",
                     "--out", str(inferred)]) == 0
        assert main(["train", "--input", str(csv_path), "--grid", "6",
                     "--bbox=" + ",".join(repr(v) for v in box), "--out", str(explicit)]) == 0
        assert inferred.read_bytes() == explicit.read_bytes()
        assert (tmp_path / "inferred.edp.sstp").read_bytes() == \
            (tmp_path / "explicit.edp.sstp").read_bytes()

    def test_inferred_box_skips_non_finite_rows(self, tmp_path, synthetic_csv, capsys):
        csv_path, _ = synthetic_csv
        noisy = tmp_path / "noisy.csv"
        noisy.write_text(csv_path.read_text() + "syn000000,99,9999,nan,0.01\n")
        assert main(["train", "--input", str(noisy), "--grid", "6",
                     "--out", str(tmp_path / "m.edp")]) == 0
        assert "malformed_rows=1" in capsys.readouterr().out

    def test_non_utf8_input_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"trip_id,seq,timestamp,lat,lon\n\xff,0,100,0.1,0.1\n")
        rc = main(["train", "--input", str(bad), "--grid", "4", "--unit-grid",
                   "--out", str(tmp_path / "m.edp")])
        assert rc == 3


@pytest.mark.parametrize("grid_flags", [["--unit-grid"], []], ids=["unit-grid", "inferred"])
class TestParseOnce:
    @pytest.fixture
    def parsed(self, monkeypatch):
        paths = []
        real = ingest.parse_trajectories

        def counting(path, grid=None):
            paths.append(str(path))
            return real(path, grid)
        monkeypatch.setattr(ingest, "parse_trajectories", counting)
        return paths

    def test_train(self, tmp_path, synthetic_csv, parsed, grid_flags):
        csv_path, _ = synthetic_csv
        assert main(["train", "--input", str(csv_path), "--grid", "6", *grid_flags,
                     "--out", str(tmp_path / "m.edp")]) == 0
        assert parsed == [str(csv_path)]

    def test_eval(self, tmp_path, synthetic_csv, parsed, grid_flags):
        csv_path, _ = synthetic_csv
        assert main(["eval", "--input", str(csv_path), "--grid", "6", *grid_flags,
                     "--completion", "0.5", "--max-detour", "0"]) == 0
        assert parsed == [str(csv_path)]

    def test_predict(self, tmp_path, synthetic_csv, parsed, grid_flags):
        csv_path, _ = synthetic_csv
        model_path = train_model(tmp_path, synthetic_csv)
        parsed.clear()
        assert main(["predict", "--model", str(model_path), "--history", str(csv_path),
                     "--queries", str(csv_path), "--grid", "6", *grid_flags,
                     "--out", str(tmp_path / "res.jsonl")]) == 0
        assert sorted(parsed) == [str(csv_path)] * 2


class TestUpdate:
    def write_changes(self, tmp_path, cell, epoch=1, g=6):
        nbrs = neighbors(cell, g)
        lines = ["epoch,cell_id,neighbor_cell_id,probability"]
        for nb in nbrs:
            lines.append(f"{epoch},{cell},{nb},{1 / len(nbrs)!r}")
        f = tmp_path / f"changes{epoch}.csv"
        f.write_text("\n".join(lines) + "\n")
        return f

    def test_update_reports_stats(self, tmp_path, synthetic_csv, capsys):
        model_path = train_model(tmp_path, synthetic_csv)
        capsys.readouterr()
        changes = self.write_changes(tmp_path, cell=8)
        rc = main(["update", "--model", str(model_path), "--changes", str(changes),
                   "--mode", "exact"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries_recomputed=" in out
        assert load_model(model_path).epoch == 1

    def test_both_modes_run(self, tmp_path, synthetic_csv):
        model_path = train_model(tmp_path, synthetic_csv)
        changes = self.write_changes(tmp_path, cell=8)
        out2 = tmp_path / "p.edp"
        assert main(["update", "--model", str(model_path), "--changes", str(changes),
                     "--mode", "paper", "--out", str(out2)]) == 0
        assert out2.exists()

    def test_epoch_regression_rejected(self, tmp_path, synthetic_csv):
        model_path = train_model(tmp_path, synthetic_csv)
        changes = self.write_changes(tmp_path, cell=8, epoch=1)
        assert main(["update", "--model", str(model_path),
                     "--changes", str(changes)]) == 0
        again = self.write_changes(tmp_path, cell=9, epoch=1)
        assert main(["update", "--model", str(model_path),
                     "--changes", str(again)]) == 2

    def test_bad_model_file(self, tmp_path):
        bad = tmp_path / "bad.edp"
        bad.write_bytes(b"JUNKJUNKJUNK" * 10)
        changes = self.write_changes(tmp_path, cell=8)
        assert main(["update", "--model", str(bad), "--changes", str(changes)]) == 3


class TestPredict:
    def test_json_lines(self, tmp_path, synthetic_csv, capsys):
        csv_path, _ = synthetic_csv
        model_path = train_model(tmp_path, synthetic_csv)
        capsys.readouterr()
        queries = tmp_path / "q.csv"
        lines = ["trip_id,seq,timestamp,lat,lon"]
        src = csv_path.read_text().strip().splitlines()[1:]
        first_trip = [l for l in src if l.startswith("syn000000,")][:3]
        assert len(first_trip) >= 2
        lines.extend(first_trip)
        queries.write_text("\n".join(lines) + "\n")
        out_file = tmp_path / "res.jsonl"
        rc = main(["predict", "--model", str(model_path), "--history", str(csv_path),
                   "--queries", str(queries), "--grid", "6", "--unit-grid",
                   "--top", "3", "--out", str(out_file)])
        assert rc == 0
        rows = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["trip_id"] == "syn000000"
        assert 1 <= len(rows[0]["ranked"]) <= 3
        assert "future_location" in rows[0]

    def test_one_cell_query_answered(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        model_path = train_model(tmp_path, synthetic_csv)
        grid = unit_grid(6)
        lat, lon = grid.cell_center(14)
        queries = tmp_path / "q.csv"
        src = csv_path.read_text().strip().splitlines()
        queries.write_text("\n".join([
            src[0], f"still,0,0,{lat:.8f},{lon:.8f}", f"still,1,60,{lat + 0.002:.8f},{lon:.8f}",
            *[l for l in src[1:] if l.startswith("syn000000,")][:3]]) + "\n")
        out_file = tmp_path / "res.jsonl"
        assert main(["predict", "--model", str(model_path), "--history", str(csv_path),
                     "--queries", str(queries), "--grid", "6", "--unit-grid",
                     "--out", str(out_file)]) == 0
        rows = out_file.read_text().splitlines()
        assert [json.loads(r)["trip_id"] for r in rows] == ["still", "syn000000"]

        history = [ingest.discretize(t, grid)
                   for t in ingest.parse_trajectories(csv_path, grid).trajectories]
        still = ingest.parse_trajectories(queries, grid).trajectories[0]
        q = predict.Query([14], ingest.cell_path(still, grid).trip_km)
        assert q.d_t > 0
        res, cold = cli._predict_or_fallback(
            load_model(model_path), q, ingest.build_histogram(history),
            predict.HistoryIndex.build(history), grid, 0.004, 10)
        assert rows[0] == cli._result_json("still", res, cold)

    def test_missing_model(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        rc = main(["predict", "--model", str(tmp_path / "none.edp"),
                   "--history", str(csv_path), "--queries", str(csv_path),
                   "--grid", "6", "--unit-grid"])
        assert rc == 3


class TestEval:
    def test_completion_report(self, tmp_path, synthetic_csv, capsys):
        csv_path, _ = synthetic_csv
        rc = main(["eval", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                   "--completion", "0.3,0.7", "--top", "3", "--max-detour", "2",
                   "--seed", "1", "--compare-baseline", "--match-ratio-buckets"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,completion,bucket,queries,edp_deviation_km,baseline_deviation_km"
        assert len(lines) >= 3

    def test_alpha_sweep(self, tmp_path, synthetic_csv, capsys):
        csv_path, _ = synthetic_csv
        rc = main(["eval", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                   "--completion", "0.5", "--max-detour", "0", "--seed", "1",
                   "--alpha-sweep", "0.001,0.004,0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 4

    def test_bad_completion(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        rc = main(["eval", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                   "--completion", "1.4"])
        assert rc == 2


class TestBench:
    def test_smoke(self, capsys):
        rc = main(["bench", "--grids", "3,4", "--max-detour", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "g,edp_ms,smm_ms,speedup"
        assert len(lines) == 3

    def test_rejects_tiny_grid(self):
        assert main(["bench", "--grids", "1,4"]) == 2


class TestCensus:
    def test_plain_columns(self, capsys):
        rc = main(["census", "--grid", "4", "--steps", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "g,s,empirical,ratio"
        assert len(lines) == 9
        for line in lines[1:]:
            ratio = float(line.split(",")[-1])
            assert ratio <= 0.5  # even grid

    def test_even_grid_ratios_stay_below_half(self, capsys):
        rc = main(["census", "--grid", "10", "--steps", "20"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 21
        assert all(float(line.split(",")[-1]) <= 0.5 for line in lines[1:])

    def test_analytic_columns(self, capsys):
        rc = main(["census", "--grid", "6", "--analytic"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "g,s,empirical,z_smm,z_etp,ratio"
        assert len(lines) == 13
        assert "diverge" in captured.err

    def test_requires_grid(self):
        assert main(["census"]) == 2
