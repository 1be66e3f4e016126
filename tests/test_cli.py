import json
import shlex
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from edp import cli, ingest, predict
from edp import model as model_module
from edp.cli import main
from edp.grid import neighbors, unit_grid
from edp.model import (build_sstp, count_start_dest, load_model, load_sstp, random_sstp,
                       save_model, train_initial)
from edp.update import apply_update, load_changeset

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_non_utf8_config_exits_3(self, tmp_path, synthetic_csv, capsys):
        csv_path, _ = synthetic_csv
        cfg = tmp_path / "edp.cfg"
        cfg.write_bytes(b"grid=\xff\xfe8\n")
        rc = main(["train", "--input", str(csv_path), "--unit-grid",
                   "--config", str(cfg), "--out", str(tmp_path / "m.edp")])
        assert rc == 3
        assert "edp.cfg" in capsys.readouterr().err
        assert not (tmp_path / "m.edp").exists()

    @pytest.mark.parametrize("line, code, named", [
        ("max-detour=2", 3, "'max-detour'"),
        ("max_detour=abc", 2, "max_detour='abc'"),
        ("alpha=", 2, "alpha=''"),
    ], ids=["unknown-key", "bad-int", "empty-float"])
    def test_config_key_and_value_checked(self, tmp_path, synthetic_csv, capsys, line,
                                          code, named):
        csv_path, _ = synthetic_csv
        cfg = tmp_path / "edp.cfg"
        cfg.write_text(f"# settings\n{line}\n")
        rc = main(["train", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                   "--config", str(cfg), "--out", str(tmp_path / "m.edp")])
        assert rc == code
        err = capsys.readouterr().err
        assert str(cfg) in err and named in err
        assert not (tmp_path / "m.edp").exists()

    def test_bbox_flag(self, tmp_path, synthetic_csv):
        csv_path, _ = synthetic_csv
        rc = main(["train", "--input", str(csv_path), "--grid", "6",
                   "--bbox=-0.01,0.06,-0.01,0.06", "--out", str(tmp_path / "m.edp")])
        assert rc == 0
        assert load_model(tmp_path / "m.edp").g == 6

    @pytest.mark.parametrize("bbox, bound", [("-inf,10,0,10", "lat_min"),
                                             ("-0.01,0.06,-0.01,nan", "lon_max")])
    def test_non_finite_bbox_exits_2(self, tmp_path, synthetic_csv, capsys, bbox, bound):
        """A non-finite bound exits 2 naming it, before any parse, where it
        used to end in "no usable trips after discretization"."""
        csv_path, _ = synthetic_csv
        rc = main(["train", "--input", str(csv_path), "--grid", "6", f"--bbox={bbox}",
                   "--out", str(tmp_path / "m.edp")])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"{bound} must be finite" in captured.err and captured.out == ""
        assert not (tmp_path / "m.edp").exists()

    @pytest.mark.parametrize("bbox, named", [("-1e308,1e308,0,10", "lat_min must be within"),
                                             ("-0.01,0.06,-200,200", "over 360")])
    def test_off_earth_bbox_exits_2(self, tmp_path, synthetic_csv, capsys, bbox, named):
        """A bound that is no place on Earth exits 2 naming it, before any
        parse, where the 1e308 box used to end in "no usable trips after
        discretization"."""
        csv_path, _ = synthetic_csv
        rc = main(["train", "--input", str(csv_path), "--grid", "6", f"--bbox={bbox}",
                   "--out", str(tmp_path / "m.edp")])
        assert rc == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""
        assert not (tmp_path / "m.edp").exists()

    def test_inferred_box_stops_at_the_poles(self, tmp_path):
        """Points at a pole, or 360 degrees of longitude apart, get a grid:
        the inferred box's padding stops at +-90 and at a 360-degree span."""
        csv_path = tmp_path / "poles.csv"
        csv_path.write_text("trip_id,seq,timestamp,lat,lon\n"
                            "a,0,0,0.0,-180.0\na,1,60,45.0,-180.0\na,2,120,90.0,-180.0\n"
                            "b,0,0,-90.0,180.0\nb,1,60,-45.0,180.0\nb,2,120,0.0,180.0\n")
        box = cli._bbox_of_points(ingest.parse_trajectories(csv_path))
        assert box == (-90.0, 90.0, -180.0, 180.0)
        assert main(["train", "--input", str(csv_path), "--grid", "4",
                     "--out", str(tmp_path / "m.edp")]) == 0

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

    def test_one_point_trip_counted_degenerate(self, tmp_path, synthetic_csv, capsys):
        """A one-point trip reaches training, which counts it as degenerate
        and trains on the other trips alone."""
        csv_path, _ = synthetic_csv
        expected = train_model(tmp_path, synthetic_csv).read_bytes()
        assert "trips=300 degenerate=0 " in capsys.readouterr().out
        lat, lon = unit_grid(6).cell_center(14)
        lone = tmp_path / "lone.csv"
        lone.write_text(csv_path.read_text() + f"lone,0,0,{lat:.8f},{lon:.8f}\n")
        assert main(["train", "--input", str(lone), "--grid", "6", "--unit-grid",
                     "--max-detour", "4", "--out", str(tmp_path / "lone.edp")]) == 0
        assert "trips=300 degenerate=1 " in capsys.readouterr().out
        assert (tmp_path / "lone.edp").read_bytes() == expected

    def test_reads_no_trip_length(self, tmp_path, synthetic_csv, monkeypatch):
        """Training uses only the cell paths: with every read of a trip
        length failing it still writes the same model and sidecar bytes."""
        model_path = train_model(tmp_path, synthetic_csv)
        files = model_path, tmp_path / "m.edp.sstp"
        expected = [f.read_bytes() for f in files]
        for f in files:
            f.unlink()

        def no_length(*_):
            raise AssertionError("edp train read a trip length")
        monkeypatch.setattr(ingest.CellPath, "trip_km", property(no_length))
        train_model(tmp_path, synthetic_csv)
        assert [f.read_bytes() for f in files] == expected

    def test_non_utf8_input_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"trip_id,seq,timestamp,lat,lon\n\xff,0,100,0.1,0.1\n")
        rc = main(["train", "--input", str(bad), "--grid", "4", "--unit-grid",
                   "--out", str(tmp_path / "m.edp")])
        assert rc == 3


class TestSettings:
    """Each of the six settings comes from the command line, else the
    --config file, else its default."""

    # key: (flag, default, a config file value, a command-line value)
    CASES = {
        "grid": ("--grid", None, 5, 7),
        "max_detour": ("--max-detour", 8, 2, 4),
        "alpha": ("--alpha", 0.004, 0.01, 0.2),
        "knn": ("--knn", 10, 3, 5),
        "bin_width_km": ("--bin-width-km", 1.0, 0.5, 2.0),
        "seed": ("--seed", 0, 3, 9),
    }

    @pytest.fixture
    def settings_of(self, tmp_path, monkeypatch):
        """Run `edp eval`, which takes all six settings, and return the
        arguments its command function receives."""
        seen = {}

        def record(args):
            seen.update(vars(args))
            return 0
        monkeypatch.setattr(cli, "cmd_eval", record)

        def run(*argv, config=None):
            seen.clear()
            if config is not None:
                (tmp_path / "edp.cfg").write_text(config)
                argv = (*argv, "--config", str(tmp_path / "edp.cfg"))
            assert main(["eval", "--input", "trips.csv", *argv]) == 0
            return seen
        return run

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_command_line_beats_config_beats_default(self, settings_of, key):
        flag, default, from_config, from_cli = self.CASES[key]
        assert settings_of()[key] == default
        got = settings_of(config=f"{key}={from_config}\n")[key]
        assert got == from_config and type(got) is type(from_config)
        got = settings_of(flag, str(from_cli), config=f"{key}={from_config}\n")[key]
        assert got == from_cli and type(got) is type(from_cli)

    @pytest.mark.parametrize("argv", [
        ["train", "--input", "t.csv", "--out", "m.edp"],
        ["update", "--model", "m.edp", "--changes", "c.csv"],
        ["predict", "--model", "m.edp", "--history", "t.csv", "--queries", "q.csv"],
        ["census"],
    ], ids=lambda argv: argv[0])
    def test_seed_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_readme_command_lines_parse():
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    commands = set()
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "edp", line
        try:
            commands.add(cli.build_parser().parse_args(argv[1:]).command)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
    assert commands == {"train", "update", "predict", "eval", "bench", "census", "gen"}


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

    def test_failed_write_recovers_on_rerun(self, tmp_path, synthetic_csv, monkeypatch):
        model_path = train_model(tmp_path, synthetic_csv)
        changes = self.write_changes(tmp_path, cell=8)
        argv = ["update", "--model", str(model_path), "--changes", str(changes)]
        clean = tmp_path / "clean.edp"
        assert main([*argv, "--out", str(clean)]) == 0
        before = model_path.read_bytes()

        def disk_full(*_):
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "save_model", disk_full)
        assert main(argv) == 3
        monkeypatch.undo()
        assert model_path.read_bytes() == before
        assert main(argv) == 0
        assert model_path.read_bytes() == clean.read_bytes()

    def test_row_inside_tolerance_survives_two_updates(self, tmp_path, synthetic_csv):
        """A change row 2e-10 short of 1 passes the change-set check, and
        the second update refreshes from the model that holds it."""
        model_path = train_model(tmp_path, synthetic_csv)
        row = zip(neighbors(8, 6), (0.25 - 2e-10, 0.25, 0.25, 0.25))
        lines = [f"8,{b},{p!r}" for b, p in row]
        for epoch in (1, 2):
            changes = tmp_path / f"short{epoch}.csv"
            changes.write_text("epoch,cell_id,neighbor_cell_id,probability\n"
                               + "".join(f"{epoch},{line}\n" for line in lines))
            assert main(["update", "--model", str(model_path), "--changes", str(changes)]) == 0
        assert load_model(model_path).epoch == 2

    def test_layer_count_contradicting_header_exits_3(self, tmp_path, synthetic_csv, capsys):
        model_path = train_model(tmp_path, synthetic_csv)
        blob = bytearray(model_path.read_bytes())
        struct.pack_into("<I", blob, 12, 8)   # max_detour 8 over the 3 layers of 4
        model_path.write_bytes(oracles.recrc(blob))
        changes = self.write_changes(tmp_path, cell=8)
        capsys.readouterr()
        assert main(["update", "--model", str(model_path), "--changes", str(changes)]) == 3
        assert "max_detour=8" in capsys.readouterr().err

    def test_bad_model_file(self, tmp_path):
        bad = tmp_path / "bad.edp"
        bad.write_bytes(b"JUNKJUNKJUNK" * 10)
        changes = self.write_changes(tmp_path, cell=8)
        assert main(["update", "--model", str(bad), "--changes", str(changes)]) == 3

    def test_single_step_rows_not_probabilities_exit_3(self, tmp_path, capsys):
        """A model whose one-step entries are not probability rows, under a
        valid checksum, is refused before the change set is read or
        anything is written."""
        model = train_initial(random_sstp(5, 0), ({}, {}), 2)
        model.layers[0, 0, 1] = -0.5
        model.layers[0, 0, 5] = 1.5     # row 0 still sums to 1
        model_path = tmp_path / "bad.edp"
        save_model(model, model_path)
        before = model_path.read_bytes()
        changes = self.write_changes(tmp_path, cell=12, g=5)
        capsys.readouterr()
        argv = ["update", "--model", str(model_path), "--changes", str(changes)]
        assert main([*argv, "--out", str(tmp_path / "out.edp")]) == 3
        assert main(argv) == 3
        assert "single-step" in capsys.readouterr().err
        assert model_path.read_bytes() == before
        assert not (tmp_path / "out.edp").exists()

    # `edp update` refreshes from the single-step rows the model stores, never
    # from the `<model>.sstp` sidecar that `edp train` wrote beside it

    def train_world(self, tmp_path, name, seed):
        world = tmp_path / f"{name}-world"
        assert main(["gen", "--grid", "8", "--trips", "400", "--seed", str(seed),
                     "--detour-rate", "0.2", "--out", str(world)]) == 0
        model_path = tmp_path / f"{name}.edp"
        assert main(["train", "--input", f"{world}.csv", "--grid", "8", "--unit-grid",
                     "--max-detour", "4", "--out", str(model_path)]) == 0
        return model_path

    @pytest.mark.parametrize("sidecar", ["missing", "legacy", "corrupt", "other-world"])
    def test_output_does_not_depend_on_sidecar(self, tmp_path, sidecar):
        model_path = self.train_world(tmp_path, "m", seed=3)
        changes = self.write_changes(tmp_path, cell=27, g=8)
        argv = ["update", "--model", str(model_path), "--changes", str(changes), "--out"]
        assert main([*argv, str(tmp_path / "reference.edp")]) == 0
        # the refresh of the training matrix, through the library
        expected, _ = apply_update(load_model(model_path), load_sstp(f"{model_path}.sstp"),
                                   load_changeset(changes, 8))
        save_model(expected, tmp_path / "expected.edp")
        assert (tmp_path / "reference.edp").read_bytes() == \
            (tmp_path / "expected.edp").read_bytes()

        path = Path(f"{model_path}.sstp")
        if sidecar == "missing":
            path.unlink()
        elif sidecar == "legacy":
            sstp = load_sstp(path)
            n = sstp.n_cells
            model_module._write_checksummed(
                path, model_module.SSTP_MAGIC, model_module._SSTP_HEADER, (sstp.g, 1),
                (np.ascontiguousarray(sstp.probs, dtype="<f8"), sstp.smoothed.astype("<u1"),
                 np.arange(n, dtype="<u8"), np.arange(4 * n, dtype="<u8").reshape(n, 4)))
        elif sidecar == "corrupt":
            path.write_bytes(b"JUNKJUNKJUNK" * 10)
        else:
            # another world's matrix on the same grid once exited 0 and
            # wrote a model that mixed the two worlds
            other = self.train_world(tmp_path, "other", seed=11)
            path.write_bytes(Path(f"{other}.sstp").read_bytes())
            assert not np.array_equal(load_sstp(path).probs,
                                      load_model(model_path).single_step().probs)
        before = path.read_bytes() if path.exists() else None
        assert main([*argv, str(tmp_path / "out.edp")]) == 0
        assert (tmp_path / "out.edp").read_bytes() == (tmp_path / "reference.edp").read_bytes()
        assert (path.read_bytes() if path.exists() else None) == before
        assert not (tmp_path / "out.edp.sstp").exists()

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_writes_the_bytes_of_the_snapshot_refresh(self, tmp_path, mode):
        """`edp update` refreshes the model it loaded in place; the file it
        writes is the one save_model writes for apply_update's new model."""
        model_path = self.train_world(tmp_path, "m", seed=5)
        changes = tmp_path / "c.csv"
        # a corner cell and two inner ones, each with moves of probability 0
        rows = [f"1,{cell},{b},{p!r}" for cell in (0, 27, 28)
                for b, p in zip(neighbors(cell, 8), (0.7, 0.3, 0.0, 0.0))]
        changes.write_text("epoch,cell_id,neighbor_cell_id,probability\n"
                           + "".join(f"{row}\n" for row in rows))
        model = load_model(model_path)
        expected, _ = apply_update(model, model.single_step(), load_changeset(changes, 8),
                                   mode=mode)
        save_model(expected, tmp_path / "expected.edp")
        assert main(["update", "--model", str(model_path), "--changes", str(changes),
                     "--mode", mode]) == 0
        assert model_path.read_bytes() == (tmp_path / "expected.edp").read_bytes()

    def test_in_place_update_leaves_sidecar_as_trained(self, tmp_path):
        model_path = self.train_world(tmp_path, "m", seed=3)
        trained = Path(f"{model_path}.sstp").read_bytes()
        changes = self.write_changes(tmp_path, cell=27, g=8)
        assert main(["update", "--model", str(model_path), "--changes", str(changes)]) == 0
        assert load_model(model_path).epoch == 1
        assert Path(f"{model_path}.sstp").read_bytes() == trained

    def test_sstp_option_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["update", "--model", str(tmp_path / "m.edp"), "--changes",
                  str(tmp_path / "c.csv"), "--sstp", str(tmp_path / "m.edp.sstp")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("rows,rc,message", [
        (["1,0,1,0.9", "1,0,1,0.5", "1,0,6,0.5"], 3, "c.csv: cell 0 lists neighbor 1 twice"),
        ([f"{2**64},0,1,0.5", f"{2**64},0,6,0.5"], 2, f"epoch {2**64} lies outside 0..2**64-1"),
        (["1,0,1,0.5", "1,0,0_6,0.5"], 3, "malformed row ['1', '0', '0_6', '0.5']"),
    ], ids=["repeated-pair", "epoch-past-u64", "loose-integer"])
    def test_bad_change_set_exits_before_the_refresh(self, tmp_path, synthetic_csv, capsys,
                                                      rows, rc, message):
        model_path = train_model(tmp_path, synthetic_csv)
        before = model_path.read_bytes()
        changes = tmp_path / "c.csv"
        changes.write_text("epoch,cell_id,neighbor_cell_id,probability\n"
                           + "".join(f"{row}\n" for row in rows))
        capsys.readouterr()
        argv = ["update", "--model", str(model_path), "--changes", str(changes)]
        assert main([*argv, "--out", str(tmp_path / "out.edp")]) == rc
        assert main(argv) == rc
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count(message) == 2
        assert model_path.read_bytes() == before
        assert not (tmp_path / "out.edp").exists()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(strategies.change_set_csv(), st.sampled_from(["in-place", "new-out", "old-out"]))
    @example(f"epoch,cell_id,neighbor_cell_id,probability\r\n{2**64},0,1,0.5\r\n"
             f"{2**64},0,4,0.5\r\n", "in-place")
    def test_any_change_set_exits_0_2_or_3_and_fails_atomically(self, tmp_path_factory,
                                                                 text, target):
        """Every drawn change set ends in exit 0, 2 or 3, never in an
        uncaught exception, and a failed run leaves the model and the
        --out path as they were."""
        d = tmp_path_factory.mktemp("update")
        model_path, out_path, changes = d / "m.edp", d / "out.edp", d / "c.csv"
        save_model(train_initial(random_sstp(4, 0), ({0: {5: 2}}, {0: 2}), 2), model_path)
        before = model_path.read_bytes()
        changes.write_text(text, encoding="utf-8", newline="")
        argv = ["update", "--model", str(model_path), "--changes", str(changes)]
        if target != "in-place":
            argv += ["--out", str(out_path)]
        if target == "old-out":
            out_path.write_bytes(b"old")
        rc = main(argv)
        assert rc in (0, 2, 3)
        if rc:
            assert model_path.read_bytes() == before
            assert (out_path.read_bytes() if out_path.exists() else None) == \
                (b"old" if target == "old-out" else None)
        else:
            written = model_path if target == "in-place" else out_path
            assert load_model(written).epoch == load_changeset(changes, 4).epoch


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
        assert type(rows[0]["future_no_match"]) is bool
        assert type(rows[0]["future_steps"]) is int and rows[0]["future_steps"] >= 0

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
        res = predict.answer(
            load_model(model_path), q, ingest.build_histogram(history),
            predict.HistoryIndex.build(history), grid, 0.004, 10)
        assert rows[0] == cli._result_json("still", res)

    def test_one_point_query_answered(self, tmp_path, synthetic_csv):
        """A query trip of one point gets its line: the one-cell query of
        its cell, having traveled 0 km."""
        csv_path, _ = synthetic_csv
        model_path = train_model(tmp_path, synthetic_csv)
        grid = unit_grid(6)
        lat, lon = grid.cell_center(14)
        queries = tmp_path / "q.csv"
        src = csv_path.read_text().strip().splitlines()
        queries.write_text("\n".join([
            src[0], f"lone,0,0,{lat:.8f},{lon:.8f}",
            *[l for l in src[1:] if l.startswith("syn000000,")][:3]]) + "\n")
        out_file = tmp_path / "res.jsonl"
        assert main(["predict", "--model", str(model_path), "--history", str(csv_path),
                     "--queries", str(queries), "--grid", "6", "--unit-grid",
                     "--out", str(out_file)]) == 0
        rows = out_file.read_text().splitlines()
        assert [json.loads(r)["trip_id"] for r in rows] == ["lone", "syn000000"]

        history = [ingest.discretize(t, grid)
                   for t in ingest.parse_trajectories(csv_path, grid).trajectories]
        res = predict.answer(
            load_model(model_path), predict.Query([14], 0.0), ingest.build_histogram(history),
            predict.HistoryIndex.build(history), grid, 0.004, 10)
        assert rows[0] == cli._result_json("lone", res)

    def test_cold_start_lines_report_the_walk(self, tmp_path):
        """A cold-start line reports the cell, steps and no-match flag of
        the history walk whose cell its fallback was ranked from. The walk
        reads only the history, so a model that knows every start reports
        the same walk for every query."""
        world, few = tmp_path / "world", tmp_path / "few"
        assert main(["gen", "--grid", "12", "--trips", "300", "--seed", "3",
                     "--detour-rate", "0.2", "--out", str(world)]) == 0
        assert main(["gen", "--grid", "12", "--trips", "40", "--seed", "5",
                     "--out", str(few)]) == 0
        csv_path = world.with_suffix(".csv")
        rows = {}
        for name in ("few", "world"):
            model_path = tmp_path / f"{name}.edp"
            assert main(["train", "--input", str(tmp_path / f"{name}.csv"), "--grid", "12",
                         "--unit-grid", "--max-detour", "4", "--out", str(model_path)]) == 0
            out = tmp_path / f"{name}.jsonl"
            assert main(["predict", "--model", str(model_path), "--history", str(csv_path),
                         "--queries", str(csv_path), "--unit-grid", "--out", str(out)]) == 0
            rows[name] = [json.loads(l) for l in out.read_text().splitlines()]

        def walk(r):
            return r["trip_id"], r["future_location"], r["future_steps"], r["future_no_match"]
        assert list(map(walk, rows["few"])) == list(map(walk, rows["world"]))
        cold = [r for r in rows["few"] if r["cold_start"]]
        assert len(cold) > len(rows["few"]) / 2
        assert any(r["future_steps"] > 0 for r in cold)
        grid = unit_grid(12)
        starts = {t.trip_id: ingest.cell_path(t, grid).cells[0]
                  for t in ingest.parse_trajectories(csv_path, grid).trajectories}
        model = load_model(tmp_path / "few.edp")
        for r in cold:
            ranked, fallback = oracles.score_destinations(model, starts[r["trip_id"]],
                                                          r["future_location"])
            assert ranked is None
            assert [(c["cell"], c["p"]) for c in r["ranked"]] == fallback[:3]

    def test_skipped_query_points_noted_on_stderr(self, tmp_path, synthetic_csv, capsys):
        """A query trip with no point inside the grid gets no line; stderr
        says how many points and malformed rows the queries file lost."""
        csv_path, _ = synthetic_csv
        model_path = train_model(tmp_path, synthetic_csv)
        src = csv_path.read_text().strip().splitlines()
        queries = tmp_path / "q.csv"
        queries.write_text("\n".join([
            src[0], "far,0,0,5.0,5.0", "far,1,60,5.1,5.0", "bad,x,0,0.5,0.5",
            *[l for l in src[1:] if l.startswith("syn000000,")][:4]]) + "\n")
        argv = ["predict", "--model", str(model_path), "--history", str(csv_path),
                "--queries", str(queries), "--grid", "6", "--unit-grid"]
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert [json.loads(r)["trip_id"] for r in captured.out.splitlines()] == ["syn000000"]
        assert captured.err == (f"note: {queries}: skipped 2 points outside the grid "
                                "and 1 malformed rows\n")

        queries.write_text("\n".join([src[0], *[l for l in src[1:]
                                                if l.startswith("syn000000,")][:4]]) + "\n")
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def predict_argv(self, tmp_path, synthetic_csv, *grid_flags):
        csv_path, _ = synthetic_csv
        model_path = train_model(tmp_path, synthetic_csv)
        return ["predict", "--model", str(model_path), "--history", str(csv_path),
                "--queries", str(csv_path), "--unit-grid", *grid_flags]

    @pytest.mark.parametrize("g", ["4", "8"])
    def test_grid_other_than_model_exits_2(self, tmp_path, synthetic_csv, capsys, g):
        argv = self.predict_argv(tmp_path, synthetic_csv, "--grid", g)
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "res.jsonl")]) == 2
        assert f"--grid {g}" in capsys.readouterr().err
        assert not (tmp_path / "res.jsonl").exists()

    def test_grid_defaults_to_model(self, tmp_path, synthetic_csv):
        argv = self.predict_argv(tmp_path, synthetic_csv)
        outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        assert main([*argv, "--out", str(outs[0])]) == 0
        assert main([*argv, "--grid", "6", "--out", str(outs[1])]) == 0
        assert outs[0].read_text() == outs[1].read_text() != ""

    def test_history_parse_freed_before_index_build(self, tmp_path, synthetic_csv,
                                                     monkeypatch):
        """The history's parse result is gone by the time the history
        index is built, so it is not held through the build and the
        query loop."""
        argv = self.predict_argv(tmp_path, synthetic_csv)
        parses, alive_at_build = [], []
        parse, build = ingest.parse_trajectories, predict.HistoryIndex.build

        def parse_recorded(*a, **kw):
            result = parse(*a, **kw)
            parses.append(weakref.ref(result))
            return result

        def build_checked(paths, *a, **kw):
            alive_at_build.append(parses[0]() is not None)
            return build(paths, *a, **kw)

        monkeypatch.setattr(ingest, "parse_trajectories", parse_recorded)
        monkeypatch.setattr(predict.HistoryIndex, "build", build_checked)
        assert main([*argv, "--out", str(tmp_path / "res.jsonl")]) == 0
        assert len(parses) == 2 and alive_at_build == [False]

    def test_record_outside_grid_exits_3(self, tmp_path, synthetic_csv, capsys):
        argv = self.predict_argv(tmp_path, synthetic_csv)
        model_path = tmp_path / "m.edp"
        blob = bytearray(model_path.read_bytes())
        (n_records,) = struct.unpack_from("<Q", blob, 28)
        # the first record's destination becomes cell 99 of a 36-cell grid
        struct.pack_into("<I", blob, len(blob) - 4 - 16 * n_records + 4, 99)
        model_path.write_bytes(oracles.recrc(blob))
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "res.jsonl")]) == 3
        assert "outside g=6" in capsys.readouterr().err

    def test_repeated_record_exits_3(self, tmp_path, synthetic_csv, capsys):
        csv_path, _ = synthetic_csv
        model_path = tmp_path / "m.edp"
        save_model(train_initial(random_sstp(4, 0), ({0: {3: 1, 5: 2}}, {0: 3}), 2), model_path)
        blob = bytearray(model_path.read_bytes())
        # the second record (0, 5, 2) becomes (0, 3, 2)
        struct.pack_into("<I", blob, len(blob) - 4 - 16 + 4, 3)
        model_path.write_bytes(oracles.recrc(blob))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--history", str(csv_path),
                     "--queries", str(csv_path), "--unit-grid"]) == 3
        assert "not strictly ascending" in capsys.readouterr().err

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

    @pytest.mark.parametrize("g,max_detour", [(6, 4), (11, 8)])
    def test_baseline_is_the_shortest_route_layer(self, g, max_detour):
        paths, _ = ingest.generate_synthetic(g, 200, seed=g, detour_rate=0.2, n_attractors=3)
        sstp = build_sstp(paths, g)
        counts = count_start_dest(paths)
        reused = cli._shortest_route_model(train_initial(sstp, counts, max_detour))
        assert reused.equals(train_initial(sstp, counts, 0))

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

    def test_completion_points_checked_before_parsing(self, synthetic_csv, monkeypatch,
                                                      capsys):
        csv_path, _ = synthetic_csv

        def no_parse(*_):
            raise AssertionError("edp eval parsed its input before checking --completion")
        monkeypatch.setattr(ingest, "parse_trajectories", no_parse)
        assert main(["eval", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                     "--completion", "0.3,1.5"]) == 2
        assert "completion point 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("frac", ["1.5", "1.0", "0"])
    def test_train_frac_out_of_range(self, synthetic_csv, capsys, frac):
        csv_path, _ = synthetic_csv
        rc = main(["eval", "--input", str(csv_path), "--grid", "6", "--unit-grid",
                   f"--train-frac={frac}"])
        assert rc == 2
        assert "--train-frac" in capsys.readouterr().err


class TestBench:
    def test_smoke(self, capsys):
        rc = main(["bench", "--grids", "3,4", "--max-detour", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "g,edp_ms,smm_ms,speedup,corner_ms,cluster_ms"
        assert len(lines) == 3
        assert all(float(v) > 0 for line in lines[1:] for v in line.split(",")[4:])

    def test_rejects_tiny_grid(self):
        assert main(["bench", "--grids", "1,4"]) == 2

    def test_grid_sides_checked_before_timing(self, monkeypatch, capsys):
        def no_training(*_):
            raise AssertionError("edp bench trained before checking --grids")
        monkeypatch.setattr(cli, "train_initial", no_training)
        assert main(["bench", "--grids", "6,1"]) == 2
        assert capsys.readouterr().out == ""


class TestQuerySettingsFirst:
    """Bad query settings exit 2, naming the flag, before any model is
    loaded or CSV parsed; a bad --max-detour in `edp bench` before any
    matrix is built."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("work started before the settings were checked")
        monkeypatch.setattr(cli, "load_model", refuse)
        monkeypatch.setattr(cli, "random_sstp", refuse)
        monkeypatch.setattr(ingest, "parse_trajectories", refuse)

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("flags, named", [
        (["--alpha", "2"], "--alpha"),
        (["--alpha", "0"], "--alpha"),
        (["--alpha=-0.5"], "--alpha"),
        (["--alpha", "nan"], "--alpha"),
        (["--knn", "0"], "--knn"),
        (["--top", "0"], "--top"),
        (["--bin-width-km", "inf"], "--bin-width-km"),
        (["--bin-width-km", "nan"], "--bin-width-km"),
        (["--bin-width-km", "0"], "--bin-width-km"),
        (["--bin-width-km=-1"], "--bin-width-km"),
    ])
    def test_predict_and_eval(self, capsys, command, flags, named):
        if command == "predict":
            argv = ["predict", "--model", "m.edp", "--history", "h.csv", "--queries", "q.csv"]
        else:
            argv = ["eval", "--input", "t.csv", "--grid", "6", "--unit-grid"]
        assert main([*argv, *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["0.004,2", "1,0.004", "0.004,0"])
    def test_alpha_sweep(self, capsys, sweep):
        assert main(["eval", "--input", "t.csv", "--grid", "6", "--unit-grid",
                     "--alpha-sweep", sweep]) == 2
        assert "--alpha-sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("detour", ["3", "-2"])
    def test_bench_max_detour(self, capsys, detour):
        assert main(["bench", "--grids", "3", f"--max-detour={detour}"]) == 2
        assert "--max-detour" in capsys.readouterr().err

    def test_eval_max_detour(self, capsys):
        assert main(["eval", "--input", "t.csv", "--grid", "6", "--unit-grid",
                     "--max-detour", "3"]) == 2
        assert "--max-detour" in capsys.readouterr().err


class TestFailedRunKeepsOut:
    """A command that fails leaves an existing --out file as it was."""

    OLD = b"an earlier run's output\n"

    @pytest.mark.parametrize("argv", [
        ["predict", "--unit-grid", "--alpha", "2"],
        ["eval", "--unit-grid", "--completion", "0.3,1.5"],
        ["eval", "--unit-grid", "--completion", "0.5", "--alpha-sweep", "0.004,2"],
        ["bench", "--grids", "6,1"],
        ["bench", "--grids", "3", "--max-detour", "3"],
        ["predict", "--unit-grid", "--bin-width-km", "inf"],
        ["eval", "--unit-grid", "--bin-width-km", "nan"],
    ], ids=["predict-alpha", "eval-completion", "eval-alpha-sweep", "bench-grids",
            "bench-detour", "predict-bin-width", "eval-bin-width"])
    def test_out_file_unchanged(self, tmp_path, synthetic_csv, argv):
        csv_path, _ = synthetic_csv
        if argv[0] == "predict":
            model_path = train_model(tmp_path, synthetic_csv)
            argv = [*argv, "--model", str(model_path), "--history", str(csv_path),
                    "--queries", str(csv_path)]
        elif argv[0] == "eval":
            argv = [*argv, "--input", str(csv_path), "--grid", "6", "--max-detour", "2"]
        out = tmp_path / "out.txt"
        out.write_bytes(self.OLD)
        assert main([*argv, "--out", str(out)]) == 2
        assert out.read_bytes() == self.OLD
        assert not (tmp_path / "out.txt.tmp").exists()


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

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one_rejected(self, capsys, steps):
        assert main(["census", "--grid", "4", f"--steps={steps}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--steps" in captured.err

    def test_steps_default_to_twice_the_grid(self, capsys):
        assert main(["census", "--grid", "4"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 8
