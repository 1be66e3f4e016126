import errno
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edp import model as model_module
from edp.errors import CorruptModelError, FormatError
from edp.grid import DIRECTIONS, check_row, neighbors
from edp.ingest import CellPath
from edp.model import (SSTPMatrix, TransitionModel, build_sstp, count_start_dest, l1_matrix,
                       load_model, load_sstp, random_sstp, save_model, save_sstp,
                       train_initial)


def path(cells):
    return CellPath("t", list(cells), float(len(cells) - 1))


class TestBuildSstp:
    def test_single_path_counts(self):
        sstp = build_sstp([path([0, 1, 2])], 10)
        assert oracles.sstp_prob(sstp, 0, 1) == 1.0
        assert oracles.sstp_prob(sstp, 1, 2) == 1.0
        assert not sstp.smoothed[0] and not sstp.smoothed[1]
        assert sstp.smoothed[2]  # never observed leaving
        assert sstp.smoothed[3:].all()

    def test_two_way_split(self):
        sstp = build_sstp([path([0, 1]), path([0, 10])], 10)
        assert oracles.sstp_prob(sstp, 0, 1) == 0.5
        assert oracles.sstp_prob(sstp, 0, 10) == 0.5

    def test_rows_stochastic(self):
        sstp = build_sstp([path([0, 1, 2, 12, 11])], 10)
        sstp.validate()

    def test_non_adjacent_transition_rejected(self):
        with pytest.raises(ValueError):
            build_sstp([path([0, 5])], 10)
        # a row-wrapping step is one apart in id but not adjacent
        with pytest.raises(ValueError, match="9 -> 10 in trip b"):
            build_sstp([path([0, 1]), CellPath("b", [8, 9, 10], 2.0)], 10)

    def test_cell_outside_grid_rejected(self):
        with pytest.raises(ValueError, match="cell id 100 out of range"):
            build_sstp([path([0, 1]), path([99, 100])], 10)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.lists(st.tuples(
        st.integers(0, 35), st.lists(st.sampled_from(DIRECTIONS), max_size=12)), min_size=1,
        max_size=8))
    def test_equals_loop_oracle(self, g, walks):
        paths = []
        for start, steps in walks:
            cells = [start % (g * g)]
            for dr, dc in steps:
                r, c = divmod(cells[-1], g)
                if 0 <= r + dr < g and 0 <= c + dc < g:
                    cells.append((r + dr) * g + c + dc)
            paths.append(path(cells))
        sstp = build_sstp(paths, g)
        probs, smoothed = oracles.loop_sstp(paths, g)
        assert np.array_equal(sstp.probs, probs)
        assert np.array_equal(sstp.smoothed, smoothed)
        assert sstp.smoothed.dtype == bool

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_sstp([], 10)

    def test_replace_row(self):
        sstp = build_sstp([path([0, 1, 2])], 4)
        sstp.replace_row(5, {1: 0.25, 9: 0.25, 4: 0.25, 6: 0.25})
        assert oracles.sstp_prob(sstp, 5, 9) == 0.25
        with pytest.raises(ValueError):
            sstp.replace_row(5, {1: 0.6, 9: 0.6, 4: -0.1, 6: -0.1})
        with pytest.raises(ValueError):
            sstp.replace_row(5, {1: 1.0})
        with pytest.raises(ValueError):
            sstp.replace_row(5, {1: math.nan, 9: 0.5, 4: 0.25, 6: 0.25})
        assert oracles.sstp_prob(sstp, 5, 9) == 0.25


class TestCountStartDest:
    def test_counts(self):
        counts, totals = count_start_dest([path([0, 1, 2]), path([0, 1]), path([3, 2])])
        assert counts[0] == {2: 1, 1: 1}
        assert totals[0] == 2
        assert counts[3] == {2: 1}


class TestComputeEtp:
    def test_one_step_is_sstp(self):
        sstp = random_sstp(4, 0)
        etp = oracles.compute_etp(sstp, 5)
        for nb in (1, 9, 4, 6):
            assert etp[nb] == pytest.approx(oracles.sstp_prob(sstp, 5, nb), abs=1e-15)

    def test_two_step_expansion_uniform(self):
        # g=3 uniform rows: corner 0 splits 1/2 to {1, 3}, each of which
        # sends 1/3 into the center, so reaching 4 efficiently has mass 1/3
        uni = build_sstp([path([0, 1])], 3)
        uni.replace_row(0, {1: 0.5, 3: 0.5})
        uni.replace_row(1, {0: 1 / 3, 4: 1 / 3, 2: 1 / 3})
        etp = oracles.compute_etp(uni, 0)
        prob = oracles.sstp_prob
        expected = prob(uni, 0, 1) * prob(uni, 1, 4) + prob(uni, 0, 3) * prob(uni, 3, 4)
        assert etp[4] == pytest.approx(expected, abs=1e-15)
        assert etp[4] == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_matrix_power_at_l1(self):
        g, seed = 4, 7
        sstp = random_sstp(g, seed)
        powers = oracles.dense_powers(sstp.to_dense(), 2 * (g - 1))
        L = oracles.l1_table(g)
        for origin in range(g * g):
            etp = oracles.compute_etp(sstp, origin)
            for j in range(g * g):
                assert etp[j] == pytest.approx(powers[L[origin, j]][origin, j], abs=1e-12)

    def test_zero_along_blocked_paths(self):
        # all mass from 0 goes right; straight down is unreachable efficiently
        sstp = random_sstp(3, 2)
        sstp.replace_row(0, {1: 1.0, 3: 0.0})
        etp = oracles.compute_etp(sstp, 0)
        assert etp[3] == 0.0
        assert etp[6] == 0.0


def tpd_layers(sstp, origin, max_detour):
    """Stored detour layers of one origin, shape (max_detour/2 + 1, n)."""
    return train_initial(sstp, None, max_detour).layers[:, origin]


class TestComputeTpdLayers:
    def test_zero_detour_equals_etp(self):
        sstp = random_sstp(5, 3)
        for origin in (0, 7, 24):
            layers = tpd_layers(sstp, origin, 0)
            etp = oracles.compute_etp(sstp, origin)
            np.testing.assert_allclose(layers[0], etp, atol=1e-12)

    def test_layers_equal_matrix_powers(self):
        g, seed, detour = 4, 7, 4
        sstp = random_sstp(g, seed)
        L = oracles.l1_table(g)
        powers = oracles.dense_powers(sstp.to_dense(), 2 * (g - 1) + detour)
        for origin in range(g * g):
            layers = tpd_layers(sstp, origin, detour)
            for k in range(detour // 2 + 1):
                for j in range(g * g):
                    t = L[origin, j] + 2 * k
                    assert layers[k, j] == pytest.approx(powers[t][origin, j], abs=1e-12)

    def test_odd_detour_rejected(self):
        with pytest.raises(ValueError):
            train_initial(random_sstp(4, 0), None, 3)

    def test_wavefront_mass_conserved(self):
        # for t <= max_detour every reachable cell is inside a stored window,
        # so the per-step mass of a fully smoothed matrix sums to one
        g, detour = 5, 4
        sstp = random_sstp(g, 9)
        L = oracles.l1_table(g)
        origin = 12
        layers = tpd_layers(sstp, origin, detour)
        for t in range(0, detour + 1):
            mass = 0.0
            for j in range(g * g):
                d = t - L[origin, j]
                if d >= 0 and d % 2 == 0:
                    mass += layers[d // 2, j]
            assert mass == pytest.approx(1.0, abs=1e-12)


class TestTrainInitial:
    def test_totals_match_power_oracle(self):
        g, seed, detour = 4, 7, 4
        sstp = random_sstp(g, seed)
        model = train_initial(sstp, None, detour)
        expected = oracles.power_totals(sstp.to_dense(), g, detour)
        assert np.abs(model.totals - expected).max() <= 1e-12

    def test_two_by_two_zero_detour(self):
        sstp = random_sstp(2, 5)
        model = train_initial(sstp, None, 0)
        prob = oracles.sstp_prob
        expected = prob(sstp, 0, 1) * prob(sstp, 1, 3) + prob(sstp, 0, 2) * prob(sstp, 2, 3)
        assert model.totals[0, 3] == pytest.approx(expected, abs=1e-15)

    def test_default_detour_budget(self):
        sstp = random_sstp(3, 1)
        model = train_initial(sstp)
        assert model.max_detour == 8
        assert model.n_layers == 5

    def test_diagonal_layer_zero_is_one(self):
        model = train_initial(random_sstp(4, 2), None, 2)
        assert np.array_equal(np.diag(model.layers[0]), np.ones(16))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 13), st.integers(0, 5), st.integers(0, 2**16))
    def test_equals_wavefront_oracle(self, g, half_detour, seed):
        sstp = random_sstp(g, seed)
        model = train_initial(sstp, None, 2 * half_detour)
        layers = oracles.wavefront_layers(sstp, 2 * half_detour)
        assert np.array_equal(model.layers, layers)
        assert np.array_equal(model.totals, layers.sum(axis=0))

    @pytest.mark.parametrize("g", [20, 35])
    def test_equals_wavefront_oracle_on_large_grids(self, g):
        sstp = random_sstp(g, 0)
        layers = oracles.wavefront_layers(sstp, 8)
        assert np.array_equal(train_initial(sstp, None, 8).layers, layers)

    def test_odd_detour_rejected(self):
        with pytest.raises(ValueError):
            train_initial(random_sstp(3, 0), None, 5)

    def test_recursion_refuses_unaligned_layers(self):
        # a flat view at a 4-byte offset, as a file section read in place
        # would be: every element would take numpy's slow unaligned path
        sstp = random_sstp(3, 0)
        layers = np.frombuffer(bytearray(2 * 81 * 8 + 4), np.float64, 2 * 81, 4)
        layers = layers.reshape(2, 9, 9)
        assert not layers.flags.aligned
        with pytest.raises(ValueError, match="aligned to 8 bytes"):
            model_module._ring_recursion(layers, sstp)

    def test_structural_support_matches_parity(self):
        # strictly positive rows: a stored layer entry is positive exactly
        # when its total length is parity-admissible, which it always is
        model = train_initial(random_sstp(4, 4), None, 4)
        assert (model.layers > 0).all()


class TestPersistence:
    def _model(self, seed=0, g=4, detour=4, epoch=0):
        sstp = random_sstp(g, seed)
        counts = ({0: {5: 2, 3: 1}, 7: {1: 4}}, {0: 3, 7: 4})
        model = train_initial(sstp, counts, detour)
        model.epoch = epoch
        return model

    def test_round_trip(self, tmp_path):
        model = self._model(epoch=3)
        f = tmp_path / "m.edp"
        save_model(model, f)
        again = load_model(f)
        assert model.equals(again)
        for array in (again.layers, again.totals):
            assert array.flags.aligned and array.flags.writeable and array.flags.c_contiguous

    def test_wrong_magic(self, tmp_path):
        f = tmp_path / "m.edp"
        f.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(f)

    def test_truncated(self, tmp_path):
        model = self._model()
        f = tmp_path / "m.edp"
        save_model(model, f)
        blob = f.read_bytes()
        f.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CorruptModelError):
            load_model(f)

    def test_bit_flip_detected(self, tmp_path):
        model = self._model()
        f = tmp_path / "m.edp"
        save_model(model, f)
        blob = bytearray(f.read_bytes())
        blob[100] ^= 0xFF
        f.write_bytes(bytes(blob))
        with pytest.raises(CorruptModelError):
            load_model(f)

    def test_sstp_round_trip(self, tmp_path):
        sstp = build_sstp([path([0, 1, 2, 6])], 4)
        f = tmp_path / "m.sstp"
        save_sstp(sstp, f)
        assert f.read_bytes()[12] == 0   # has-counts flag
        again = load_sstp(f)
        assert np.array_equal(sstp.probs, again.probs)
        assert np.array_equal(sstp.smoothed, again.smoothed)
        assert again.probs.flags.aligned

    def test_sstp_wrong_magic(self, tmp_path):
        f = tmp_path / "x.sstp"
        f.write_bytes(b"EDP1" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_sstp(f)

    # g=4, max_detour=4: 3 layers and 3 records of (start u32, dest u32, count u64)
    @pytest.mark.parametrize("offset,value", [
        (12, 8),             # max_detour 8 over the 3 layers of max_detour 4
        (12, 5),             # odd max_detour
        (-4 - 48, 16),       # first record's start is cell g*g
        (-4 - 48 + 4, 99),   # first record's destination is cell 99
        (-4 - 32 + 4, 3),    # records (0, 3, 1), (0, 3, 2): a repeated pair
        (-4 - 16, 0),        # records (0, 5, 2), (0, 1, 4): out of order
    ])
    def test_checksummed_header_contradicting_body(self, tmp_path, offset, value):
        f = tmp_path / "m.edp"
        save_model(self._model(), f)
        blob = bytearray(f.read_bytes())
        struct.pack_into("<I", blob, offset % len(blob), value)
        f.write_bytes(oracles.recrc(blob))
        with pytest.raises(CorruptModelError):
            load_model(f)

    @pytest.mark.parametrize("g", [0, 1])
    def test_grid_side_below_2_is_corrupt(self, tmp_path, g):
        """No writer makes a model or sidecar for a grid under 2 x 2; one
        under a valid checksum is refused on load, as the CLI's grid is."""
        n = g * g
        model = TransitionModel(g=g, max_detour=0, layers=np.ones((1, n, n)),
                                totals=np.ones((n, n)), start_counts={}, start_totals={})
        save_model(model, tmp_path / "m.edp")
        save_sstp(SSTPMatrix(g=g, probs=np.zeros((g, g, 4))), tmp_path / "m.sstp")
        with pytest.raises(CorruptModelError, match=f"grid side must be >= 2, got {g}"):
            load_model(tmp_path / "m.edp")
        with pytest.raises(CorruptModelError, match=f"grid side must be >= 2, got {g}"):
            load_sstp(tmp_path / "m.sstp")

    def test_sstp_has_counts_flag_other_than_0(self, tmp_path):
        f = tmp_path / "m.sstp"
        save_sstp(build_sstp([path([0, 1, 2, 6])], 4), f)
        blob = bytearray(f.read_bytes())
        # flag 1 marked a sidecar with visit and pair counts after the rows
        for flag in (1, 2):
            blob[12] = flag
            f.write_bytes(oracles.recrc(blob))
            with pytest.raises(CorruptModelError, match=f"has-counts flag is {flag}"):
                load_sstp(f)

    @pytest.mark.parametrize("row", [(np.nan, 0.5, 0.25, 0.25), (1.5, -0.5, 0.0, 0.0)],
                             ids=["nan", "negative"])
    def test_sstp_with_invalid_row_is_corrupt(self, tmp_path, row):
        sstp = random_sstp(4, 0)
        sstp.probs[1, 2] = row
        f = tmp_path / "m.sstp"
        save_sstp(sstp, f)
        with pytest.raises(CorruptModelError, match="rows \\[6\\]"):
            load_sstp(f)

    def test_peak_memory_against_file_size(self, tmp_path):
        model = self._model(g=12, detour=8)
        f = tmp_path / "m.edp"
        tracemalloc.start()
        try:
            save_model(model, f)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            again = load_model(f)
            load_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = f.stat().st_size
        assert model.equals(again)
        assert save_peak <= 0.1 * size, save_peak / size
        assert load_peak <= 1.1 * size, load_peak / size


def random_model(g, half_detour, epoch, seed, n_records):
    rng = np.random.default_rng(seed)
    n = g * g
    layers = rng.random((half_detour + 1, n, n))
    start_counts: dict[int, dict[int, int]] = {}
    for s, d, c in zip(rng.integers(n, size=n_records), rng.integers(n, size=n_records),
                       rng.integers(1, 2**40, size=n_records)):
        start_counts.setdefault(int(s), {})[int(d)] = int(c)
    return TransitionModel(g=g, max_detour=2 * half_detour, layers=layers,
                           totals=layers.sum(axis=0), start_counts=start_counts,
                           start_totals={s: sum(d.values()) for s, d in start_counts.items()},
                           epoch=epoch)


def random_sidecar(g, seed):
    rng = np.random.default_rng(seed)
    return SSTPMatrix(g=g, probs=random_sstp(g, seed).probs, smoothed=rng.random(g * g) < 0.5)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A directory holding a small model and a sidecar."""
    d = tmp_path_factory.mktemp("saved")
    save_model(random_model(3, 1, 7, 0, 4), d / "model")
    save_sstp(random_sidecar(3, 1), d / "sstp")
    return d


LOADERS = {"model": load_model, "sstp": load_sstp}


class TestPersistenceProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5), st.integers(0, 2), st.integers(0, 2**64 - 1),
           st.integers(0, 2**16), st.integers(0, 8))
    def test_model_round_trip_and_resave(self, tmp_path_factory, g, half_detour, epoch,
                                         seed, n_records):
        d = tmp_path_factory.mktemp("model")
        model = random_model(g, half_detour, epoch, seed, n_records)
        save_model(model, d / "a")
        again = load_model(d / "a")
        assert model.equals(again)
        assert again.layers.flags.aligned and again.totals.flags.aligned
        save_model(again, d / "b")
        assert (d / "a").read_bytes() == (d / "b").read_bytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.integers(0, 2**16))
    def test_sidecar_round_trip_and_resave(self, tmp_path_factory, g, seed):
        """A sidecar loads bitwise and saves again byte for byte."""
        d = tmp_path_factory.mktemp("sstp")
        sstp = random_sidecar(g, seed)
        save_sstp(sstp, d / "a")
        again = load_sstp(d / "a")
        assert again.probs.flags.aligned
        assert again.probs.tobytes() == sstp.probs.tobytes()
        assert np.array_equal(sstp.smoothed, again.smoothed)
        save_sstp(again, d / "b")
        assert (d / "b").read_bytes() == (d / "a").read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(LOADERS)), st.data())
    def test_truncation_raises_format_error(self, saved_files, kind, data):
        blob = (saved_files / kind).read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        f = saved_files / "corrupt"
        f.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            LOADERS[kind](f)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(LOADERS)), st.data())
    def test_flipped_byte_raises_format_error(self, saved_files, kind, data):
        blob = bytearray((saved_files / kind).read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        f = saved_files / "corrupt"
        f.write_bytes(blob)
        with pytest.raises(FormatError):
            LOADERS[kind](f)


class HalfWrite(io.FileIO):
    """A file whose first write stores half its bytes, then fails."""

    def write(self, b):
        super().write(bytes(b)[:len(b) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    @pytest.mark.parametrize("save,load,old,new", [
        (save_model, load_model, train_initial(random_sstp(4, 0), None, 2),
         train_initial(random_sstp(4, 1), None, 2)),
        (save_sstp, load_sstp, random_sstp(4, 0), random_sstp(4, 1)),
    ])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, save, load, old, new):
        f = tmp_path / "target"
        save(old, f)
        before = f.read_bytes()
        monkeypatch.setattr(model_module, "open", HalfWrite, raising=False)
        with pytest.raises(OSError):
            save(new, f)
        monkeypatch.undo()
        assert f.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["target"]
        load(f)
        save(new, f)
        assert f.read_bytes() != before


class TestRandomSstp:
    def test_stochastic_and_deterministic(self):
        a = random_sstp(6, 3)
        b = random_sstp(6, 3)
        a.validate()
        assert np.array_equal(a.probs, b.probs)

    def test_validate_rejects_nan_row(self):
        sstp = random_sstp(4, 0)
        sstp.probs[1, 2] = np.nan
        with pytest.raises(ValueError, match="rows \\[6\\]"):
            sstp.validate()

    def test_validate_rejects_mass_off_grid(self):
        sstp = random_sstp(4, 0)
        sstp.probs[0, 2] = 0.25
        with pytest.raises(ValueError, match="leaves the grid"):
            sstp.validate()

    def test_validate_rejects_negative_row(self):
        sstp = random_sstp(4, 0)
        sstp.probs[1, 2] = (1.5, -0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="rows \\[6\\]"):
            sstp.validate()

    @pytest.mark.parametrize("shortfall", [2e-10, 2e-9])
    def test_validate_applies_check_rows_rule(self, shortfall):
        """A row passes validate exactly when it passes grid.check_row."""
        nbrs = neighbors(6, 4)   # an inner cell: all four, in DIRECTIONS order
        row = {b: 0.25 for b in nbrs}
        row[nbrs[-1]] -= shortfall
        sstp = random_sstp(4, 0)
        sstp.probs[1, 2] = [row[b] for b in nbrs]

        def passes(check, *args):
            try:
                check(*args)
            except ValueError:
                return False
            return True
        assert passes(check_row, 6, row, 4) == passes(sstp.validate) == (shortfall < 1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_to_dense_equals_branch_oracle(self, g, seed):
        sstp = random_sstp(g, seed)
        assert np.array_equal(sstp.to_dense(), oracles.sstp_dense(sstp))

    def test_l1_matrix(self):
        L = l1_matrix(3)
        assert L[0, 8] == 4
        assert np.array_equal(L, L.T)
