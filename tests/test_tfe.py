"""TFE grid accumulation and CSV serialization."""

import math
import tracemalloc

import numpy as np
import oracles
import pytest

from tfekit import (
    IFTrack,
    TFEAccumulator,
    TFEGrid,
    TrackCsvWriter,
    export_grid_csv,
    gen_chirp,
    gen_delta,
    if_track,
    load_grid_csv,
    load_track_csv,
    mix,
)
from tfekit._csvtext import RowText
from tfekit.tfe import ADD_BLOCK


def _accumulate(tracks, time_bins=400, freq_bins=250):
    """The grid of `tracks`, deposited one at a time."""
    acc = TFEAccumulator(len(tracks[0]), tracks[0].sample_rate, time_bins, freq_bins)
    for tr in tracks:
        acc.add(tr)
    return acc.grid()


def _write_tracks(tracks, path):
    with open(path, "w") as fh:
        out = TrackCsvWriter(fh)
        for tr in tracks:
            out.write(tr)


class TestBuildTfe:
    def test_pure_tone_single_row(self):
        fs = 8000.0
        track = if_track(gen_chirp(1000, 1000, 1.0, fs))  # Fs/8
        grid = _accumulate([track], time_bins=40, freq_bins=50)
        marginal = grid.energy.sum(axis=0)
        row = np.searchsorted(grid.freq_edges, 1000.0, "right") - 1
        assert marginal[row] == pytest.approx(grid.total_energy, rel=1e-9)

    def test_delta_concentrated(self):
        fs, n0 = 1000.0, 1999
        track = if_track(gen_delta(n0, 4000, fs))
        grid = _accumulate([track], time_bins=400, freq_bins=250)
        freq_marginal = grid.energy.sum(axis=0)
        quarter_row = np.searchsorted(grid.freq_edges, fs / 4, "right") - 1
        assert freq_marginal.argmax() == quarter_row
        assert freq_marginal[quarter_row] / freq_marginal.sum() > 0.6
        time_marginal = grid.energy.sum(axis=1)
        impulse_bin = np.searchsorted(grid.time_edges, n0 / fs, "right") - 1
        window = time_marginal[max(impulse_bin - 1, 0) : impulse_bin + 2].sum()
        assert window / time_marginal.sum() > 0.95

    def test_energy_conserved_exactly(self):
        tracks = [if_track(gen_chirp(100, 900, 1.0, 2000.0)),
                  if_track(gen_chirp(300, 500, 1.0, 2000.0))]
        grid = _accumulate(tracks, time_bins=37, freq_bins=101)
        # oracle: compensated summation over raw track energies
        expected = math.fsum(float(v) for tr in tracks for v in tr.energy)
        assert abs(grid.total_energy - expected) <= 1e-10 * expected

    def test_order_invariance(self):
        a = if_track(gen_chirp(100, 900, 1.0, 2000.0))
        b = if_track(gen_chirp(300, 500, 1.0, 2000.0))
        g1 = _accumulate([a, b], 20, 20)
        g2 = _accumulate([b, a], 20, 20)
        assert np.allclose(g1.energy, g2.energy, rtol=0, atol=1e-12 * g1.total_energy)

    def test_refinement_preserves_total(self):
        track = if_track(gen_chirp(100, 900, 1.0, 2000.0))
        base = _accumulate([track], 40, 25).total_energy
        assert _accumulate([track], 80, 25).total_energy == pytest.approx(base, rel=1e-12)
        assert _accumulate([track], 40, 50).total_energy == pytest.approx(base, rel=1e-12)

    def test_boundary_frequencies(self):
        # 0 maps to the lowest bin, Fs/2 to the top bin, out-of-range clamps
        fs = 100.0
        track = IFTrack(np.array([0.0, 50.0, -3.0, 60.0]), np.ones(4), fs)
        grid = _accumulate([track], time_bins=1, freq_bins=10)
        assert grid.energy[0, 0] == 2.0  # 0 Hz and the clamped -3 Hz
        assert grid.energy[0, -1] == 2.0  # Nyquist and the clamped 60 Hz
        assert grid.total_energy == 4.0

    def test_matches_list_oracle(self):
        tracks = [if_track(gen_chirp(100, 900, 1.0, 2000.0)),
                  if_track(gen_chirp(300, 500, 1.0, 2000.0)),
                  IFTrack(np.linspace(-10.0, 1100.0, 2000), np.full(2000, 0.5), 2000.0)]
        for bins in ((400, 250), (7, 13), (1, 1)):
            got = _accumulate(tracks, *bins)
            want = oracles.build_tfe(tracks, *bins)
            assert got.energy.tobytes() == want.energy.tobytes()
            assert np.array_equal(got.time_edges, want.time_edges)
            assert np.array_equal(got.freq_edges, want.freq_edges)

    @pytest.mark.parametrize("bins", [(400, 250), (7, 13), (1, 250), (400, 1), (1, 1)])
    def test_flat_deposit_matches_2d_add_at(self, bins):
        # a conventional track below 0 Hz, a track past both ends, one at
        # exactly Fs/2, and N = 2001, which no bin count here divides
        fs, n = 2000.0, 2001
        x = mix([gen_chirp(100, 900, n / fs, fs), gen_chirp(950, 50, n / fs, fs)])
        conventional = if_track(x, mode="conventional")
        assert conventional.frequency_hz.min() < 0
        tracks = [conventional, if_track(x),
                  IFTrack(np.linspace(-10.0, 1100.0, n), np.full(n, 0.5), fs),
                  IFTrack(np.full(n, fs / 2), np.linspace(0.0, 3.0, n), fs)]
        acc = TFEAccumulator(n, fs, *bins)
        assert acc.energy.reshape(-1).base is acc.energy
        for tr in tracks:
            acc.add(tr)
        assert acc.grid().energy.tobytes() == oracles.build_tfe(tracks, *bins).energy.tobytes()

    def test_accumulator_one_track_at_a_time(self):
        tracks = [if_track(gen_chirp(100, 900, 1.0, 2000.0)),
                  if_track(gen_chirp(300, 500, 1.0, 2000.0))]
        acc = TFEAccumulator(2000, 2000.0, 20, 30)
        acc.add(tracks[0])
        first = acc.grid()
        acc.add(tracks[1])
        assert first.energy.tobytes() == oracles.build_tfe(tracks[:1], 20, 30).energy.tobytes()
        assert acc.grid().energy.tobytes() == oracles.build_tfe(tracks, 20, 30).energy.tobytes()
        with pytest.raises(ValueError, match="share"):
            acc.add(if_track(gen_chirp(100, 400, 1.0, 1000.0)))

    def test_blocked_deposit_matches_2d_add_at(self):
        # block edges fall inside time rows, and the last block is short
        fs, n = 1000.0, 2 * ADD_BLOCK + 3
        rng = np.random.default_rng(4)
        tracks = [IFTrack(rng.uniform(-50.0, 550.0, n), rng.exponential(1.0, n), fs),
                  IFTrack(np.full(n, fs / 2), np.linspace(0.0, 2.0, n), fs)]
        for bins in ((400, 250), (3, 7)):
            got = _accumulate(tracks, *bins)
            assert got.energy.tobytes() == oracles.build_tfe(tracks, *bins).energy.tobytes()

    def test_overflowing_cell_refused_when_the_grid_is_taken(self):
        # each sample's energy is finite, their sum in the one cell is not;
        # the sum warns nothing (warnings are errors here)
        acc = TFEAccumulator(4, 100.0, 1, 1)
        acc.add(IFTrack(np.full(4, 10.0), np.full(4, 1e308), 100.0))
        with pytest.raises(ValueError, match="grid cells must be finite"):
            acc.grid()

    @pytest.mark.parametrize("bins", [(0, 10), (10, 0)])
    def test_accumulator_checks_bin_counts_when_built(self, bins):
        with pytest.raises(ValueError, match="bin counts"):
            TFEAccumulator(100, 100.0, *bins)

    def test_mismatched_tracks_rejected(self):
        a = if_track(gen_chirp(100, 900, 1.0, 2000.0))
        acc = TFEAccumulator(len(a), a.sample_rate)
        for b in (if_track(gen_chirp(100, 400, 1.0, 1000.0)),
                  if_track(gen_chirp(100, 400, 0.5, 2000.0))):
            with pytest.raises(ValueError, match="share"):
                acc.add(b)
        with pytest.raises(ValueError):
            _accumulate([a], time_bins=0)


def _track(n, fs, seed=0):
    rng = np.random.default_rng(seed)
    return IFTrack(rng.uniform(0, fs / 2, n), rng.exponential(1e-3, n), fs)


# rows per formatted block of a tracks CSV (its frequency and energy cells
# fill one RowText(2)) and of a 13-bin grid CSV
_TRACK_ROWS = RowText(2).rows
_GRID_ROWS = RowText(13 + 1).rows

# edge values in both columns: zero, the smallest denormal, a huge value,
# exactly Nyquist and integral floats
_EDGES = np.array([0.0, 5e-324, 1e300, 50.0, 1.0, 2.0, 3e5, 0.1])

GOLDEN_TRACKS = {
    "empty": [],
    "odd-length": [_track(101, 1000.0)],
    "even-length": [_track(100, 1000.0)],
    "mixed-lengths-and-rates": [_track(64, 100.0, 1), _track(37, 8000.0, 2),
                                _track(64, 100.0, 3), _track(37, 44100.0, 4),
                                _track(64, 8000.0, 5)],
    "edge-values": [IFTrack(_EDGES, _EDGES[::-1], 100.0)],
    # zero energy, IF exactly 0 and Fs/2, the smallest normal and subnormal energies
    "zero-energy-and-if-edges": [IFTrack([0.0, 50.0, 0.0, 50.0, 12.5, 0.0, 50.0],
                                         [0.0, 0.0, 2.2250738585072014e-308, 5e-324, 0.0, 2.5, 0.0],
                                         100.0)],
    # one row short of a formatted block, one block, one block and a row,
    # two blocks and a row
    "block-edges": [_track(_TRACK_ROWS - 1, 1000.0, 6), _track(_TRACK_ROWS, 1000.0, 7),
                    _track(_TRACK_ROWS + 1, 1000.0, 9), _track(2 * _TRACK_ROWS + 1, 1000.0, 8)],
    # every time after the first is below 1e-270: Python formats the
    # cached column's cells, in every block
    "fallback-times": [_track(_TRACK_ROWS + 3, 1e300, 10), _track(_TRACK_ROWS + 3, 1e300, 11)],
    # two lengths across blocks and two rates, interleaved through one
    # writer: each switch rebuilds the cached time column
    "interleaved-time-columns": [_track(_TRACK_ROWS + 1, 1000.0, 12),
                                 _track(2 * _TRACK_ROWS + 1, 1000.0, 13),
                                 _track(_TRACK_ROWS + 1, 8000.0, 14),
                                 _track(_TRACK_ROWS + 1, 1000.0, 15),
                                 _track(2 * _TRACK_ROWS + 1, 8000.0, 16),
                                 _track(2 * _TRACK_ROWS + 1, 8000.0, 17)],
    "empty-track": [_track(5, 100.0, 18), IFTrack([], [], 100.0), _track(5, 100.0, 19),
                    IFTrack([], [], 100.0)],
    "negative-zero-frequency": [IFTrack([-0.0, 0.0, -0.0, 25.0], [1.0, -0.0, 0.0, 2.0], 100.0)],
}


class TestTrackCsv:
    @pytest.mark.parametrize("case", sorted(GOLDEN_TRACKS))
    def test_bytes_match_oracle(self, tmp_path, case):
        tracks = GOLDEN_TRACKS[case]
        _write_tracks(tracks, tmp_path / "got.csv")
        oracles.export_track_csv(tracks, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_memory_stays_at_one_track(self, tmp_path):
        tracks = [_track(8000, 8000.0, seed) for seed in range(20)]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            _write_tracks(tracks, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    def test_time_column_formatted_once(self, tmp_path, monkeypatch):
        # m tracks of n samples send n + 2*m*n cells through the record
        # steps: the shared time column once, then frequency and energy
        cells = []
        records = RowText.records

        def counting(self, x, out=None):
            cells.append(x.size)
            return records(self, x, out)

        monkeypatch.setattr(RowText, "records", counting)
        m, n = 3, 2 * _TRACK_ROWS + 5
        tracks = [_track(n, 1000.0, seed) for seed in range(m)]
        _write_tracks(tracks, tmp_path / "got.csv")
        assert sum(cells) == n + 2 * m * n
        oracles.export_track_csv(tracks, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_row_count(self, tmp_path):
        tracks = [if_track(gen_chirp(100, 900, 1.0, 2000.0)),
                  if_track(gen_chirp(300, 500, 0.5, 2000.0))]
        path = tmp_path / "tracks.csv"
        _write_tracks(tracks, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,frequency_hz,energy"
        assert len(lines) - 1 == sum(len(t) for t in tracks)

    def test_empty_track_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_tracks([], path)
        assert path.read_text() == "time_s,frequency_hz,energy\n"
        t, f, e = load_track_csv(path)
        assert t.size == f.size == e.size == 0

    def test_round_trip_values(self, tmp_path):
        track = if_track(gen_chirp(100, 900, 1.0, 2000.0))
        path = tmp_path / "t.csv"
        _write_tracks([track], path)
        t, f, e = load_track_csv(path)
        assert np.array_equal(f, track.frequency_hz)
        assert np.array_equal(e, track.energy)
        assert np.array_equal(t, np.arange(len(track)) / track.sample_rate)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_track_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("0,1,2\n0.5,3\n", "track row 2 has 2 fields, expected 3"),
        ("0,1,2\n0.5,3,4,5\n", "track row 2 has 4 fields, expected 3"),
        ("0,1,2\n0.5,x,4\n", "could not convert string to float: 'x'"),
    ], ids=["short-row", "long-row", "bad-field"])
    def test_malformed_tracks_name_the_file(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,frequency_hz,energy\n" + body)
        with pytest.raises(ValueError) as err:
            load_track_csv(path)
        assert str(err.value) == f"{path}: {message}"


_CHIRP_TRACK = if_track(gen_chirp(100, 900, 1.0, 2000.0))

GOLDEN_GRIDS = {
    "one-time-bin": _accumulate([_CHIRP_TRACK], 1, 13),
    "seven-time-bins": _accumulate([_CHIRP_TRACK], 7, 13),
    "edge-values": TFEGrid([0.0, 0.5, 1.0], [0.0, 25.0, 50.0],
                           [[0.0, 5e-324], [1e300, 2.0]]),
    # a chirp fills few cells of a fine grid: most cells are zero
    "zero-cells": _accumulate([_CHIRP_TRACK], 40, 60),
    # time bins one row short of a formatted block, one block, two blocks and a row
    "block-minus-one": _accumulate([_CHIRP_TRACK], _GRID_ROWS - 1, 13),
    "one-block": _accumulate([_CHIRP_TRACK], _GRID_ROWS, 13),
    "two-blocks-and-one": _accumulate([_CHIRP_TRACK], 2 * _GRID_ROWS + 1, 13),
}


class TestGridCsv:
    @pytest.mark.parametrize("case", sorted(GOLDEN_GRIDS))
    def test_bytes_match_oracle(self, tmp_path, case):
        grid = GOLDEN_GRIDS[case]
        export_grid_csv(grid, tmp_path / "got.csv")
        oracles.export_grid_csv(grid, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        track = if_track(gen_chirp(100, 900, 1.0, 2000.0))
        grid = _accumulate([track], 25, 40)
        path = tmp_path / "grid.csv"
        export_grid_csv(grid, path)
        back = load_grid_csv(path)
        assert np.abs(back.energy - grid.energy).max() <= 1e-12 * max(grid.energy.max(), 1.0)
        assert np.array_equal(back.time_edges, grid.time_edges)
        assert np.array_equal(back.freq_edges, grid.freq_edges)

    def test_layout(self, tmp_path):
        track = if_track(gen_chirp(100, 900, 1.0, 2000.0))
        grid = _accumulate([track], 4, 3)
        path = tmp_path / "g.csv"
        export_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith(",")  # corner then frequency edges
        assert len(lines[0].split(",")) == 1 + 4  # 3 bins -> 4 edges
        assert len(lines) == 1 + 4 + 1  # header + body rows + closing edge
        assert len(lines[1].split(",")) == 1 + 3

    def test_not_a_grid(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,4\n5\n")
        with pytest.raises(ValueError, match="corner"):
            load_grid_csv(path)

    @pytest.mark.parametrize("case", sorted(GOLDEN_GRIDS))
    def test_round_trip_bit_exact(self, tmp_path, case):
        grid = GOLDEN_GRIDS[case]
        export_grid_csv(grid, tmp_path / "g.csv")
        back = load_grid_csv(tmp_path / "g.csv")
        for got, want in ((back.energy, grid.energy), (back.time_edges, grid.time_edges),
                          (back.freq_edges, grid.freq_edges)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, message", [
        (",0,25,50\n0,1,2\n0.5,3\n1\n", "grid row 2 has 2 fields, expected 3"),
        (",0,25,50\n0,1,2\n0.5,3,4,5\n1\n", "grid row 2 has 4 fields, expected 3"),
        (",0,25,50\n0,1,x\n0.5,3,4\n1\n", "could not convert string to float: 'x'"),
        (",0,y,50\n0,1,2\n0.5,3,4\n1\n", "could not convert string to float: 'y'"),
        (",0,25,50\n0,1,2\n0.5,3,4\n1,5\n", "could not convert string to float: '1,5'"),
    ], ids=["short-row", "long-row", "bad-cell", "bad-frequency-edge", "bad-closing-edge"])
    def test_malformed_grid_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_grid_csv(path)
        assert str(err.value) == f"{path}: {message}"
