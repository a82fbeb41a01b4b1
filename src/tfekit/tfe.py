"""Time-frequency-energy grids and their CSV serialization.

Each track sample deposits its energy into exactly one grid cell (no
interpolation), so the grid total always equals the summed track energy
regardless of binning.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvtext import RowText
from .instfreq import IFTrack

__all__ = [
    "TFEGrid",
    "TFEAccumulator",
    "TrackCsvWriter",
    "load_track_csv",
    "export_grid_csv",
    "load_grid_csv",
]

TRACK_HEADER = "time_s,frequency_hz,energy"
# samples whose time rows TFEAccumulator finds, and whose grid cells its
# add computes, at a time: the accumulator holds no array as long as the
# tracks (an index per sample would be 4 MB at 512k samples), and a
# block's row offsets, a temporary of ADD_BLOCK indices, stay well under
# one float array of even a short (65536-sample) track
ADD_BLOCK = 16384


@dataclass(frozen=True)
class TFEGrid:
    """Binned time x frequency energy distribution.

    time_edges has one more entry than the grid's time rows, freq_edges one
    more than its frequency columns; energy[i, j] is the energy deposited
    into time bin i and frequency bin j.
    """

    time_edges: np.ndarray
    freq_edges: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        te = np.asarray(self.time_edges, dtype=np.float64)
        fe = np.asarray(self.freq_edges, dtype=np.float64)
        e = np.asarray(self.energy, dtype=np.float64)
        if e.shape != (te.size - 1, fe.size - 1):
            raise ValueError(
                f"energy shape {e.shape} inconsistent with {te.size - 1} time bins "
                f"and {fe.size - 1} frequency bins"
            )
        if np.any(e < 0):
            raise ValueError("grid cells must be nonnegative")
        if not np.isfinite(e).all():
            raise ValueError("grid cells must be finite; a cell's energy sum overflows float64")
        object.__setattr__(self, "time_edges", te)
        object.__setattr__(self, "freq_edges", fe)
        object.__setattr__(self, "energy", e)

    @property
    def total_energy(self) -> float:
        return float(self.energy.sum())


class TFEAccumulator:
    """A time x frequency energy grid filled one IF track at a time.

    Every track must have `n_samples` samples at `sample_rate`. Sample n
    deposits energy[n] into the cell containing (n/Fs, frequency_hz[n]).
    The frequency axis spans [0, Fs/2]; values at exactly Fs/2 land in the
    top bin, values at 0 in the lowest, and anything outside (possible for
    conventional-mode tracks) is clamped into the boundary bins so energy
    is conserved exactly. The bin counts are checked here, before any
    track is made. A cell whose sum overflows float64 is refused when the
    grid is taken.

    Sample n's time row, min(floor(n / Fs / (T / time_bins)), time_bins - 1)
    for a record of T seconds, never decreases with n, so within each block
    of ADD_BLOCK samples the samples of one row are one run. The
    accumulator finds each block's runs in one pass when it is made and
    keeps the first grid cell of each run's row and the run's length, and
    no per-sample array: its memory is the grid plus O(time_bins +
    N / ADD_BLOCK + ADD_BLOCK).
    """

    def __init__(self, n_samples: int, sample_rate: float,
                 time_bins: int = 400, freq_bins: int = 250):
        if time_bins < 1 or freq_bins < 1:
            raise ValueError("bin counts must be at least 1")
        self.n_samples = n = n_samples
        self.sample_rate = fs = sample_rate
        t_total = n / fs
        self.time_edges = np.linspace(0.0, t_total, time_bins + 1)
        self.freq_edges = np.linspace(0.0, fs / 2, freq_bins + 1)
        self.energy = np.zeros((time_bins, freq_bins))
        row_width = t_total / time_bins
        # per block of ADD_BLOCK samples, (row cells, run lengths): the
        # first grid cell of each time row that meets the block and the
        # block's samples in that row, at most time_bins + N / ADD_BLOCK
        # runs in all
        self._runs = []
        for start in range(0, n, ADD_BLOCK):
            rows = (np.arange(start, min(n, start + ADD_BLOCK)) / fs / row_width).astype(int)
            np.clip(rows, 0, time_bins - 1, out=rows)
            # the first sample of each run; the block's first sample starts one
            firsts = np.flatnonzero(np.diff(rows, prepend=-1))
            self._runs.append((rows[firsts] * freq_bins, np.diff(firsts, append=rows.size)))
        # add() computes the cell indices of each block of samples here
        self._idx = np.empty(min(n, ADD_BLOCK), dtype=np.intp)

    def add(self, track: IFTrack) -> None:
        """Deposit one track's energy."""
        fs = self.sample_rate
        if track.sample_rate != fs or len(track) != self.n_samples:
            raise ValueError("all tracks must share sample rate and length")
        freq_bins = self.energy.shape[1]
        width = (fs / 2) / freq_bins
        cells = self.energy.reshape(-1)
        # the same sequential sums, in the same order, as one 2-D np.add.at
        # on (t_idx, f_idx), through a flat view of the C-contiguous grid
        with np.errstate(over="ignore"):  # grid() refuses an overflowed cell
            for b, (row_cells, run_lengths) in enumerate(self._runs):
                block = slice(b * ADD_BLOCK, (b + 1) * ADD_BLOCK)
                f = track.frequency_hz[block]
                idx = self._idx[: f.size]
                # the cast truncates toward zero, as astype(int) does
                np.divide(f, width, out=idx, casting="unsafe")
                np.clip(idx, 0, freq_bins - 1, out=idx)
                # the time rows that meet the block, each repeated once per sample it has there
                idx += np.repeat(row_cells, run_lengths)
                np.add.at(cells, idx, track.energy[block])

    def grid(self) -> TFEGrid:
        """A copy of the grid of the tracks deposited so far."""
        return TFEGrid(self.time_edges, self.freq_edges, self.energy.copy())


class TrackCsvWriter:
    """Appends IF tracks to an open text file as triplet rows: time_s,frequency_hz,energy.

    The header is written when the writer is made; each :meth:`write`
    appends one track's rows a block of 2048 rows at a time. Every number
    is ``'%.17g'`` text. The tracks of a run share their time column, so
    its cells' records, Python's text for any fallback cell among them,
    are made once, on the first track of a length and sample rate, and
    kept (34 bytes a sample); each track then formats only its frequency
    and energy cells. Memory stays at one block's rows (0.8 MB of
    workspace) plus that cached column: 0.27 MB for tracks of 8,000
    samples, 17.4 MB for 512,000.
    """

    def __init__(self, fh):
        self._data = data = RowText(2)  # the frequency and energy of a block's rows
        self._records = np.empty((data.rows, 3, 4), dtype=np.uint64)
        self._codes = np.empty((data.rows, 3), dtype=np.intp)
        # (length, sample rate, records, shape codes) of the cached time column
        self._time = None
        self._fh = fh
        fh.write(TRACK_HEADER + "\n")

    def _time_column(self, n: int, fs: float) -> tuple[np.ndarray, np.ndarray]:
        """The records and shape codes of the time column of tracks of n samples at fs."""
        if self._time is not None and self._time[:2] == (n, fs):
            return self._time[2:]
        self._time = None  # freed before the new column is made
        records = np.empty((n, 4), dtype=np.uint64)
        codes = np.empty(n, dtype=np.int16)
        times = self._data.block.reshape(-1)
        for start in range(0, n, times.size):
            t = times[: n - start]
            stop = start + t.size
            # t[n] = n / Fs, as the whole track's time column has it
            np.divide(np.arange(start, stop), fs, out=t)
            codes[start:stop] = self._data.records(t, out=records[start:stop])[1]
        self._time = (n, fs, records, codes)
        return records, codes

    def write(self, track: IFTrack) -> None:
        n, fs = len(track), track.sample_rate
        time_records, time_codes = self._time_column(n, fs)
        data = self._data
        for start in range(0, n, data.rows):
            block = data.block[: n - start]
            rows = len(block)
            stop = start + rows
            block[:, 0] = track.frequency_hz[start:stop]
            block[:, 1] = track.energy[start:stop]
            records, codes = self._records[:rows], self._codes[:rows]
            codes[:, 1:] = data.records(block.reshape(-1), out=records[:, 1:])[1].reshape(rows, 2)
            records[:, 0] = time_records[start:stop]
            codes[:, 0] = time_codes[start:stop]
            self._fh.write(data.join(records, codes.reshape(-1)))


def load_track_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a triplet CSV back as (time_s, frequency_hz, energy) arrays.

    A row without exactly three fields, or a field that is not a number,
    raises ValueError naming the file.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != TRACK_HEADER:
        raise ValueError(f"{path}: missing triplet header {TRACK_HEADER!r}")
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    if not rows:
        return np.array([]), np.array([]), np.array([])
    for i, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise ValueError(f"{path}: track row {i} has {len(row)} fields, expected 3")
    try:
        # numpy parses each string as float() does, in one call
        data = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return data[:, 0], data[:, 1], data[:, 2]


def export_grid_csv(grid: TFEGrid, path) -> None:
    """Write a grid CSV: first row the frequency edges, first column the time edges.

    Layout: line 1 is an empty corner field followed by the freq_bins+1
    frequency edges; each body line is one time edge followed by that time
    bin's energy cells; the final line is the closing time edge alone.
    """
    energy, edges = grid.energy, grid.time_edges
    rows = RowText(energy.shape[1] + 1, len(energy))
    with open(path, "w") as fh:
        fh.write("," + rows.text(grid.freq_edges[None, :]))
        for start in range(0, len(energy), rows.rows):
            block = rows.block[: len(energy) - start]
            stop = start + len(block)
            block[:, 0] = edges[start:stop]
            block[:, 1:] = energy[start:stop]
            fh.write(rows.text(block))
        fh.write("%.17g\n" % edges[-1])


def load_grid_csv(path) -> TFEGrid:
    """Read a grid CSV written by :func:`export_grid_csv`.

    A body row whose field count differs from the frequency edges', or a
    field that is not a number, raises ValueError naming the file.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError(f"{path}: not a grid CSV (too few lines)")
    first = lines[0].split(",")
    if first[0] != "":
        raise ValueError(f"{path}: grid CSV must start with an empty corner field")
    rows = [line.split(",") for line in lines[1:-1]]
    width = len(first) - 1  # a time edge, then one cell per frequency bin
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}: grid row {i} has {len(row)} fields, expected {width}")
    try:
        # numpy parses each string as float() does, in one call
        freq_edges = np.array(first[1:], dtype=np.float64)
        body = np.array(rows, dtype=np.float64)
        closing = float(lines[-1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return TFEGrid(np.append(body[:, 0], closing), freq_edges, body[:, 1:])
