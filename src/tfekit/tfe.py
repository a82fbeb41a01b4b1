"""Time-frequency-energy grids and their CSV serialization.

Each track sample deposits its energy into exactly one grid cell (no
interpolation), so the grid total always equals the summed track energy
regardless of binning.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .instfreq import IFTrack

__all__ = [
    "TFEGrid",
    "TFEAccumulator",
    "build_tfe",
    "TrackCsvWriter",
    "export_track_csv",
    "load_track_csv",
    "export_grid_csv",
    "load_grid_csv",
]

TRACK_HEADER = "time_s,frequency_hz,energy"


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
    track is made.
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
        t_idx = np.clip((np.arange(n) / fs / (t_total / time_bins)).astype(int),
                        0, time_bins - 1)
        # flat index of each sample's time row; add() adds its frequency bin
        self._row_offset = t_idx * freq_bins

    def add(self, track: IFTrack) -> None:
        """Deposit one track's energy."""
        fs = self.sample_rate
        if track.sample_rate != fs or len(track) != self.n_samples:
            raise ValueError("all tracks must share sample rate and length")
        freq_bins = self.energy.shape[1]
        f_idx = np.clip((track.frequency_hz / ((fs / 2) / freq_bins)).astype(int), 0, freq_bins - 1)
        # the same sequential sums, in the same order, as a 2-D np.add.at on
        # (t_idx, f_idx), through a flat view of the C-contiguous grid
        f_idx += self._row_offset
        np.add.at(self.energy.reshape(-1), f_idx, track.energy)

    def grid(self) -> TFEGrid:
        """A copy of the grid of the tracks deposited so far."""
        return TFEGrid(self.time_edges, self.freq_edges, self.energy.copy())


def build_tfe(tracks: list[IFTrack], time_bins: int = 400, freq_bins: int = 250) -> TFEGrid:
    """Accumulate IF tracks, which share one rate and length, into a TFE grid.

    See :class:`TFEAccumulator` for the binning.
    """
    if not tracks:
        raise ValueError("need at least one track")
    acc = TFEAccumulator(len(tracks[0]), tracks[0].sample_rate, time_bins, freq_bins)
    for tr in tracks:
        acc.add(tr)
    return acc.grid()


class TrackCsvWriter:
    """Appends IF tracks to an open text file as triplet rows: time_s,frequency_hz,energy.

    The header is written when the writer is made; each :meth:`write`
    appends one track's rows, so memory stays at one track's rows.
    """

    def __init__(self, fh):
        # The time column depends only on (length, rate): format it once per
        # pair into a row template whose %-slots each track fills in one call.
        # A formatted float contains no '%', so the baked-in times are literal.
        self._templates = {}
        self._fh = fh
        fh.write(TRACK_HEADER + "\n")

    def write(self, track: IFTrack) -> None:
        key = (len(track), track.sample_rate)
        template = self._templates.get(key)
        if template is None:
            times = (np.arange(len(track)) / track.sample_rate).tolist()
            template = self._templates[key] = "".join(["%.17g,%%.17g,%%.17g\n" % t for t in times])
        pairs = np.column_stack((track.frequency_hz, track.energy)).ravel().tolist()
        self._fh.write(template % tuple(pairs))


def export_track_csv(tracks: list[IFTrack], path) -> None:
    """Write tracks as triplet rows: time_s,frequency_hz,energy.

    One row per sample per track, tracks concatenated in order; an empty
    track list produces a header-only file. The file is written one track
    at a time by a :class:`TrackCsvWriter`.
    """
    with open(path, "w") as fh:
        out = TrackCsvWriter(fh)
        for tr in tracks:
            out.write(tr)


def load_track_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a triplet CSV back as (time_s, frequency_hz, energy) arrays."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != TRACK_HEADER:
        raise ValueError(f"{path}: missing triplet header {TRACK_HEADER!r}")
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    if not rows:
        return np.array([]), np.array([]), np.array([])
    data = np.array(rows, dtype=np.float64)
    return data[:, 0], data[:, 1], data[:, 2]


def export_grid_csv(grid: TFEGrid, path) -> None:
    """Write a grid CSV: first row the frequency edges, first column the time edges.

    Layout: line 1 is an empty corner field followed by the freq_bins+1
    frequency edges; each body line is one time edge followed by that time
    bin's energy cells; the final line is the closing time edge alone.
    """
    row = ",".join(["%.17g"] * (grid.energy.shape[1] + 1)) + "\n"
    times = grid.time_edges.tolist()
    with open(path, "w") as fh:
        fh.write("," + row % tuple(grid.freq_edges.tolist()))
        for t, cells in zip(times, grid.energy.tolist()):
            fh.write(row % (t, *cells))
        fh.write("%.17g\n" % times[-1])


def load_grid_csv(path) -> TFEGrid:
    """Read a grid CSV written by :func:`export_grid_csv`."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError(f"{path}: not a grid CSV (too few lines)")
    first = lines[0].split(",")
    if first[0] != "":
        raise ValueError(f"{path}: grid CSV must start with an empty corner field")
    freq_edges = np.array(first[1:], dtype=np.float64)
    time_edges = []
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        time_edges.append(float(fields[0]))
        rows.append([float(v) for v in fields[1:]])
    time_edges.append(float(lines[-1]))
    return TFEGrid(np.array(time_edges), freq_edges, np.array(rows))
