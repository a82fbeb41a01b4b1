"""Building a time-frequency-energy grid and getting it onto disk.

Every track sample drops its energy a^2[n] into exactly one (time, freq)
cell, so binning never creates or loses energy. The CSV exports are plain
enough for any plotting tool: a triplet file with one row per sample, and
a grid file with edge labels on the first row and column.
"""

import tempfile
from pathlib import Path

import numpy as np

from tfekit import (
    BandSpec,
    TFEAccumulator,
    TrackCsvWriter,
    dft_decompose,
    export_grid_csv,
    gen_chirp,
    gen_fm,
    if_track,
    load_grid_csv,
    load_track_csv,
    mix,
)

fs = 8000.0
x = mix([gen_chirp(1000, 2000, 1.0, fs), gen_fm(780, 200, 2, 1.0, fs)])
tracks = []  # the bank hands over each band's analytic signal as it makes it
dft_decompose(x, BandSpec(bands=20).plan(len(x), fs), lambda band: tracks.append(if_track(band)))

print("=== 1. accumulate the grid ===")
fine = TFEAccumulator(len(x), fs, time_bins=200, freq_bins=125)
coarse = TFEAccumulator(len(x), fs, time_bins=50, freq_bins=25)
for tr in tracks:
    fine.add(tr)
    coarse.add(tr)
grid = fine.grid()
track_energy = sum(t.energy.sum() for t in tracks)
print(f"{len(tracks)} tracks, grid {grid.energy.shape}, "
      f"total {grid.total_energy:.6f} vs tracks {track_energy:.6f}")
print(f"coarser binning, same total: {coarse.grid().total_energy:.6f}")

print()
print("=== 2. write and read back ===")
with tempfile.TemporaryDirectory(prefix="tfekit-demo-") as outdir:
    track_path = Path(outdir) / "tracks.csv"
    grid_path = Path(outdir) / "grid.csv"
    with open(track_path, "w") as fh:
        writer = TrackCsvWriter(fh)
        for tr in tracks:
            writer.write(tr)
    export_grid_csv(grid, grid_path)
    t, f, e = load_track_csv(track_path)
    print(f"tracks.csv: {t.size} rows = {len(tracks)} tracks x {len(tracks[0])} samples")
    back = load_grid_csv(grid_path)
    print(f"grid.csv: round-trip max cell difference "
          f"{np.abs(back.energy - grid.energy).max():.1e}")

print()
print("=== 3. where did the energy go? ===")
freq_marginal = grid.energy.sum(axis=0)
top = np.argsort(freq_marginal)[-5:][::-1]
for row in top:
    lo, hi = grid.freq_edges[row], grid.freq_edges[row + 1]
    print(f"  {lo:6.0f}-{hi:6.0f} Hz: {freq_marginal[row] / grid.total_energy:6.1%} of energy")
