"""Zero-phase spectral filter bank: orthogonal bands, perfect reconstruction.

Splitting the spectrum with 0/1 masks gives components with disjoint
spectral support: exactly orthogonal, energy-preserving, and free of any
phase shift. With enough bands, each component isolates one physical
ridge and the average-frequency blur of the undecomposed estimate
resolves into the true frequencies.
"""

import numpy as np

from tfekit import (
    BandSpec,
    TFEAccumulator,
    chirp_true_if,
    dft_decompose,
    fm_true_if,
    gen_chirp,
    gen_fm,
    if_track,
    mix,
)
from tfekit.filterbank import CHECKS

fs = 8000.0
chirp = gen_chirp(1000, 2000, 1.0, fs)
fm = gen_fm(780, 200, 2, 1.0, fs)
x = mix([chirp, fm])

print("=== 1. two bands split at 1 kHz separate the two components ===")
plan = BandSpec(cutoffs_hz=[1000.0, 4000.0]).plan(len(x), fs)
# the bank hands each component on as a view that holds until the consumer
# returns: to keep the components, copy each into its row of an array
low, high = rows = np.empty((len(plan) - 1, len(x)))
row = iter(rows)
dft_decompose(x, plan, lambda component, _: np.copyto(next(row), component))
print(f"low band vs FM addend:    rel energy error "
      f"{np.dot(low - fm.samples, low - fm.samples) / np.dot(fm.samples, fm.samples):.2e}")
print(f"high band vs chirp addend: rel energy error "
      f"{np.dot(high - chirp.samples, high - chirp.samples) / np.dot(chirp.samples, chirp.samples):.2e}")

print()
print("=== 2. the decomposition is exact and orthogonal ===")
# the call returns c0 and the report of the check that takes in each band
# as it is made: the relative error of c0 plus the sum of the components,
# and a cross figure that bounds every pairwise
# |<y_i, y_l>| / (||y_i|| ||y_l||) from each component's leakage outside
# its own bins; CHECKS holds the tolerance of each figure
tolerances = CHECKS["orthogonality"]
for n_bands in (2, 10, 100):
    c0, report = dft_decompose(x, BandSpec(bands=n_bands).plan(len(x), fs),
                               lambda component, band: None)
    print(f"M={n_bands:3d}: reconstruction {report.reconstruction_error:.1e} "
          f"(tolerance {CHECKS['reconstruction_error']:.0e}), "
          f"cross bound {report.cross:.1e} (tolerance {tolerances['max_normalized_cross']:.0e}), "
          f"energy ratio {report.energy_ratio:.15f}")

print()
print("=== 3. 100 bands concentrate the energy on the true ridges ===")
ridge_a = chirp_true_if(1000, 2000, 1.0, fs)
ridge_b = fm_true_if(780, 200, 2, 1.0, fs)
tracks = []
# the bank hands each band on as it makes it: the component and a function
# that makes its analytic signal, views that hold until the consumer
# returns, so each band is tracked (if_track makes the track's own arrays)
# before the next one is made
c0, report = dft_decompose(x, BandSpec(bands=100).plan(len(x), fs),
                           lambda _, band: tracks.append(if_track(band())))
print(f"streamed M=100: reconstruction {report.reconstruction_error:.1e}, "
      f"cross bound {report.cross:.1e}")
on_ridge = total = 0.0
for tr in tracks:
    dist = np.minimum(np.abs(tr.frequency_hz - ridge_a), np.abs(tr.frequency_hz - ridge_b))
    on_ridge += tr.energy[dist <= 60.0].sum()
    total += tr.energy.sum()
print(f"energy within +-60 Hz of a true ridge: {on_ridge / total:.1%}")
undecomposed = if_track(x)
dist = np.minimum(np.abs(undecomposed.frequency_hz - ridge_a),
                  np.abs(undecomposed.frequency_hz - ridge_b))
frac = undecomposed.energy[dist <= 60.0].sum() / undecomposed.energy.sum()
print(f"same measure without decomposition:    {frac:.1%} (sits between the ridges)")

acc = TFEAccumulator(len(x), fs, time_bins=400, freq_bins=250)
for tr in tracks:
    acc.add(tr)
grid = acc.grid()
print(f"TFE grid: {grid.energy.shape[0]} x {grid.energy.shape[1]} cells, "
      f"total energy {grid.total_energy:.1f}")
