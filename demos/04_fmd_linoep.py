"""Filter-mode decomposition: energy preserved without pairwise orthogonality.

Real FIR filters are not brick walls, so their band components overlap
spectrally and cannot all be orthogonal to each other. The stage-wise
mixing coefficient instead makes each component orthogonal to the sum of
everything after it: a telescoping Pythagoras that preserves energy
exactly while keeping full control of the cutoff ladder.
"""

import numpy as np

from tfekit import BandSpec, fmd_decompose, gen_noise
from tfekit.filterbank import CHECKS

fs = 1000.0
x = gen_noise(seed=42, length=8192, sample_rate=fs)
cutoffs = BandSpec(bands=5).ladder(fs)


def decompose(method):
    """The ladder's Decomposition and its components, each copied into its row when handed on."""
    rows = np.empty((len(cutoffs) + 1, len(x)))
    row = iter(rows)
    d = fmd_decompose(x, cutoffs, lambda component, _: np.copyto(next(row), component),
                      order=128, method=method)
    return d, rows


print("=== 1. five bands, highest to lowest (part A) ===")
d, comps = decompose("fmd-a")
report = d.report
print(f"reconstruction error {report.reconstruction_error:.1e} "
      f"(tolerance {CHECKS['reconstruction_error']:.0e})")
# each stage's rounding defect bounds |<c_i, sum of later c>| / (||c_i|| ||sum||)
# as the ladder runs, with no component kept; the report's "linoep" section
# holds their largest
print(f"tail orthogonality defect bound per stage: {[f'{v:.1e}' for v in report.bounds]}")
print(f"largest {report.cross:.1e} (tolerance {CHECKS['linoep']['max_tail_cross']:.0e})")
print(f"sum ||c_i||^2 / ||x - mean||^2 = {report.energy_ratio:.15f}")


def centroid(c):
    power = np.abs(np.fft.rfft(c)) ** 2
    freqs = np.fft.rfftfreq(c.size, 1 / fs)
    return (freqs * power).sum() / power.sum()


print(f"spectral centroids (Hz): {[f'{centroid(c):.0f}' for c in comps]}")

print()
print("=== 2. part B walks the ladder the other way ===")
d_up, comps_up = decompose("fmd-b")
print(f"spectral centroids (Hz): {[f'{centroid(c):.0f}' for c in comps_up]}")
print(f"energy ratio {d_up.report.energy_ratio:.15f}")

print()
print("=== 3. neighbors are NOT orthogonal; only the tail sums are ===")
for i, j in [(0, 1), (1, 2), (0, 2)]:
    denom = np.linalg.norm(comps[i]) * np.linalg.norm(comps[j])
    print(f"|<c{i + 1}, c{j + 1}>| normalized = {abs(comps[i] @ comps[j]) / denom:.2e}")
last = abs(comps[-2] @ comps[-1]) / (np.linalg.norm(comps[-2]) * np.linalg.norm(comps[-1]))
print(f"|<c{len(comps) - 1}, c{len(comps)}>| normalized = {last:.2e}  "
      "(the final pair is the one guaranteed orthogonal pair)")
