"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's own code paths: transforms by
direct O(N^2) summation, angle wrapping through the complex exponential,
quadrature by truncated-kernel convolution, and CSV writers that build the
whole file as a list of lines (the streaming writers must match them byte
for byte).
"""

from pathlib import Path

import numpy as np

TRACK_HEADER = "time_s,frequency_hz,energy"


def dft_direct(x) -> np.ndarray:
    """O(N^2) forward transform with the 1/N factor."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return (w @ x) / n


def idft_direct(spectrum) -> np.ndarray:
    """O(N^2) inverse (no 1/N factor)."""
    s = np.asarray(spectrum, dtype=complex)
    n = s.size
    k = np.arange(n)
    w = np.exp(2j * np.pi * np.outer(k, k) / n)
    return w @ s


def wrap_angle(phase) -> np.ndarray:
    """Map angles into (-pi, pi] via the complex exponential."""
    return np.angle(np.exp(1j * np.asarray(phase, dtype=float)))


def hilbert_kernel(half_length: int) -> np.ndarray:
    """Truncated quadrature convolution kernel for lags -half_length..half_length.

    The kernel is (1 - cos(pi*n))/(pi*n): zero at even lags (including 0)
    and 2/(pi*n) at odd lags. Evaluated in closed form so even lags are
    exactly zero.
    """
    if half_length < 8:
        raise ValueError(f"half_length must be at least 8, got {half_length}")
    lags = np.arange(-half_length, half_length + 1)
    taps = np.zeros(lags.size)
    odd = (lags % 2) != 0
    taps[odd] = 2.0 / (np.pi * lags[odd])
    return taps


def hilbert_kernel_fir(x, half_length: int) -> np.ndarray:
    """Quadrature of a Signal by direct truncated-kernel convolution.

    Centered 'same' convolution with :func:`hilbert_kernel`: an independent
    cross-check of the spectral quadrature on interior samples (truncation
    error is O(1/half_length)).
    """
    return np.convolve(x.samples, hilbert_kernel(half_length), mode="same")


def export_track_csv(tracks, path) -> None:
    """Write tracks as triplet rows: time_s,frequency_hz,energy.

    One row per sample per track, tracks concatenated in order; an empty
    track list produces a header-only file.
    """
    lines = [TRACK_HEADER]
    for tr in tracks:
        t = np.arange(len(tr)) / tr.sample_rate
        lines.extend(
            f"{ti:.17g},{fi:.17g},{ei:.17g}"
            for ti, fi, ei in zip(t, tr.frequency_hz, tr.energy)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def export_grid_csv(grid, path) -> None:
    """Write a grid CSV: first row the frequency edges, first column the time edges.

    Layout: line 1 is an empty corner field followed by the freq_bins+1
    frequency edges; each body line is one time edge followed by that time
    bin's energy cells; the final line is the closing time edge alone.
    """
    lines = ["," + ",".join(f"{v:.17g}" for v in grid.freq_edges)]
    for i in range(grid.energy.shape[0]):
        cells = ",".join(f"{v:.17g}" for v in grid.energy[i])
        lines.append(f"{grid.time_edges[i]:.17g},{cells}")
    lines.append(f"{grid.time_edges[-1]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_csv(x, path) -> None:
    """Write a signal to CSV with its sample-rate header."""
    lines = [f"# sample_rate={x.sample_rate:.17g}"]
    lines.extend(f"{v:.17g}" for v in x.samples)
    Path(path).write_text("\n".join(lines) + "\n")
