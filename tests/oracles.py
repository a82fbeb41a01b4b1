"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's own code paths: transforms by
direct O(N^2) summation, angle wrapping through the complex exponential,
quadrature by truncated-kernel convolution, positive IF in four passes
(angle, unwrap, difference of the unwrapped phase, fold; the library takes
the phase increments directly), CSV writers that build the whole file as a
list of lines (the streaming writers must match them byte for byte), a
DFT bank built another way: a Hermitian 0/1 mask per band with an
imaginary-residue guard, scaling numpy's transforms by N itself (the
one-sided bank must match it component by component), and the list-based
grid and stacked Gram check that held every track and a second
copy of the components at once (the streaming CLI must match their bytes),
the analytic signal as two complex transforms (the real-transform
quadrature must match it to rounding), the boolean-index phase fold (the
masked fold must match its bits) and zero-phase filtering as two
time-domain convolutions with a reversal between them (the block-FFT
filter must match it to rounding) and the signal CSV reader that
splits, strips and converts the file line by line (the C-parsed ingest
must match its bits, or its error message).
"""

from pathlib import Path

import numpy as np

from tfekit import (
    AnalyticSignal,
    Decomposition,
    FirFilter,
    OrthogonalityReport,
    Signal,
    TFEGrid,
    one_sided,
)
from tfekit.signals import finite_energy

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


def unwrap_phase(wrapped) -> np.ndarray:
    """Unwrap a phase sequence so consecutive differences lie in (-pi, pi].

    output[0] equals input[0] and every sample stays congruent to the
    input modulo 2*pi.
    """
    wrapped = np.asarray(wrapped, dtype=np.float64)
    if wrapped.size <= 1:
        return wrapped.copy()
    d = np.diff(wrapped)
    # fold each jump into (-pi, pi]; -pi maps to +pi
    folded = np.pi - np.mod(np.pi - d, 2 * np.pi)
    out = np.empty_like(wrapped)
    out[0] = wrapped[0]
    np.cumsum(folded, out=out[1:])
    out[1:] += wrapped[0]
    return out


def analytic_signal(x: Signal) -> AnalyticSignal:
    """The analytic signal as :func:`one_sided` on bins 0..floor(N/2) of the spectrum.

    Two complex transforms; the real part round-trips the input.
    """
    spectrum = np.fft.fft(x.samples) / len(x)
    return AnalyticSignal(one_sided(spectrum, 0, len(x) // 2), x.sample_rate)


def fold_increments(z) -> np.ndarray:
    """Phase increments of `z` folded into (-pi, pi] by boolean indexing."""
    d = np.diff(np.angle(z))
    d[d > np.pi] -= 2 * np.pi
    d[d <= -np.pi] += 2 * np.pi
    return d


def four_pass_if(z, sample_rate: float, scheme: str = "forward") -> np.ndarray:
    """Positive IF in Hz of an analytic sequence `z`, in four passes.

    The four-quadrant angle, :func:`unwrap_phase`, a finite difference of
    the unwrapped phase (boundary samples repeat their neighbour), then the
    +pi fold of negative derivatives and the Hz scaling.
    """
    phase = unwrap_phase(np.angle(z))
    diff = np.empty_like(phase)
    if scheme == "forward":
        diff[:-1] = phase[1:] - phase[:-1]
        diff[-1] = diff[-2]
    elif scheme == "backward":
        diff[1:] = phase[1:] - phase[:-1]
        diff[0] = diff[1]
    else:
        diff[1:-1] = (phase[2:] - phase[:-2]) / 2
        diff[0] = diff[1]
        diff[-1] = diff[-2]
    omega = np.where(diff >= 0, diff, diff + np.pi)
    return np.clip(omega * (sample_rate / (2 * np.pi)), 0.0, sample_rate / 2)


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


def load_csv(path, sample_rate: float | None = None) -> Signal:
    """Read a signal CSV line by line: strip each line, take the ones opening
    with '#' as comments (the last '# sample_rate=' wins), convert the rest
    in one np.array call and name the first line float() refuses."""
    path = Path(path)
    lines = list(map(str.strip, path.read_text().splitlines()))
    kept = [line for line in lines if line and line[0] != "#"]
    # the comment lines are few: scan for them only up to the last one
    comments = len(lines) - len(kept) - lines.count("")
    header_rate = None
    for lineno, line in enumerate(lines, start=1):
        if not comments:
            break
        if line[:1] == "#":
            comments -= 1
            key, _, val = line.lstrip("# ").partition("=")
            if key.strip() == "sample_rate":
                try:
                    header_rate = float(val)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad sample_rate value {val!r}") from None
    try:
        values = np.array(kept, dtype=np.float64)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            if line and line[0] != "#":
                try:
                    float(line)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
        raise
    rate = sample_rate if sample_rate is not None else header_rate
    if rate is None:
        raise ValueError(
            f"{path}: no '# sample_rate=' header and no sample rate given; "
            "pass one explicitly (CLI: --fs)"
        )
    if not values.size:
        raise ValueError(f"{path}: no samples found")
    return Signal(values, rate)


def zero_phase_filter(x: Signal, h: FirFilter) -> Signal:
    """Forward-backward filtering: reflection-pad by order samples each side,
    filter, reverse, filter again, reverse and trim."""
    pad = h.taps.size - 1
    xp = np.pad(x.samples, pad, mode="reflect")
    forward = np.convolve(xp, h.taps)[: xp.size]
    backward = np.convolve(forward[::-1], h.taps)[: xp.size][::-1]
    return Signal(backward[pad : pad + len(x)], x.sample_rate)


def dft_decompose(x: Signal, boundaries) -> Decomposition:
    """Split a signal into zero-phase spectral band components.

    Each component is the inverse transform of the input spectrum masked
    to one band's bins and their mirrors; c0 is the DC bin (the sample
    mean). Imaginary residue of a synthesized component above 1e-10 of
    the signal scale indicates a broken Hermitian mask and raises.
    """
    n = len(x)
    if boundaries[-1] != n // 2:
        raise ValueError(f"boundaries end at {boundaries[-1]}, length {n} needs {n // 2}")
    spectrum = np.fft.fft(x.samples) / n
    c0 = float(spectrum[0].real)
    residue_limit = 1e-10 * max(1.0, float(np.abs(x.samples).max()))
    components = []
    for i in range(len(boundaries) - 1):
        lo, hi = boundaries[i] + 1, boundaries[i + 1]
        masked = np.zeros(n, dtype=np.complex128)
        masked[lo : hi + 1] = spectrum[lo : hi + 1]
        # mirror bins; for even N the Nyquist bin has no distinct mirror
        mlo = max(n - hi, n // 2 + 1)
        mhi = n - lo
        if mlo <= mhi:
            masked[mlo : mhi + 1] = spectrum[mlo : mhi + 1]
        y = np.fft.ifft(masked) * n
        if np.abs(y.imag).max() > residue_limit:
            raise RuntimeError(
                f"band {i}: imaginary residue {np.abs(y.imag).max():.3e} exceeds "
                f"{residue_limit:.3e}; spectral mask lost Hermitian symmetry"
            )
        components.append(y.real)
    return Decomposition(c0, components, "dft")


def build_tfe(tracks, time_bins: int = 400, freq_bins: int = 250) -> TFEGrid:
    """Accumulate a list of IF tracks into a time x frequency energy grid.

    Sample n of each track deposits energy[n] into the cell containing
    (n/Fs, frequency_hz[n]), frequencies clamped into [0, Fs/2]'s bins.
    """
    if not tracks:
        raise ValueError("need at least one track")
    if time_bins < 1 or freq_bins < 1:
        raise ValueError("bin counts must be at least 1")
    fs = tracks[0].sample_rate
    n = len(tracks[0])
    for tr in tracks:
        if tr.sample_rate != fs or len(tr) != n:
            raise ValueError("all tracks must share sample rate and length")
    t_total = n / fs
    time_edges = np.linspace(0.0, t_total, time_bins + 1)
    freq_edges = np.linspace(0.0, fs / 2, freq_bins + 1)
    grid = np.zeros((time_bins, freq_bins))
    t_idx = np.clip((np.arange(n) / fs / (t_total / time_bins)).astype(int), 0, time_bins - 1)
    for tr in tracks:
        f_idx = np.clip((tr.frequency_hz / ((fs / 2) / freq_bins)).astype(int), 0, freq_bins - 1)
        np.add.at(grid, (t_idx, f_idx), tr.energy)
    return TFEGrid(time_edges, freq_edges, grid)


def verify_orthogonality(d: Decomposition) -> OrthogonalityReport:
    """Pairwise orthogonality and Parseval balance, on a stacked copy of the components."""
    x = d.c0 + np.sum(list(d.components), axis=0)
    energy = finite_energy(x)
    comps = np.stack(list(d.components))
    gram = comps @ comps.T
    norms = np.sqrt(np.diag(gram))
    denom = np.outer(norms, norms)
    denom[denom == 0] = 1.0
    normalized = np.abs(gram) / denom
    np.fill_diagonal(normalized, 0.0)
    energy_ratio = float((np.trace(gram) + x.size * d.c0**2) / energy) if energy > 0 else 1.0
    return OrthogonalityReport(float(normalized.max()), energy_ratio)
