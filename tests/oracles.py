"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's own code paths: transforms by
direct O(N^2) summation, angle wrapping through the complex exponential,
quadrature by truncated-kernel convolution, positive IF in four passes
(angle, unwrap, difference of the unwrapped phase, fold; the library takes
the phase increments directly), CSV writers that build the whole file as a
list of lines (the streaming writers must match them byte for byte), a
DFT bank built another way: a Hermitian 0/1 mask per band with an
imaginary-residue guard, scaling numpy's transforms by N itself (the
real-transform bank must match it component by component), and the
list-based grid that held every track at once (the streaming CLI must
match its bytes), the stacked Gram check of every pair of components (the
leakage bound must cover it),
Marple's one-sided spectrum, one complex synthesis per band with its own
bin doubling (each band of the bank must match it to rounding), the
analytic signal as two complex transforms built on it (the real-transform
quadrature must match it to rounding), the boolean-index phase fold (the
masked fold must match its bits), zero-phase filtering as two
time-domain convolutions with a reversal between them (the block-FFT
filter must match it to rounding), the overlap-save filter that transforms
every frame of the whole padded input at once (the batched filter must
match its bits), the signal CSV reader that
splits, strips and converts the file line by line (the C-parsed ingest
must match its bits, or its error message) and the FMD tail figures
summed backward over every stored component (the streaming check's
defect bound must cover them).
"""

from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tfekit import (
    AnalyticSignal,
    FirFilter,
    LinoepReport,
    OrthogonalityReport,
    Signal,
    TFEGrid,
)
from tfekit.signals import _dot, finite_energy

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


def one_sided(spectrum, lo: int, hi: int) -> np.ndarray:
    """Analytic signal of the bins lo..hi of a spectrum ``np.fft.fft(x, norm="forward")``.

    Zeroes every bin outside lo..hi, doubles the bins strictly between DC
    and Nyquist, keeps DC (lo == 0) and the even-length Nyquist bin
    (2*hi == N) unscaled, and inverts. The real part of the result is the
    zero-phase component of those bins, the imaginary part its quadrature.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = spectrum.size
    if n < 4:
        raise ValueError(f"analytic signal needs at least 4 samples, got {n}")
    if not 0 <= lo <= hi <= n // 2:
        raise ValueError(f"bins {lo}..{hi} outside 0..{n // 2} for length {n}")
    z = np.zeros(n, dtype=np.complex128)
    z[lo : hi + 1] = 2 * spectrum[lo : hi + 1]
    if lo == 0:
        z[0] = spectrum[0]
    if 2 * hi == n:
        z[hi] = spectrum[hi]
    # in place: the masked spectrum's memory becomes the band's own z
    return np.fft.ifft(z, norm="forward", out=z)


def analytic_signal(x: Signal) -> AnalyticSignal:
    """The analytic signal as :func:`one_sided` on bins 0..floor(N/2) of the spectrum.

    Two complex transforms; the real part round-trips the input.
    """
    spectrum = np.fft.fft(x.samples) / len(x)
    z = one_sided(spectrum, 0, len(x) // 2)
    return AnalyticSignal(z.real, z.imag, x.sample_rate)


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


def zero_phase_whole(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Overlap-save zero-phase filtering with every frame in one array.

    The reflection-padded, zero-tailed input is built whole, all its frames
    are transformed in one batched rfft, scaled by |H|^2 and transformed
    back in one irfft; each frame's wrap-free middle is its output.
    """
    # Forward-backward filtering of the padded input, trimmed back to N
    # samples, is the linear convolution with the autocorrelation g of the
    # taps: 2*order+1 taps centred on lag 0, response |H|^2. Overlap-save
    # runs it on frames of `block` samples taken every `step`; frame k's
    # outputs order..block-order-1 are free of circular wrap and are output
    # samples k*step onwards.
    n, order = samples.size, taps.size - 1
    # a power of two at least 8 times the kernel's 2*order span, so that
    # wrap-around costs at most an eighth of each transform
    block = 4096
    while block < 16 * order:
        block *= 2
    step = block - 2 * order
    frames = -(-n // step)
    padded = np.empty((frames - 1) * step + block)
    # reflection padding: mirror without repeating the edge sample
    padded[:order] = samples[order:0:-1]
    padded[order : order + n] = samples
    padded[order + n : n + 2 * order] = samples[-2 : -order - 2 : -1]
    padded[n + 2 * order :] = 0.0
    spectrum = np.fft.rfft(sliding_window_view(padded, block)[::step], axis=1)
    response = np.fft.rfft(taps, block)
    spectrum *= response.real**2 + response.imag**2
    out = np.fft.irfft(spectrum, block, axis=1)[:, order : order + step]
    return out.reshape(-1)[:n]


def dft_decompose(x: Signal, boundaries) -> tuple[float, np.ndarray]:
    """Split a signal into zero-phase spectral band components: c0 and the (M, N) components.

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
    return c0, np.array(components)


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


def verify_orthogonality(c0: float, components) -> OrthogonalityReport:
    """Pairwise orthogonality and Parseval balance, on a stacked copy of the components."""
    x = c0 + np.sum(list(components), axis=0)
    energy = finite_energy(x)
    comps = np.stack(list(components))
    gram = comps @ comps.T
    norms = np.sqrt(np.diag(gram))
    denom = np.outer(norms, norms)
    denom[denom == 0] = 1.0
    normalized = np.abs(gram) / denom
    np.fill_diagonal(normalized, 0.0)
    energy_ratio = float((np.trace(gram) + x.size * c0**2) / energy) if energy > 0 else 1.0
    return OrthogonalityReport(float(normalized.max()), energy_ratio)


def verify_linoep(components) -> LinoepReport:
    """Check the energy-preserving structure of an FMD decomposition's (M, N) components.

    Reports, for each i, the normalized inner product of component i with
    the sum of all later components, plus sum ||c_i||^2 / ||x - c0||^2,
    where x - c0 is the sum of all the components. An energy that
    overflows float64 raises. The tail sums run backward over the stored
    components; :func:`tfekit.fmd_decompose` reports a bound on the same
    figures instead, stage by stage (``tfekit.fmd._TailCheck``).
    """
    comps = components
    energies = [finite_energy(c) for c in comps]
    tail, tail_energy = comps[-1].copy(), energies[-1]
    crosses = np.zeros(len(comps) - 1)
    for i in range(len(comps) - 2, -1, -1):
        # the product of the norms, not the root of the energies' product,
        # which overflows or underflows far sooner
        denom = np.sqrt(energies[i]) * np.sqrt(tail_energy)
        crosses[i] = abs(_dot(comps[i], tail)) / denom if denom > 0 else 0.0
        tail += comps[i]
        tail_energy = finite_energy(tail)
    # the tail is now x - c0
    ratio = sum(energies) / tail_energy if tail_energy > 0 else 1.0
    return LinoepReport(crosses, ratio)
