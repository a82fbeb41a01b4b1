"""FIR filtering and filter-mode decomposition into energy-preserving components.

The decomposition peels off one frequency band per stage with a zero-phase
FIR filter and then orthogonalizes the stage output against everything
that remains. The resulting components are linearly independent, generally
non-orthogonal pairwise, but each one is exactly orthogonal to the sum of
all later ones, so their energies add up to the energy of the mean-removed
input.

Zero-phase filtering applies the taps' power response |H|^2: the
reflection-padded input is cut into overlapping blocks, each block's real
FFT is multiplied by the real |H|^2 and transformed back (overlap-save).
A real response has exactly zero phase, and the result is the
forward-backward filter's to rounding.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filterbank import Decomposition
from .signals import Signal, _dot, finite_energy, remove_mean

__all__ = [
    "FirFilter",
    "design_fir",
    "zero_phase_filter",
    "causal_filter",
    "fmd_decompose",
    "LinoepReport",
    "verify_linoep",
]


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR filter: odd-length symmetric taps."""

    taps: np.ndarray
    kind: str  # 'lowpass' or 'highpass'

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.size % 2 != 1:
            raise ValueError(f"taps length must be odd, got {taps.size}")
        if not np.array_equal(taps, taps[::-1]):
            raise ValueError("taps must be exactly symmetric")
        dc = taps.sum()
        target = 1.0 if self.kind == "lowpass" else 0.0
        if self.kind not in ("lowpass", "highpass"):
            raise ValueError(f"kind must be 'lowpass' or 'highpass', got {self.kind!r}")
        if abs(dc - target) > 1e-6:
            raise ValueError(f"{self.kind} DC gain {dc} not within 1e-6 of {target}")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def order(self) -> int:
        return self.taps.size - 1


def _check_order(order: int) -> None:
    """The FIR order rule: even and at least 16."""
    if order % 2 != 0 or order < 16:
        raise ValueError(f"order must be even and >= 16, got {order}")


def design_fir(kind: str, cutoff_hz: float, order: int, sample_rate: float) -> FirFilter:
    """Windowed-sinc linear-phase FIR design.

    Parameters
    ----------
    kind : {'lowpass', 'highpass'}
        Highpass is the spectral inversion of the lowpass of the same cutoff.
    cutoff_hz : float
        -6 dB point, strictly inside (0, sample_rate/2).
    order : int
        Even, at least 16; the filter has order+1 taps.
    sample_rate : float

    Notes
    -----
    The ideal-lowpass impulse response is windowed by a raised cosine and
    normalized to unit DC gain. Taps are built from |lag| so symmetry is
    exact to the bit.
    """
    if kind not in ("lowpass", "highpass"):
        raise ValueError(f"kind must be 'lowpass' or 'highpass', got {kind!r}")
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(
            f"cutoff must lie strictly inside (0, {sample_rate / 2}) Hz, got {cutoff_hz}"
        )
    _check_order(order)
    half = order // 2
    m = np.arange(1, half + 1)
    fc = cutoff_hz / sample_rate
    wing = np.sin(2 * np.pi * fc * m) / (np.pi * m)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * (half - m) / order)
    wing *= window
    taps = np.concatenate([wing[::-1], [2 * fc], wing])
    taps /= taps.sum()
    if kind == "highpass":
        taps = -taps
        taps[half] += 1.0
    return FirFilter(taps, kind)


def _check_length(n: int, taps: np.ndarray, what: str) -> None:
    if n <= 3 * taps.size:
        raise ValueError(
            f"signal of {n} samples too short for {what} with "
            f"{taps.size} taps (need > {3 * taps.size})"
        )


def _causal(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # zero initial state, same-length output
    _check_length(samples.size, taps, "filtering")
    return np.convolve(samples, taps)[: samples.size]


def _zero_phase(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # Forward-backward filtering of the padded input, trimmed back to N
    # samples, is the linear convolution with the autocorrelation g of the
    # taps: 2*order+1 taps centred on lag 0, response |H|^2. Overlap-save
    # runs it on frames of `block` samples taken every `step`; frame k's
    # outputs order..block-order-1 are free of circular wrap and are output
    # samples k*step onwards.
    _check_length(samples.size, taps, "forward-backward filtering")
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


def zero_phase_filter(x: Signal, h: FirFilter) -> Signal:
    """Zero-phase filtering: magnitude |H|^2, exactly zero phase.

    The input is reflection-padded by order samples each side and
    convolved with the taps' autocorrelation, the impulse response of
    |H|^2, by overlap-save block FFTs. That is the forward-backward
    filter's output (filter, reverse, filter, reverse, trim) to rounding;
    the response is real, so passband features keep their sample
    positions exactly. The block length is the smallest power of two
    >= max(4096, 16 * order).
    """
    return Signal(_zero_phase(x.samples, h.taps), x.sample_rate)


def causal_filter(x: Signal, h: FirFilter) -> Signal:
    """Single forward pass; a passband tone comes out delayed by order/2 samples."""
    return Signal(_causal(x.samples, h.taps), x.sample_rate)


def fmd_decompose(
    x: Signal, cutoffs_hz, order: int = 256, method: str = "fmd-a"
) -> Decomposition:
    """Iterative filter-mode decomposition into energy-preserving components.

    Parameters
    ----------
    x : Signal
        Input; its mean is removed first and returned as c0.
    cutoffs_hz : sequence of float
        M-1 stage cutoffs, strictly increasing, as :meth:`BandSpec.ladder`
        gives them.
    order : int
        FIR order for every stage filter.
    method : {'fmd-a', 'fmd-b', 'causal-fir'}
        'fmd-a' (part A) runs highpass stages down the ladder, so the
        components go from high to low frequency; 'fmd-b' (part B) runs
        lowpass stages up it, low to high. 'causal-fir' is part A with
        single-pass filtering, the contrast mode.

    Notes
    -----
    Each stage splits the running signal x_i into a filter output y and
    remainder r = x_i - y, then picks the mixing coefficient that makes
    the extracted component orthogonal to what is passed on:

    * part A: alpha = <y,r>/<r,r>, component c_i = y - alpha*r, pass on
      (1+alpha)*r;
    * part B: alpha = <r,y>/<y,y>, component c_i = (1+alpha)*y, pass on
      r - alpha*y.

    Either way c_i + x_{i+1} = x_i exactly, so reconstruction is an
    algebraic identity, and c_i is orthogonal to the sum of all later
    components. When the orthogonalization denominator falls below
    1e-14 times the input energy, alpha is set to 0 and the remaining
    stages degenerate gracefully. An input whose energy overflows float64
    raises ValueError before any stage runs.
    """
    if method not in ("fmd-a", "fmd-b", "causal-fir"):
        raise ValueError(f"method must be 'fmd-a', 'fmd-b' or 'causal-fir', got {method!r}")
    cutoffs = [float(c) for c in cutoffs_hz]
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")
    part_a = method != "fmd-b"
    if part_a:
        cutoffs.reverse()

    c0, detrended = remove_mean(x)
    alpha_floor = 1e-14 * finite_energy(detrended.samples)
    apply_filter = _causal if method == "causal-fir" else _zero_phase
    stage_kind = "highpass" if part_a else "lowpass"

    current = detrended.samples
    components = np.empty((len(cutoffs) + 1, len(x)))
    for component, cutoff in zip(components, cutoffs):
        h = design_fir(stage_kind, cutoff, order, x.sample_rate)
        y = apply_filter(current, h.taps)
        r = current - y
        if part_a:
            denom = _dot(r, r)
            alpha = _dot(y, r) / denom if denom > alpha_floor else 0.0
            np.subtract(y, alpha * r, out=component)
            r *= 1 + alpha
        else:
            denom = _dot(y, y)
            alpha = _dot(r, y) / denom if denom > alpha_floor else 0.0
            np.multiply(1 + alpha, y, out=component)
            r -= alpha * y
        current = r
    components[-1] = current
    return Decomposition(c0, components, method)


@dataclass(frozen=True)
class LinoepReport:
    """Tail-orthogonality and energy-identity summary of an FMD decomposition.

    tail_cross[i] is |<c_i, sum_{l>i} c_l>| normalized by the norms;
    pairwise orthogonality between arbitrary components is not expected
    and not reported.
    """

    tail_cross: np.ndarray
    energy_ratio: float

    @property
    def max_tail_cross(self) -> float:
        return float(self.tail_cross.max()) if self.tail_cross.size else 0.0


def verify_linoep(d: Decomposition) -> LinoepReport:
    """Check the energy-preserving structure of an FMD decomposition.

    Reports, for each i, the normalized inner product of component i with
    the sum of all later components, plus sum ||c_i||^2 / ||x - c0||^2,
    where x - c0 is the sum of all the components. An energy that
    overflows float64 raises.
    """
    if d.method not in ("fmd-a", "fmd-b"):
        raise ValueError(f"LINOEP verification applies to fmd decompositions, got {d.method!r}")
    comps = d.components
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
