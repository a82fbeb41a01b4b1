"""FIR filtering and filter-mode decomposition into energy-preserving components.

The decomposition peels off one frequency band per stage with a zero-phase
(forward-backward) FIR filter and then orthogonalizes the stage output
against everything that remains. The resulting components are linearly
independent, generally non-orthogonal pairwise, but each one is exactly
orthogonal to the sum of all later ones, so their energies add up to the
energy of the mean-removed input.
"""

from dataclasses import dataclass

import numpy as np

from .filterbank import Decomposition
from .signals import Signal, finite_energy, remove_mean

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
    nominal_cutoff_hz: float
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
    if order % 2 != 0 or order < 16:
        raise ValueError(f"order must be even and >= 16, got {order}")
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
    return FirFilter(taps, float(cutoff_hz), kind)


def _reflect_pad(samples: np.ndarray, pad: int) -> np.ndarray:
    # mirror without repeating the edge sample
    return np.concatenate([samples[1 : pad + 1][::-1], samples, samples[-2 : -pad - 2 : -1]])


def _causal(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # zero initial state, same-length output
    return np.convolve(samples, taps)[: samples.size]


def zero_phase_filter(x: Signal, h: FirFilter) -> Signal:
    """Forward-backward filtering: magnitude |H|^2, exactly zero phase.

    The input is reflection-padded by order samples each side, filtered,
    reversed, filtered again, reversed and trimmed, so passband features
    keep their sample positions exactly.
    """
    if len(x) <= 3 * h.taps.size:
        raise ValueError(
            f"signal of {len(x)} samples too short for forward-backward "
            f"filtering with {h.taps.size} taps (need > {3 * h.taps.size})"
        )
    pad = h.taps.size - 1
    xp = _reflect_pad(x.samples, pad)
    forward = _causal(xp, h.taps)
    backward = _causal(forward[::-1], h.taps)[::-1]
    return Signal(backward[pad : pad + len(x)], x.sample_rate)


def causal_filter(x: Signal, h: FirFilter) -> Signal:
    """Single forward pass; a passband tone comes out delayed by order/2 samples."""
    if len(x) <= 3 * h.taps.size:
        raise ValueError(
            f"signal of {len(x)} samples too short for filtering with "
            f"{h.taps.size} taps (need > {3 * h.taps.size})"
        )
    return Signal(_causal(x.samples, h.taps), x.sample_rate)


def fmd_decompose(
    x: Signal,
    cutoffs_hz,
    order: int = 256,
    part: str = "A",
    filtering: str = "zero-phase",
) -> Decomposition:
    """Iterative filter-mode decomposition into energy-preserving components.

    Parameters
    ----------
    x : Signal
        Input; its mean is removed first and returned as c0.
    cutoffs_hz : sequence of float
        M-1 stage cutoffs: strictly decreasing for part 'A' (successive
        highpass stages, components ordered high to low frequency),
        strictly increasing for part 'B' (lowpass stages, low to high).
    order : int
        FIR order for every stage filter.
    part : {'A', 'B'}
    filtering : {'zero-phase', 'causal'}
        'causal' swaps in single-pass filtering as the contrast mode and
        tags the result 'causal-fir'.

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
    part = part.upper()
    if part not in ("A", "B"):
        raise ValueError(f"part must be 'A' or 'B', got {part!r}")
    if filtering not in ("zero-phase", "causal"):
        raise ValueError(f"filtering must be 'zero-phase' or 'causal', got {filtering!r}")
    cutoffs = [float(c) for c in cutoffs_hz]
    if part == "A" and any(c2 >= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"part A needs strictly decreasing cutoffs, got {cutoffs}")
    if part == "B" and any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"part B needs strictly increasing cutoffs, got {cutoffs}")

    c0, detrended = remove_mean(x)
    alpha_floor = 1e-14 * finite_energy(detrended.samples)
    apply_filter = zero_phase_filter if filtering == "zero-phase" else causal_filter
    stage_kind = "highpass" if part == "A" else "lowpass"

    current = detrended
    components = np.empty((len(cutoffs) + 1, len(x)))
    for component, cutoff in zip(components, cutoffs):
        h = design_fir(stage_kind, cutoff, order, x.sample_rate)
        y = apply_filter(current, h).samples
        r = current.samples - y
        if part == "A":
            denom = float(np.dot(r, r))
            alpha = float(np.dot(y, r)) / denom if denom > alpha_floor else 0.0
            np.subtract(y, alpha * r, out=component)
            passed_on = (1 + alpha) * r
        else:
            denom = float(np.dot(y, y))
            alpha = float(np.dot(r, y)) / denom if denom > alpha_floor else 0.0
            np.multiply(1 + alpha, y, out=component)
            passed_on = r - alpha * y
        current = Signal(passed_on, x.sample_rate)
    components[-1] = current.samples

    method = "causal-fir" if filtering == "causal" else f"fmd-{part}"
    return Decomposition(c0, components, method, x.sample_rate)


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
    the sum of all later components, plus sum ||c_i||^2 / ||x - c0||^2.
    An energy that overflows float64 raises.
    """
    if d.method not in ("fmd-A", "fmd-B"):
        raise ValueError(f"LINOEP verification applies to fmd decompositions, got {d.method!r}")
    comps = d.components
    # in an FMD decomposition no component or tail has more energy than
    # this, so once it is finite none of the products below overflow
    detrended_energy = finite_energy(d.reconstruct() - d.c0)
    tail = np.zeros_like(comps[0])
    crosses = np.zeros(len(comps) - 1)
    for i in range(len(comps) - 1, 0, -1):
        tail += comps[i]
        ci = comps[i - 1]
        denom = np.linalg.norm(ci) * np.linalg.norm(tail)
        crosses[i - 1] = abs(float(np.dot(ci, tail))) / denom if denom > 0 else 0.0
    component_energy = float(sum(np.dot(c, c) for c in comps))
    ratio = component_energy / detrended_energy if detrended_energy > 0 else 1.0
    return LinoepReport(crosses, ratio)
