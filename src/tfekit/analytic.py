"""Discrete analytic signal: envelope, quadrature and unwrapped phase.

The analytic signal is built spectrally (Marple, IEEE TSP 47(9), 1999):
transform, zero the negative-frequency bins, double the positive ones (DC
and, for even lengths, the Nyquist bin stay unscaled), then invert. The
real part equals the input and the imaginary part is its quadrature; kept
to a run of bins, :func:`one_sided` gives one band of the DFT filter bank.
"""

from dataclasses import dataclass

import numpy as np

from .signals import Signal

__all__ = [
    "dft",
    "idft",
    "unwrap_phase",
    "one_sided",
    "AnalyticSignal",
    "analytic_signal",
]


def dft(x) -> np.ndarray:
    """Forward transform with the 1/N factor: X[k] = (1/N) sum x[n] e^(-j2pikn/N)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("dft of empty sequence")
    return np.fft.fft(x) / x.size


def idft(spectrum) -> np.ndarray:
    """Inverse of :func:`dft` (no 1/N factor): x[n] = sum X[k] e^(+j2pikn/N)."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.size == 0:
        raise ValueError("idft of empty spectrum")
    return np.fft.ifft(spectrum) * spectrum.size


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
    """Analytic signal of the bins lo..hi of a :func:`dft` spectrum.

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
    return idft(z)


@dataclass(frozen=True)
class AnalyticSignal:
    """Per-sample envelope and unwrapped phase of a real signal.

    Attributes
    ----------
    in_phase : np.ndarray
        The original samples.
    quadrature : np.ndarray
        The quadrature (Hilbert transform) of the samples.
    envelope : np.ndarray
        sqrt(in_phase^2 + quadrature^2), nonnegative.
    phase_unwrapped : np.ndarray
        Four-quadrant arctangent of quadrature/in_phase, unwrapped, radians.
    sample_rate : float
    degenerate : bool
        True when the input was identically zero (phase defined as zero).
    """

    in_phase: np.ndarray
    quadrature: np.ndarray
    envelope: np.ndarray
    phase_unwrapped: np.ndarray
    sample_rate: float
    degenerate: bool = False

    @classmethod
    def from_sequence(cls, in_phase, z, sample_rate: float) -> "AnalyticSignal":
        """Envelope and phase of a :func:`one_sided` sequence `z` whose real part is `in_phase`."""
        quadrature = z.imag
        envelope = np.hypot(in_phase, quadrature)
        # the angle of the synthesized z, not atan2(quadrature, in_phase): where
        # the signal is exactly zero the two disagree and only the former keeps
        # the phase advancing through the gap
        phase = unwrap_phase(np.arctan2(quadrature, z.real))
        return cls(in_phase, quadrature, envelope, phase, sample_rate, not in_phase.any())


def analytic_signal(x: Signal) -> AnalyticSignal:
    """Construct the analytic signal of `x`: :func:`one_sided` on bins 0..floor(N/2).

    An all-zero input yields zero envelope and zero phase with the
    `degenerate` flag set.
    """
    z = one_sided(dft(x.samples), 0, len(x) // 2)
    return AnalyticSignal.from_sequence(x.samples, z, x.sample_rate)
