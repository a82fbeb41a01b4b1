"""Discrete analytic signal: envelope, quadrature and phase increments.

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
    """A :func:`one_sided` sequence `z` and its sample rate.

    The real part of `z` is the signal, the imaginary part its quadrature
    (Hilbert transform). The envelope and the phase increments are derived
    from `z` on demand.
    """

    z: np.ndarray
    sample_rate: float

    @property
    def in_phase(self) -> np.ndarray:
        return self.z.real

    @property
    def quadrature(self) -> np.ndarray:
        return self.z.imag

    @property
    def envelope(self) -> np.ndarray:
        """|z|, nonnegative."""
        return np.abs(self.z)

    @property
    def degenerate(self) -> bool:
        """True when `z` is identically zero (every phase increment is then zero)."""
        return not self.z.any()

    def increments(self) -> np.ndarray:
        """The N-1 increments of the four-quadrant phase of `z`, radians in (-pi, pi].

        Differences of `np.angle(z)` folded by +-2pi: no unwrapped phase is
        built, and the angles, unlike a product z[n+1]*conj(z[n]), neither
        underflow nor overflow at any finite amplitude.
        """
        d = np.diff(np.angle(self.z))
        d[d > np.pi] -= 2 * np.pi
        d[d <= -np.pi] += 2 * np.pi
        return d


def analytic_signal(x: Signal) -> AnalyticSignal:
    """Construct the analytic signal of `x`: :func:`one_sided` on bins 0..floor(N/2).

    An all-zero input yields zero envelope and zero increments with the
    `degenerate` flag set.
    """
    return AnalyticSignal(one_sided(dft(x.samples), 0, len(x) // 2), x.sample_rate)
