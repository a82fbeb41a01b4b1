"""Discrete analytic signal: envelope, quadrature and unwrapped phase.

The analytic signal is built spectrally: transform, zero the
negative-frequency bins, double the positive ones (DC and, for even
lengths, the Nyquist bin stay unscaled), then invert. The real part of
the result equals the input, the imaginary part is the quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .signals import Signal

__all__ = [
    "dft",
    "idft",
    "unwrap_phase",
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


def analytic_signal(x: Signal) -> AnalyticSignal:
    """Construct the analytic signal of `x` by spectral one-siding.

    Notes
    -----
    With N samples the one-sided spectrum keeps bin 0 as is, doubles bins
    1..ceil(N/2)-1, keeps the Nyquist bin (even N only) unscaled and zeroes
    the rest. An all-zero input yields zero envelope and zero phase with
    the `degenerate` flag set.
    """
    n = len(x)
    if n < 4:
        raise ValueError(f"analytic signal needs at least 4 samples, got {n}")
    if not x.samples.any():
        zeros = np.zeros(n)
        return AnalyticSignal(x.samples, zeros, zeros.copy(), zeros.copy(),
                              x.sample_rate, degenerate=True)
    spectrum = dft(x.samples)
    one_sided = np.zeros(n, dtype=np.complex128)
    half = n // 2
    one_sided[0] = spectrum[0]
    if n % 2 == 0:
        one_sided[1:half] = 2 * spectrum[1:half]
        one_sided[half] = spectrum[half]
    else:
        one_sided[1 : half + 1] = 2 * spectrum[1 : half + 1]
    z = idft(one_sided)
    quadrature = z.imag
    envelope = np.hypot(x.samples, quadrature)
    # the angle of the synthesized z, not atan2(quadrature, x): where the
    # signal is exactly zero the two disagree and only the former keeps the
    # phase advancing through the gap
    phase = unwrap_phase(np.arctan2(quadrature, z.real))
    return AnalyticSignal(x.samples, quadrature, envelope, phase, x.sample_rate)

