"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's own code paths: transforms by
direct O(N^2) summation, angle wrapping through the complex exponential,
quadrature by truncated-kernel convolution.
"""

import numpy as np


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
