"""Discrete analytic signal: quadrature and phase increments.

The analytic signal is built spectrally (Marple, IEEE TSP 47(9), 1999):
transform, zero the negative-frequency bins, double the positive ones (DC
and, for even lengths, the Nyquist bin stay unscaled), then invert. The
real part equals the input and the imaginary part is its quadrature.
Here the real part is kept as it is and the quadrature comes from the
nonnegative bins by one real inverse transform, whose Hermitian synthesis
does the doubling. :func:`analytic_signal` gives it for a whole signal,
and the DFT filter bank for each of its bands.

An :class:`IFWorkspace` holds the N-sample arrays of the per-component IF
path (spectrum, then energies; ``z``; phase increments, then frequencies;
a mask), so that tracking many components of one length touches the same
memory instead of mapping fresh pages for every one.
"""

from dataclasses import dataclass

import numpy as np

from .signals import Signal

__all__ = [
    "IFWorkspace",
    "AnalyticSignal",
    "analytic_signal",
]


class IFWorkspace:
    """The reusable arrays of the IF path for signals of `n` samples.

    * `spectrum`: the n//2+1 bins of the real transform; once the
      quadrature is made, its memory holds the n floats of `energy`;
    * `z`: the analytic signal;
    * `frequency`: the inverse transform's output, then the phase
      increments, folded in place into the frequencies;
    * `mask`: n booleans for the folds.

    Every result built in a workspace is a view of these arrays and is
    overwritten when the workspace is used again. The arrays are made
    empty, so memory is committed only as the first use touches it.
    """

    def __init__(self, n: int):
        self.n = n
        self.spectrum = np.empty(n // 2 + 1, dtype=np.complex128)
        self.z = np.empty(n, dtype=np.complex128)
        self.frequency = np.empty(n)
        self.mask = np.empty(n, dtype=bool)

    @property
    def energy(self) -> np.ndarray:
        """n floats on the spectrum's memory (2*(n//2+1) >= n floats)."""
        return self.spectrum.view(np.float64)[: self.n]


@dataclass(frozen=True)
class AnalyticSignal:
    """An analytic sequence `z` and its sample rate.

    The real part of `z` is the signal, the imaginary part its quadrature
    (Hilbert transform), `abs(z)` its envelope. The phase increments are
    derived from `z` on demand.
    """

    z: np.ndarray
    sample_rate: float

    def increments(self) -> np.ndarray:
        """The N-1 increments of the four-quadrant phase of `z`, radians in (-pi, pi].

        Differences of `np.angle(z)` folded by +-2pi: no unwrapped phase is
        built, and the angles, unlike a product z[n+1]*conj(z[n]), neither
        underflow nor overflow at any finite amplitude.
        """
        n = self.z.size
        return self._increments_into(np.empty(n), np.empty(n, dtype=bool))

    def _increments_into(self, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """:meth:`increments` written into `out`, N floats, and returned as ``out[:-1]``.

        `out` receives the N angles, differenced in place; `mask`, N
        booleans, holds the folds' conditions.
        """
        np.arctan2(self.z.imag, self.z.real, out=out)  # np.angle(z), in place
        d = out[:-1]
        mask = mask[: d.size]
        # each angle is read before its slot is written, so no copy is made
        np.subtract(out[1:], d, out=d)
        np.subtract(d, 2 * np.pi, out=d, where=np.greater(d, np.pi, out=mask))
        np.add(d, 2 * np.pi, out=d, where=np.less_equal(d, -np.pi, out=mask))
        return d


def _check_analytic_length(n: int) -> None:
    if n < 4:
        raise ValueError(f"analytic signal needs at least 4 samples, got {n}")


def _quadrature(bins: np.ndarray, n: int, out: np.ndarray, norm: str = "backward") -> np.ndarray:
    """Quadrature of the real n-sample signal whose real transform is `bins`, into `out`.

    irfft(-j * bins) with the DC bin and, for even n, the Nyquist bin
    zeroed; irfft's Hermitian synthesis does the one-sided doubling.
    `bins`, made with `norm`, is overwritten.
    """
    _check_analytic_length(n)
    # numpy's irfft drops the imaginary part of these self-conjugate bins
    # anyway; zeroed here so the quadrature does not rest on that
    bins[0] = 0.0
    if n % 2 == 0:
        bins[-1] = 0.0
    bins *= -1j
    return np.fft.irfft(bins, n, norm=norm, out=out)


def analytic_signal(x: Signal, workspace: IFWorkspace | None = None) -> AnalyticSignal:
    """Construct the analytic signal of `x`, at least 4 samples.

    The real part is `x.samples`, bit for bit; the quadrature comes from
    one real transform pair, rfft then :func:`_quadrature`. An all-zero
    input yields an all-zero `z` and zero increments.

    The transforms run in the arrays of `workspace`, an
    :class:`IFWorkspace` of N samples, made fresh when not given: the
    result's `z` is the workspace's and holds until its next use.
    """
    samples = x.samples
    n = samples.size
    ws = IFWorkspace(n) if workspace is None else workspace
    if ws.n != n:
        raise ValueError(f"workspace is for {ws.n} samples, signal has {n}")
    # into contiguous memory first: a strided out=z.imag would be buffered
    quadrature = _quadrature(np.fft.rfft(samples, out=ws.spectrum), n, ws.frequency)
    ws.z.real = samples
    ws.z.imag = quadrature
    return AnalyticSignal(ws.z, x.sample_rate)
