"""Discrete analytic signal: quadrature and phase increments.

The analytic signal is built spectrally (Marple, IEEE TSP 47(9), 1999):
transform, zero the negative-frequency bins, double the positive ones (DC
and, for even lengths, the Nyquist bin stay unscaled), then invert. The
real part equals the input and the imaginary part is its quadrature.
Here the parts are two real arrays: the input as it is, and the quadrature
from the nonnegative bins by one real inverse transform, whose Hermitian
synthesis does the doubling. :func:`analytic_signal` gives them for a
whole signal, and the DFT filter bank for each of its bands.

An :class:`IFWorkspace` holds the arrays of the per-component IF path
(spectrum, then energies; the quadrature, then phase angles, increments
and frequencies; the folds' booleans), so that tracking many components
of one length touches the same memory instead of mapping fresh pages for
every one. Between tracks, the FIR ladder makes each stage in it, and
the DFT bank each band's quadrature and its check's transform.
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
    * `quadrature`: the analytic signal's imaginary part, then the phase
      angles, differenced and folded in place into the frequencies;
    * `folds`: the folds' n booleans, in whole floats' worth of bytes (at
      least one float); before the folds, the energy is summed a slice at
      a time through them, viewed as floats.

    Every result built in a workspace holds views of these arrays, which
    the next use of the workspace overwrites. The arrays are made empty,
    so memory is committed only as the first use touches it.
    """

    def __init__(self, n: int):
        self.n = n
        self.spectrum = np.empty(n // 2 + 1, dtype=np.complex128)
        self.quadrature = np.empty(n)
        self.folds = np.empty(n // 8 + 1).view(bool)

    @classmethod
    def _for(cls, n: int, workspace: "IFWorkspace | None") -> "IFWorkspace":
        """`workspace`, refused unless it is for `n` samples, or a fresh one when None."""
        if workspace is None:
            return cls(n)
        if workspace.n != n:
            raise ValueError(f"workspace is for {workspace.n} samples, signal has {n}")
        return workspace

    @property
    def energy(self) -> np.ndarray:
        """n floats on the spectrum's memory (2*(n//2+1) >= n floats)."""
        return self.spectrum.view(np.float64)[: self.n]


@dataclass(frozen=True)
class AnalyticSignal:
    """An analytic sequence as its two parts, `real` and `imag`, and its sample rate.

    `real` is the signal, `imag` its quadrature (Hilbert transform): two
    1-D float64 arrays of one shape; ``np.hypot(real, imag)`` is the
    envelope. The phase increments are derived from the parts on demand.
    """

    real: np.ndarray
    imag: np.ndarray
    sample_rate: float

    def __post_init__(self):
        if self.real.ndim != 1 or self.real.shape != self.imag.shape:
            raise ValueError(f"parts must be 1-D of one shape, got {self.real.shape}, {self.imag.shape}")

    def increments(self) -> np.ndarray:
        """The N-1 increments of the four-quadrant phase, radians in (-pi, pi].

        Differences of ``arctan2(imag, real)`` folded by +-2pi: no unwrapped
        phase is built, and the angles, unlike a product z[n+1]*conj(z[n]),
        neither underflow nor overflow at any finite amplitude.
        """
        n = self.real.size
        return self._increments_into(np.empty(n), np.empty(n, dtype=bool))

    def _increments_into(self, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """:meth:`increments` written into `out`, N floats, and returned as ``out[:-1]``.

        `out` receives the N angles, differenced in place; it may be `imag`
        itself. `mask`, at least N-1 booleans, holds the folds' conditions.
        """
        np.arctan2(self.imag, self.real, out=out)
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

    The real part is `x.samples` itself, read-only; the quadrature comes
    from one real transform pair, rfft then :func:`_quadrature`. An
    all-zero input yields an all-zero quadrature and zero increments.

    The transforms run in the arrays of `workspace`, an
    :class:`IFWorkspace` of N samples, made fresh when not given: the
    result's `imag` is the workspace's and holds until its next use.
    """
    n = len(x)
    ws = IFWorkspace._for(n, workspace)
    quadrature = _quadrature(np.fft.rfft(x.samples, out=ws.spectrum), n, ws.quadrature)
    return AnalyticSignal(x.samples, quadrature, x.sample_rate)
