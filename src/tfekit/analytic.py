"""Discrete analytic signal: quadrature and phase increments.

The analytic signal is built spectrally (Marple, IEEE TSP 47(9), 1999):
transform, zero the negative-frequency bins, double the positive ones (DC
and, for even lengths, the Nyquist bin stay unscaled), then invert. The
real part equals the input and the imaginary part is its quadrature.
Here the parts are two real arrays: the input as it is, and the quadrature
from the nonnegative bins by one real inverse transform, whose Hermitian
synthesis does the doubling. :func:`analytic_signal` gives them for a
whole signal, and the DFT filter bank for each of its bands.

An :class:`IFWorkspace` holds the N-sample arrays of the per-component IF
path (spectrum, then energies; the quadrature; phase increments, then
frequencies) and the block scratch of its branch-free folds, so that
tracking many components of one length touches the same memory instead of
mapping fresh pages for every one.
"""

from dataclasses import dataclass

import numpy as np

from .signals import Signal

__all__ = [
    "IFWorkspace",
    "AnalyticSignal",
    "analytic_signal",
]

# samples per block of the branch-free folds: their scratch holds this
# many floats and twice as many flags, never N of either
_BLOCK = 16384


def _fold_scratch(n: int) -> np.ndarray:
    """Scratch for :func:`_subtract_steps` on up to n samples: 2 x min(n, _BLOCK) floats."""
    return np.empty((2, min(max(n, 1), _BLOCK)))


def _subtract_steps(values: np.ndarray, step: float, scratch: np.ndarray,
                    above: float = np.inf, at_or_below: float = -np.inf) -> None:
    """values -= step * k in place, where k = (values > above) - (values <= at_or_below).

    Branch-free and block by block in `scratch`, from :func:`_fold_scratch`:
    both conditions as int8 flags, their difference cast to floats. Where k
    is 0 the step subtracted is +0.0, which keeps every bit, -0.0 included;
    where it is -1, subtracting -step is exactly adding step.
    """
    floats = scratch[0]
    size = floats.size
    flags = scratch[1].view(np.int8)  # 8 flags a float: room for two blocks
    k, low = flags[:size], flags[size : 2 * size]
    for start in range(0, values.size, size):
        block = values[start : start + size]
        m = block.size
        np.greater(block, above, out=k[:m].view(bool))
        np.less_equal(block, at_or_below, out=low[:m].view(bool))
        np.subtract(k[:m], low[:m], out=k[:m])
        shift = floats[:m]
        np.copyto(shift, k[:m])
        shift *= step
        block -= shift


class IFWorkspace:
    """The reusable arrays of the IF path for signals of `n` samples.

    * `spectrum`: the n//2+1 bins of the real transform; once the
      quadrature is made, its memory holds the n floats of `energy`;
    * `quadrature`: the analytic signal's imaginary part;
    * `frequency`: the squared quadrature, then the phase increments,
      folded in place into the frequencies;
    * `scratch`: the folds' block scratch, 2 x min(n, 16384) floats.

    Every result built in a workspace holds views of these arrays, which
    the next use of the workspace overwrites. The arrays are made empty,
    so memory is committed only as the first use touches it.
    """

    def __init__(self, n: int):
        self.n = n
        self.spectrum = np.empty(n // 2 + 1, dtype=np.complex128)
        self.quadrature = np.empty(n)
        self.frequency = np.empty(n)
        self.scratch = _fold_scratch(n)

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
        return self._increments_into(np.empty(n), _fold_scratch(n))

    def _increments_into(self, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """:meth:`increments` written into `out`, N floats, and returned as ``out[:-1]``.

        `out` receives the N angles, differenced in place; `scratch`, from
        :func:`_fold_scratch`, serves the +-2pi folds.
        """
        np.arctan2(self.imag, self.real, out=out)
        d = out[:-1]
        # each angle is read before its slot is written, so no copy is made
        np.subtract(out[1:], d, out=d)
        _subtract_steps(d, 2 * np.pi, scratch, above=np.pi, at_or_below=-np.pi)
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
    ws = IFWorkspace(n) if workspace is None else workspace
    if ws.n != n:
        raise ValueError(f"workspace is for {ws.n} samples, signal has {n}")
    quadrature = _quadrature(np.fft.rfft(x.samples, out=ws.spectrum), n, ws.quadrature)
    return AnalyticSignal(x.samples, quadrature, x.sample_rate)
