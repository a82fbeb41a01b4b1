"""Instantaneous-frequency estimation.

Two estimators share one pipeline (analytic signal -> phase increments ->
finite difference -> Hz scaling):

* the conventional estimator keeps the raw phase derivative and can go
  negative on multicomponent signals;
* the always-positive estimator folds negative derivatives back into
  [0, pi] rad/sample by adding the integer multiple of pi that the
  multivalued inverse tangent permits, so every emitted frequency lies
  in [0, sample_rate/2].

Each public step returns a fresh array; :func:`if_track` runs the same
steps in place, through private `_..._into` forms, in the arrays of one
:class:`IFWorkspace`, and allocates nothing per sample.
"""

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticSignal, IFWorkspace, analytic_signal
from .signals import Signal, _check_word

# samples whose signs IFTrack.negative_fraction tests at a time: a 64 KB
# boolean temporary, not one byte per sample of the track
_COUNT_SLICE = 65536

# the finite-difference schemes and the IF modes, the words each setting takes
SCHEMES = ("forward", "backward", "central")
MODES = ("positive", "conventional")

__all__ = [
    "phase_diff",
    "conventional_if",
    "positive_if",
    "IFTrack",
    "if_track",
]


def phase_diff(increments, scheme: str = "forward") -> np.ndarray:
    """Per-sample phase derivative in rad/sample from the N-1 phase increments.

    `increments[n]` is the phase advance from sample n to n+1, as
    :meth:`AnalyticSignal.increments` gives it. `scheme` is one of
    :data:`SCHEMES`: forward differences place it at sample n, backward at
    n+1, central averages the two increments around each sample. The
    result has N samples; boundary samples the scheme cannot compute
    repeat the nearest computed one.
    """
    _check_word("scheme", scheme, SCHEMES)
    d = np.asarray(increments, dtype=np.float64)
    return _phase_diff_into(d, scheme, np.empty(d.size + 1))


def _phase_diff_into(d: np.ndarray, scheme: str, out: np.ndarray) -> np.ndarray:
    """:func:`phase_diff` of the increments `d` written into `out`, N floats.

    `d` may be ``out[:-1]``, where :meth:`AnalyticSignal._increments_into`
    leaves the increments; they are then overwritten in place.
    """
    min_len = 2 if scheme == "central" else 1
    if d.size < min_len:
        raise ValueError(f"{scheme} differencing needs >= {min_len} increments, got {d.size}")
    if scheme == "forward":
        out[:-1] = d
        out[-1] = out[-2]
    elif scheme == "backward":
        out[1:] = d
        out[0] = out[1]
    else:
        # the averages land in out[:-2], then shift right by one: with d at
        # out[:-1], each step reads its slots before it writes them
        mid = out[:-2]
        np.add(d[:-1], d[1:], out=mid)
        mid /= 2
        out[1:-1] = mid
        out[0] = out[1]
        out[-1] = out[-2]
    return out


def conventional_if(diffs, sample_rate: float) -> np.ndarray:
    """Raw phase derivative scaled to Hz; may be negative.

    Kept as the contrast baseline: f[n] = diffs[n] * sample_rate / (2*pi).
    """
    return _conventional_if_into(np.array(diffs, dtype=np.float64), sample_rate)


def _conventional_if_into(omega: np.ndarray, sample_rate: float) -> np.ndarray:
    """:func:`conventional_if` in place: the derivatives `omega` become Hz."""
    omega *= sample_rate / (2 * np.pi)
    return omega


def positive_if(diffs, sample_rate: float) -> np.ndarray:
    """Always-positive instantaneous frequency in Hz.

    `diffs` are phase derivatives in [-pi, pi] rad/sample, as
    :func:`phase_diff` gives them. Negative ones get +pi, landing every
    sample in [0, pi]; a Nyquist tone's pi stays pi and reads sample_rate/2
    (the cap guards against one-ulp scaling overshoot).
    """
    omega = np.array(diffs, dtype=np.float64)
    return _positive_if_into(omega, sample_rate, np.empty(omega.shape, dtype=bool))


def _positive_if_into(omega: np.ndarray, sample_rate: float, mask: np.ndarray) -> np.ndarray:
    """:func:`positive_if` in place: the derivatives `omega` become Hz.

    `mask`, as many booleans, marks the folded samples.
    """
    if omega.size and not (-np.pi <= omega.min() and omega.max() <= np.pi):  # a NaN fails both
        raise ValueError("phase differences must be finite and within [-pi, pi]")
    # +pi on the negative samples; the others keep their bits, a -0.0 too
    np.add(omega, np.pi, out=omega, where=np.less(omega, 0, out=mask))
    scale = sample_rate / (2 * np.pi)
    omega *= scale
    # rounding is monotone and omega <= pi, so only pi * scale can overshoot
    if np.pi * scale > sample_rate / 2:
        np.minimum(omega, sample_rate / 2, out=omega)
    return omega


@dataclass(frozen=True)
class IFTrack:
    """Per-sample instantaneous frequency (Hz) paired with energy a^2[n]."""

    frequency_hz: np.ndarray
    energy: np.ndarray
    sample_rate: float

    def __post_init__(self):
        f = np.asarray(self.frequency_hz, dtype=np.float64)
        e = np.asarray(self.energy, dtype=np.float64)
        if f.size != e.size:
            raise ValueError(f"frequency/energy length mismatch: {f.size} vs {e.size}")
        # min and max, not elementwise tests: no temporary per sample;
        # a NaN fails every comparison
        lo, hi = (e.min(), e.max()) if e.size else (0.0, 0.0)
        if not (-np.inf < lo and hi < np.inf):
            raise ValueError("energy must be finite; an envelope above ~1e154 overflows its square")
        if lo < 0:
            raise ValueError("energy must be nonnegative")
        object.__setattr__(self, "frequency_hz", f)
        object.__setattr__(self, "energy", e)

    def __len__(self) -> int:
        return self.frequency_hz.size

    @property
    def negative_fraction(self) -> float:
        """Fraction of samples with negative frequency (conventional mode diagnostic).

        The negatives are counted a slice at a time, so no per-sample
        temporary is made; the exact count over N is np.mean's value.
        """
        f = self.frequency_hz
        negatives = sum(int(np.count_nonzero(f[start : start + _COUNT_SLICE] < 0))
                        for start in range(0, f.size, _COUNT_SLICE))
        return negatives / f.size if f.size else float("nan")


def if_track(
    x: Signal | AnalyticSignal,
    scheme: str = "forward",
    mode: str = "positive",
    workspace: IFWorkspace | None = None,
) -> IFTrack:
    """Estimate the instantaneous-frequency track of a signal.

    Parameters
    ----------
    x : Signal or AnalyticSignal
        Input, at least 4 samples, or its analytic signal, whose two real
        parts are read in place (as a DFT band's `band()` makes it).
    scheme : {'forward', 'backward', 'central'}
        Finite-difference scheme for the phase derivative, one of
        :data:`SCHEMES`.
    mode : {'positive', 'conventional'}
        'positive' applies the fold into [0, Fs/2]; 'conventional' keeps the
        sign-indefinite raw derivative.
    workspace : IFWorkspace, optional
        Arrays for x's length to compute in; a fresh one is made when not
        given. A caller tracking many components of one length passes one
        workspace to every call, so no call maps new memory, and may hand
        the same workspace to :func:`fmd_decompose` for its stages. The
        energy goes into the spectrum's memory and the frequencies into
        the quadrature's; an AnalyticSignal's own parts are only read.

    Returns
    -------
    IFTrack
        Frequencies in Hz and per-sample energy envelope^2, same length as
        x. Its arrays are the workspace's: a track made in a shared
        workspace holds only until the next call with that workspace, so
        copy what must outlive it.

    Raises
    ------
    ValueError
        When `scheme` or `mode` is not one of its words, or the energy is
        not finite: an envelope above ~1e154, or an input too large to
        transform. It is raised before any phase is taken, and numpy warns
        of nothing on the way.
    """
    _check_word("scheme", scheme, SCHEMES)
    _check_word("mode", mode, MODES)
    n = x.real.size if isinstance(x, AnalyticSignal) else len(x)
    ws = IFWorkspace._for(n, workspace)
    # the energy first, in the spectrum's memory, while the quadrature is
    # whole; its squares a slice at a time in the folds' bytes
    energy = ws.energy
    squares = ws.folds.view(np.float64)
    # an input too large to transform has non-finite parts, and an envelope
    # above ~1e154 an inf square: the track refuses either by its energy
    with np.errstate(over="ignore", invalid="ignore"):
        a = x if isinstance(x, AnalyticSignal) else analytic_signal(x, ws)
        np.square(a.real, out=energy)
        for start in range(0, n, squares.size):
            part = energy[start : start + squares.size]
            part += np.square(a.imag[start : start + part.size], out=squares[: part.size])
    # the track is made here, so its energy is checked before any phase;
    # its frequencies are then made in place in the array it holds
    track = IFTrack(ws.quadrature, energy, x.sample_rate)
    # the angles over the workspace's quadrature, which may be `a.imag` itself
    mask = ws.folds[:n]
    d = _phase_diff_into(a._increments_into(ws.quadrature, mask), scheme, ws.quadrature)
    if mode == "positive":
        _positive_if_into(d, x.sample_rate, mask)
    else:
        _conventional_if_into(d, x.sample_rate)
    return track
