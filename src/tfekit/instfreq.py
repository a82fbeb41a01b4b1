"""Instantaneous-frequency estimation.

Two estimators share one pipeline (analytic signal -> phase increments ->
finite difference -> Hz scaling):

* the conventional estimator keeps the raw phase derivative and can go
  negative on multicomponent signals;
* the always-positive estimator folds negative derivatives back into
  [0, pi] rad/sample by adding the integer multiple of pi that the
  multivalued inverse tangent permits, so every emitted frequency lies
  in [0, sample_rate/2].
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import AnalyticSignal, analytic_signal
from .signals import Signal

__all__ = [
    "DiffScheme",
    "phase_diff",
    "conventional_if",
    "positive_if",
    "IFTrack",
    "if_track",
]


class DiffScheme(Enum):
    """Finite-difference scheme for the phase derivative."""

    FORWARD = "forward"
    BACKWARD = "backward"
    CENTRAL = "central"


def phase_diff(increments, scheme: DiffScheme = DiffScheme.FORWARD) -> np.ndarray:
    """Per-sample phase derivative in rad/sample from the N-1 phase increments.

    `increments[n]` is the phase advance from sample n to n+1, as
    :meth:`AnalyticSignal.increments` gives it. Forward differences place
    it at sample n, backward at n+1, central averages the two increments
    around each sample. The result has N samples; boundary samples the
    scheme cannot compute repeat the nearest computed one.
    """
    d = np.asarray(increments, dtype=np.float64)
    scheme = DiffScheme(scheme)
    min_len = 2 if scheme is DiffScheme.CENTRAL else 1
    if d.size < min_len:
        raise ValueError(f"{scheme.value} differencing needs >= {min_len} increments, got {d.size}")
    if scheme is DiffScheme.FORWARD:
        return np.concatenate([d, d[-1:]])
    if scheme is DiffScheme.BACKWARD:
        return np.concatenate([d[:1], d])
    mid = (d[:-1] + d[1:]) / 2
    return np.concatenate([mid[:1], mid, mid[-1:]])


def conventional_if(diffs, sample_rate: float) -> np.ndarray:
    """Raw phase derivative scaled to Hz; may be negative.

    Kept as the contrast baseline: f[n] = diffs[n] * sample_rate / (2*pi).
    """
    return np.asarray(diffs, dtype=np.float64) * (sample_rate / (2 * np.pi))


def positive_if(diffs, sample_rate: float) -> np.ndarray:
    """Always-positive instantaneous frequency in Hz.

    `diffs` are phase derivatives in [-pi, pi] rad/sample, as
    :func:`phase_diff` gives them. Negative ones get +pi, landing every
    sample in [0, pi]; a Nyquist tone's pi stays pi and reads sample_rate/2
    (the cap guards against one-ulp scaling overshoot).
    """
    d = np.asarray(diffs, dtype=np.float64)
    if d.size and not (-np.pi <= d.min() and d.max() <= np.pi):  # a NaN fails both
        raise ValueError("phase differences must be finite and within [-pi, pi]")
    # pi where d < 0, else -0.0, which adds to any d (a -0.0 too) without change
    omega = np.where(d < 0, np.pi, -0.0)
    omega += d
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
        if not np.all(np.isfinite(e)):
            raise ValueError("energy must be finite; an envelope above ~1e154 overflows its square")
        if np.any(e < 0):
            raise ValueError("energy must be nonnegative")
        object.__setattr__(self, "frequency_hz", f)
        object.__setattr__(self, "energy", e)

    def __len__(self) -> int:
        return self.frequency_hz.size

    @property
    def negative_fraction(self) -> float:
        """Fraction of samples with negative frequency (conventional mode diagnostic)."""
        return float(np.mean(self.frequency_hz < 0))


def if_track(
    x: Signal | AnalyticSignal,
    scheme: DiffScheme = DiffScheme.FORWARD,
    mode: str = "positive",
) -> IFTrack:
    """Estimate the instantaneous-frequency track of a signal.

    Parameters
    ----------
    x : Signal or AnalyticSignal
        Input, at least 4 samples, or its analytic signal already built (as
        `dft_decompose` hands each band to its consumer).
    scheme : DiffScheme
        Finite-difference scheme for the phase derivative (default FORWARD).
    mode : {'positive', 'conventional'}
        'positive' applies the fold into [0, Fs/2]; 'conventional' keeps the
        sign-indefinite raw derivative.

    Returns
    -------
    IFTrack
        Frequencies in Hz and per-sample energy envelope^2, same length as x.
    """
    if mode not in ("positive", "conventional"):
        raise ValueError(f"mode must be 'positive' or 'conventional', got {mode!r}")
    a = x if isinstance(x, AnalyticSignal) else analytic_signal(x)
    d = phase_diff(a.increments(), scheme)
    if mode == "positive":
        freq = positive_if(d, x.sample_rate)
    else:
        freq = conventional_if(d, x.sample_rate)
    with np.errstate(over="ignore"):  # IFTrack refuses the inf energy
        energy = a.z.real**2 + a.z.imag**2
    return IFTrack(freq, energy, x.sample_rate)
