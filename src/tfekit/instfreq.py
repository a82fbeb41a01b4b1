"""Instantaneous-frequency estimation.

Two estimators share one pipeline (analytic signal -> unwrapped phase ->
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

from .analytic import analytic_signal
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


def phase_diff(phase_unwrapped, scheme: DiffScheme = DiffScheme.FORWARD) -> np.ndarray:
    """Per-sample phase increments in rad/sample, same length as the input.

    Boundary samples that the scheme cannot compute are filled by
    duplicating the nearest computed difference.
    """
    phase = np.asarray(phase_unwrapped, dtype=np.float64)
    scheme = DiffScheme(scheme)
    min_len = 3 if scheme is DiffScheme.CENTRAL else 2
    if phase.size < min_len:
        raise ValueError(f"{scheme.value} differencing needs >= {min_len} samples, got {phase.size}")
    out = np.empty_like(phase)
    if scheme is DiffScheme.FORWARD:
        out[:-1] = phase[1:] - phase[:-1]
        out[-1] = out[-2]
    elif scheme is DiffScheme.BACKWARD:
        out[1:] = phase[1:] - phase[:-1]
        out[0] = out[1]
    else:
        out[1:-1] = (phase[2:] - phase[:-2]) / 2
        out[0] = out[1]
        out[-1] = out[-2]
    return out


def conventional_if(diffs, sample_rate: float) -> np.ndarray:
    """Raw phase derivative scaled to Hz; may be negative.

    Kept as the contrast baseline: f[n] = diffs[n] * sample_rate / (2*pi).
    """
    return np.asarray(diffs, dtype=np.float64) * (sample_rate / (2 * np.pi))


def positive_if(diffs, sample_rate: float) -> np.ndarray:
    """Always-positive instantaneous frequency in Hz.

    Negative increments get +pi; anything still outside [0, pi] rad/sample
    (possible for averaged central differences) is folded by the integer
    multiple of pi that lands it inside. Output is clipped to
    [0, sample_rate/2] to guard against one-ulp scaling overshoot.
    """
    d = np.asarray(diffs, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError("phase differences must be finite")
    omega = np.where(d >= 0, d, d + np.pi)
    outside = (omega < 0) | (omega > np.pi)
    if np.any(outside):
        omega = np.where(outside, omega - np.pi * np.floor(omega / np.pi), omega)
    return np.clip(omega * (sample_rate / (2 * np.pi)), 0.0, sample_rate / 2)


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
    x: Signal,
    scheme: DiffScheme = DiffScheme.FORWARD,
    mode: str = "positive",
) -> IFTrack:
    """Estimate the instantaneous-frequency track of a signal.

    Parameters
    ----------
    x : Signal
        Input, at least 4 samples.
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
    a = analytic_signal(x)
    d = phase_diff(a.phase_unwrapped, scheme)
    if mode == "positive":
        freq = positive_if(d, x.sample_rate)
    else:
        freq = conventional_if(d, x.sample_rate)
    with np.errstate(over="ignore"):  # IFTrack refuses the inf energy
        energy = a.envelope**2
    return IFTrack(freq, energy, x.sample_rate)
