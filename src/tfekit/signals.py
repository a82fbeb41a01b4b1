"""Signal container and synthetic test fixtures.

Everything here is a pure function on immutable inputs: generators return
fresh :class:`Signal` values and never touch shared state, so they are safe
to call from multiple threads.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Signal",
    "NoiseSpec",
    "gen_chirp",
    "gen_fm",
    "gen_delta",
    "gen_noise",
    "mix",
    "delay_pad",
    "chirp_true_if",
    "fm_true_if",
]


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real-valued sequence with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size < 2:
            raise ValueError(f"need at least 2 samples, got {samples.size}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be a positive number, got {self.sample_rate}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    @classmethod
    def _view(cls, samples: np.ndarray, sample_rate: float) -> "Signal":
        """A Signal on a read-only view of `samples`, without the copy and checks.

        For arrays already known to pass them: one-dimensional, finite
        float64, at least 2 samples, at a valid rate (a filter's own
        output, or a component a bank hands on, say).
        """
        view = samples.view()
        view.flags.writeable = False
        signal = object.__new__(cls)
        object.__setattr__(signal, "samples", view)
        object.__setattr__(signal, "sample_rate", float(sample_rate))
        return signal

    def __len__(self) -> int:
        return self.samples.size


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two 1-D arrays, the one way tfekit takes one.

    numpy's own einsum loop, with no `optimize`, which could route it
    through BLAS: its sum then does not depend on the BLAS build or its
    thread count. An overflow gives inf, with no warning.
    """
    return float(np.einsum("i,i->", a, b))


def finite_energy(samples: np.ndarray) -> float:
    """Sum of squared samples, refusing a sum that overflows float64.

    The verifiers take every energy they report on here, and the FMD ladder
    its input's, so an input too large to square fails with one clear error.
    """
    energy = _dot(samples, samples)
    if not np.isfinite(energy):
        raise ValueError("signal energy overflows float64; rescale the input")
    return energy


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of a reproducible Gaussian noise draw.

    The same seed always yields the bit-identical sequence on a given
    platform and numpy version.
    """

    seed: int
    mean: float = 0.0
    variance: float = 1.0
    length: int = field(default=1024)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if self.length < 2:
            raise ValueError("length must be at least 2 samples")


def _time_grid(duration: float, sample_rate: float) -> np.ndarray:
    if not 0 < sample_rate < np.inf:  # a NaN fails too
        raise ValueError(f"sample_rate must be a positive number, got {sample_rate}")
    if not 0 < duration < np.inf:
        raise ValueError(f"duration must be a positive number, got {duration}")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration too short for this sample rate")
    return np.arange(n) / sample_rate


def gen_chirp(
    f0: float,
    f1: float,
    duration: float,
    sample_rate: float,
    amplitude: float = 1.0,
) -> Signal:
    """Linear chirp sweeping f0 -> f1 Hz over `duration` seconds.

    Parameters
    ----------
    f0, f1 : float
        Start and end frequencies in Hz. Both must lie in [0, sample_rate/2].
    duration : float
        Length in seconds; the number of samples is round(duration * sample_rate).
    sample_rate : float
        Sample rate in Hz.
    amplitude : float
        Peak amplitude.

    Returns
    -------
    Signal
        samples[n] = amplitude * cos(2*pi*(f0*t + (f1 - f0)/(2*duration)*t^2)),
        evaluated on the exact quadratic phase polynomial, so the true
        instantaneous frequency is exactly f0 + (f1 - f0)*t/duration.
    """
    t = _time_grid(duration, sample_rate)
    nyq = sample_rate / 2
    if not (0 <= f0 <= nyq and 0 <= f1 <= nyq):
        raise ValueError(
            f"chirp endpoints [{f0}, {f1}] Hz would alias: must lie in [0, {nyq}] Hz"
        )
    phase = 2 * np.pi * (f0 * t + (f1 - f0) / (2 * duration) * t * t)
    return Signal(amplitude * np.cos(phase), sample_rate)


def chirp_true_if(f0: float, f1: float, duration: float, sample_rate: float) -> np.ndarray:
    """Ground-truth instantaneous frequency of :func:`gen_chirp`, per sample."""
    t = _time_grid(duration, sample_rate)
    return f0 + (f1 - f0) * t / duration


def gen_fm(
    fc: float,
    deviation: float,
    fm: float = 10.0,
    duration: float = 1.0,
    sample_rate: float = 8000.0,
) -> Signal:
    """Sinusoidally frequency-modulated tone.

    samples[n] = cos(2*pi*fc*t + (deviation/fm)*sin(2*pi*fm*t)), whose true
    instantaneous frequency is fc + deviation*cos(2*pi*fm*t).

    Raises
    ------
    ValueError
        If fm is not a positive number (invalid modulation rate), fc or
        deviation is not finite, or fc + deviation exceeds the Nyquist
        frequency.
    """
    t = _time_grid(duration, sample_rate)
    if not 0 < fm < np.inf:  # a NaN fails too
        raise ValueError(f"invalid modulation rate fm={fm}: must be a positive number")
    if not (np.isfinite(fc) and np.isfinite(deviation)):
        raise ValueError(f"fc and deviation must be numbers, got {fc} and {deviation}")
    if fc + deviation > sample_rate / 2:
        raise ValueError(
            f"peak frequency {fc + deviation} Hz exceeds Nyquist {sample_rate / 2} Hz"
        )
    phase = 2 * np.pi * fc * t + (deviation / fm) * np.sin(2 * np.pi * fm * t)
    return Signal(np.cos(phase), sample_rate)


def fm_true_if(
    fc: float,
    deviation: float,
    fm: float = 10.0,
    duration: float = 1.0,
    sample_rate: float = 8000.0,
) -> np.ndarray:
    """Ground-truth instantaneous frequency of :func:`gen_fm`, per sample."""
    t = _time_grid(duration, sample_rate)
    return fc + deviation * np.cos(2 * np.pi * fm * t)


def gen_delta(n0: int, length: int, sample_rate: float) -> Signal:
    """Unit sample sequence: 1 at index n0, 0 elsewhere."""
    if not 0 <= n0 < length:
        raise IndexError(f"impulse index n0={n0} outside [0, {length})")
    samples = np.zeros(length)
    samples[n0] = 1.0
    return Signal(samples, sample_rate)


def gen_noise(spec: NoiseSpec, sample_rate: float) -> Signal:
    """Seeded Gaussian noise; identical spec -> bit-identical samples."""
    rng = np.random.default_rng(spec.seed)
    samples = rng.normal(spec.mean, np.sqrt(spec.variance), spec.length)
    return Signal(samples, sample_rate)


def mix(signals: list[Signal]) -> Signal:
    """Pointwise sum of signals sharing sample rate and length."""
    if not signals:
        raise ValueError("mix needs at least one signal")
    first = signals[0]
    for s in signals[1:]:
        if s.sample_rate != first.sample_rate:
            raise ValueError(
                f"sample rate mismatch: {s.sample_rate} Hz vs {first.sample_rate} Hz"
            )
        if len(s) != len(first):
            raise ValueError(f"length mismatch: {len(s)} vs {len(first)}")
    total = np.sum([s.samples for s in signals], axis=0)
    return Signal(total, first.sample_rate)


def delay_pad(x: Signal, delay: float, total_duration: float) -> Signal:
    """Zero-pad so the waveform starts at `delay` seconds in a longer frame."""
    if not 0 <= delay < np.inf:  # a NaN fails too
        raise ValueError(f"delay must be a nonnegative number, got {delay}")
    if not np.isfinite(total_duration):
        raise ValueError(f"total_duration must be a number, got {total_duration}")
    front = int(round(delay * x.sample_rate))
    total = int(round(total_duration * x.sample_rate))
    back = total - front - len(x)
    if back < 0:
        raise ValueError(
            f"total_duration {total_duration} s too short for delay {delay} s "
            f"plus signal of {len(x) / x.sample_rate} s"
        )
    return Signal(np.concatenate([np.zeros(front), x.samples, np.zeros(back)]), x.sample_rate)
