"""Zero-phase spectral filter bank.

A band plan partitions the nonnegative DFT bins 1..K_M into M contiguous
runs; bin 0 (the mean) is routed to the separate c0 term. A real inverse
transform of a band's bins gives its component, exactly zero-phase, and,
when the band is tracked, the analytic signal's quadrature step gives its
quadrature; components are mutually orthogonal with disjoint support.

Both banks, this one and the FIR ladder of :mod:`tfekit.fmd`, stream the
same way. A bank yields (component, band, *what its check takes) per
component, and :func:`_drive`, their one loop, adds each component to the
check, hands it to the consumer and finishes the check into a
:class:`Decomposition`. :func:`dft_decompose` runs the bank inside the
consumer's :class:`IFWorkspace`: each band's quadrature is made in the
workspace's quadrature and the check's measuring transform in its
spectrum, so a band costs no N-sample array of its own.
"""

import functools
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analytic import AnalyticSignal, IFWorkspace, _check_analytic_length, _quadrature
from .signals import Signal, _dot, finite_energy

__all__ = [
    "BandSpec",
    "Decomposition",
    "dft_decompose",
    "OrthogonalityReport",
]


def _check_cutoffs(cutoffs_hz, sample_rate: float) -> list[float]:
    """Cutoffs in Hz as floats: finite, positive, strictly increasing, the last at Nyquist."""
    cutoffs = [float(c) for c in cutoffs_hz]
    if not cutoffs:
        raise ValueError("need at least one cutoff")
    for c in cutoffs:
        if not np.isfinite(c):
            raise ValueError(f"cutoffs must be finite, got {c}")
    if cutoffs[0] <= 0:
        raise ValueError(f"cutoffs must be positive, got {cutoffs[0]}")
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")
    nyq = sample_rate / 2
    if cutoffs[-1] > nyq * (1 + 1e-12):
        raise ValueError(f"cutoff {cutoffs[-1]} Hz above Nyquist {nyq} Hz")
    if abs(cutoffs[-1] - nyq) > 1e-12 * max(1.0, nyq):
        raise ValueError(f"last cutoff must equal Nyquist ({nyq} Hz), got {cutoffs[-1]}")
    return cutoffs


@dataclass(frozen=True)
class BandSpec:
    """A band plan independent of signal length: M uniform bands or custom cutoffs.

    Exactly one of `bands` and `cutoffs_hz` is set. Custom cutoffs are in
    Hz, the last at Nyquist; both methods check them the same way, once a
    sample rate is known. The JSON document form is
    {"type": "uniform", "bands": M} or {"type": "custom", "cutoffs_hz": [...]}.
    """

    bands: int | None = None
    cutoffs_hz: tuple | None = None

    def __post_init__(self):
        if (self.bands is None) == (self.cutoffs_hz is None):
            raise ValueError("a band spec needs exactly one of bands or cutoffs_hz")
        bands = self.bands
        if bands is not None and (isinstance(bands, bool) or not isinstance(bands, numbers.Integral)
                                  or bands < 1):
            raise ValueError(f"bands must be a positive integer, got {bands!r}")
        if self.cutoffs_hz is not None:
            if not isinstance(self.cutoffs_hz, (list, tuple, np.ndarray)) or any(
                    isinstance(c, bool) or not isinstance(c, numbers.Real) for c in self.cutoffs_hz):
                raise ValueError(f"cutoffs must be a list of numbers, got {self.cutoffs_hz!r}")
            object.__setattr__(self, "cutoffs_hz", tuple(float(c) for c in self.cutoffs_hz))

    @classmethod
    def from_settings(cls, bands=None, cutoffs=None, plan=None) -> "BandSpec | None":
        """The spec given by at most one of three settings, or None if none is set.

        `bands` is a uniform band count; `cutoffs` a sequence of cutoffs or
        a comma-separated string of them; `plan` a JSON document, given
        as a dict or as the path of a file holding it.
        """
        # None and "" (an empty flag) are unset; any other value, 0 and [] too, is checked
        given = [k for k, v in (("bands", bands), ("cutoffs", cutoffs), ("plan", plan))
                 if v is not None and not (isinstance(v, str) and v == "")]
        if len(given) > 1:
            raise ValueError(f"give only one of --bands/--cutoffs/--plan, got {given}")
        if not given:
            return None
        if given == ["bands"]:
            return cls(bands=bands)
        if given == ["cutoffs"]:
            if isinstance(cutoffs, str):
                cutoffs = [float(c) for c in cutoffs.split(",") if c.strip()]
            return cls(cutoffs_hz=cutoffs)
        if not isinstance(plan, str):
            return cls._from_document(plan)
        try:
            return cls._from_document(json.loads(Path(plan).read_text()))
        except ValueError as exc:  # malformed JSON included
            raise ValueError(f"{plan}: {exc}") from None

    @classmethod
    def _from_document(cls, doc) -> "BandSpec":
        if not isinstance(doc, dict) or doc.get("type") not in ("uniform", "custom"):
            raise ValueError("band plan document must be an object with type 'uniform' or 'custom'")
        if doc["type"] == "uniform":
            if "bands" not in doc:
                raise ValueError("uniform band plan needs a 'bands' count")
            return cls(bands=doc["bands"])
        if "cutoffs_hz" not in doc:
            raise ValueError("custom band plan needs 'cutoffs_hz'")
        return cls(cutoffs_hz=doc["cutoffs_hz"])

    def plan(self, signal_length: int, sample_rate: float) -> tuple[int, ...]:
        """DFT bin boundaries (0, K_1, ..., floor(N/2)) for a signal of this length and rate.

        Band i (0-based) covers bins K_i+1 .. K_{i+1} plus their mirrors.
        Uniform bands differ by at most one bin and may not outnumber the
        floor(N/2) non-DC bins. Custom cutoffs map to bins by round-half-up,
        K_i = floor(c*N/Fs + 0.5), so a cutoff landing between bins belongs
        to the lower band; cutoffs that collapse a band to zero bins are
        rejected.
        """
        top = signal_length // 2
        if self.bands is not None:
            if self.bands > top:
                raise ValueError(
                    f"n_bands must be in [1, {top}] for length {signal_length}, got {self.bands}"
                )
            return tuple((i * top) // self.bands for i in range(self.bands + 1))
        bounds = [0]
        for c in _check_cutoffs(self.cutoffs_hz, sample_rate):
            k = min(int(np.floor(c * signal_length / sample_rate + 0.5)), top)
            if k <= bounds[-1]:
                raise ValueError(
                    f"cutoff {c} Hz collapses a band to zero bins "
                    f"(bin {k} after {bounds[-1]}); merge or widen the bands"
                )
            bounds.append(k)
        return tuple(bounds)

    def ladder(self, sample_rate: float) -> list[float]:
        """Interior FIR cutoffs in Hz, increasing: M bands need M-1."""
        if self.bands is not None:
            return [i * (sample_rate / 2) / self.bands for i in range(1, self.bands)]
        return _check_cutoffs(self.cutoffs_hz, sample_rate)[:-1]


class Decomposition(NamedTuple):
    """What a decomposition returns once it has handed on every component.

    `c0` is the mean term, `reconstruction` c0 + the sum of the components
    (an N-float array) and `report` the check's report: an
    :class:`OrthogonalityReport` for the DFT bank, a
    :class:`tfekit.fmd.LinoepReport` for 'fmd-a' and 'fmd-b', None for
    'causal-fir'.
    """

    c0: float
    reconstruction: np.ndarray
    report: object


def _check_boundaries(boundaries, n: int) -> tuple[int, ...]:
    """Bin boundaries 0 = K_0 < K_1 < ... < K_M = floor(n/2) as a tuple of ints."""
    bounds = tuple(int(b) for b in boundaries)
    if len(bounds) < 2 or bounds[0] != 0:
        raise ValueError("boundaries must start at 0 and define at least one band")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"boundaries must be strictly increasing, got {bounds}")
    if bounds[-1] != n // 2:
        raise ValueError(f"last boundary must be {n // 2} for length {n}, got {bounds[-1]}")
    return bounds


class _DFTBank:
    """The zero-phase DFT bank of one signal: one forward transform, then its bands one at a time.

    `c0` is the DC bin (the sample mean) and `boundaries` the checked bin
    boundaries; :meth:`bands` is the bank's one synthesis loop. The full
    complex transform is taken, since c0's bits are its DC bin's, but only
    the n//2+1 nonnegative bins that the bands read are kept.
    """

    def __init__(self, x: Signal, boundaries):
        self.n = n = len(x)
        _check_analytic_length(n)
        self.boundaries = _check_boundaries(boundaries, n)
        self.sample_rate = x.sample_rate
        spectrum = np.fft.fft(x.samples, norm="forward")
        self.c0 = float(spectrum[0].real)
        self._spectrum = spectrum[: n // 2 + 1].copy()

    def bands(self, row: np.ndarray, workspace: IFWorkspace):
        """Make each band's component, in order, in the N-float array `row`.

        Yields (component, band, lo, hi) per band, which covers bins
        lo+1 .. hi. The component is a read-only view of the real inverse
        transform of those bins; `band()` makes the band's
        :class:`AnalyticSignal`, the component and its quadrature, made in
        `workspace.quadrature`, where :func:`if_track` folds it in place.
        The first call makes it and later ones return the same object; it
        holds until the next band is made or the workspace is used again.
        """
        n = self.n
        bins = np.zeros(n // 2 + 1, dtype=np.complex128)
        for lo, hi in zip(self.boundaries[:-1], self.boundaries[1:]):
            band = slice(lo + 1, hi + 1)
            bins[band] = self._spectrum[band]
            component = np.fft.irfft(bins, n, norm="forward", out=row).view()
            component.flags.writeable = False
            # made once: _quadrature overwrites the band's bins
            analytic = functools.cache(lambda real=component: AnalyticSignal(
                real, _quadrature(bins, n, workspace.quadrature, "forward"), self.sample_rate))
            yield component, analytic, lo, hi
            bins[band] = 0.0


def _drive(stages, check, c0: float, consumer):
    """Hand each component of a bank's `stages` to `consumer`, checked; finish the check.

    `stages` yields (component, band, *args) per component, as
    :meth:`_DFTBank.bands` and :func:`tfekit.fmd._ladder` do: `check` takes
    ``check.add(component, *args)`` before ``consumer(component, band)`` is
    called, and the component and what `band()` makes hold only until the
    consumer returns. Returns the :class:`Decomposition` of c0 and what
    ``check.finish(c0)`` gives: the reconstruction and the report.
    """
    for component, band, *args in stages:
        check.add(component, *args)
        consumer(component, band)
    return Decomposition(c0, *check.finish(c0))


def dft_decompose(x: Signal, boundaries, consumer,
                  workspace: IFWorkspace | None = None) -> Decomposition:
    """Split a signal into zero-phase spectral band components, handing each on as it is made.

    `boundaries` are the bin boundaries K_0 = 0 < K_1 < ... < K_M = floor(N/2)
    of M bands, as :meth:`BandSpec.plan` gives them: band i (0-based) covers
    bins K_i+1 .. K_{i+1}. Each component is the real inverse transform of
    its bins of the input spectrum; c0 is the DC bin (the sample mean). The
    spectrum is computed once and the bands are made one at a time, each
    in one reused N-float array. Signals under 4 samples are refused, and
    an input whose energy overflows float64 raises before any band is made.

    Each band is taken in by :class:`_BandCheck` and passed to
    ``consumer(component, band)``: a read-only view of the component and a
    function that makes the band's :class:`AnalyticSignal` in the
    quadrature of `workspace`, an :class:`IFWorkspace` of the signal's
    length (a fresh one when not given), whose spectrum takes the check's
    transform; later calls return the same object. Both hold until the
    consumer returns. Nothing is collected: the call returns the
    :class:`Decomposition` of c0, the reconstruction and the
    :class:`OrthogonalityReport`.
    """
    finite_energy(x.samples)  # the overflow the check would report, before any band is made
    bank = _DFTBank(x, boundaries)
    ws = IFWorkspace._for(bank.n, workspace)
    stages = bank.bands(np.empty(bank.n), ws)
    return _drive(stages, _BandCheck(bank.n, ws.spectrum), bank.c0, consumer)


@dataclass(frozen=True)
class OrthogonalityReport:
    """Orthogonality and energy-preservation summary.

    `max_normalized_cross` bounds max over pairs of |<y_i, y_l>| / (||y_i|| ||y_l||)
    from above (:class:`_BandCheck` says how); `energy_ratio` is
    (sum ||y_i||^2 + N*c0^2) / ||x||^2.
    """

    max_normalized_cross: float
    energy_ratio: float


class _BandCheck:
    """The checks of a DFT bank's components, added one band at a time in O(N) memory.

    Keeps the running sum of the components, each one's energy and its
    leakage, and no component. A component of band (lo, hi) should hold
    only bins lo+1 .. hi. Its leakage is eps = sqrt(out-of-band power /
    total power): one real transform gives the out-of-band bins, summed
    with Parseval's weights (1 for DC and the even-N Nyquist bin, 2
    elsewhere), and the total is the component's energy. By
    Cauchy-Schwarz, |<y_i, y_l>| <= (eps_i + eps_l) ||y_i|| ||y_l|| for
    bands on disjoint bins, so the two largest leakages bound every
    pairwise figure. Each leakage adds the measuring transform's own
    rounding, :func:`_fft_rounding`, since that transform may hide at most
    that much out-of-band power.

    The measuring transform's n//2+1 bins go into `spectrum`:
    :func:`dft_decompose` passes its IF workspace's, which is free while a
    band is checked, since the band's track lands there only afterwards.
    """

    def __init__(self, n: int, spectrum: np.ndarray):
        self.n = n
        self._total = np.zeros(n)
        self._spectrum = spectrum
        self._rounding = _fft_rounding(n)
        self._energies = []
        self._leakages = []

    def add(self, component: np.ndarray, lo: int, hi: int) -> None:
        """Check band (lo, hi)'s component: its energy, its leakage; add it to the sum."""
        n = self.n
        energy = finite_energy(component)
        # re, im pairs; with "forward" scaling Parseval's weighted sum of
        # |Y_k|^2 is the energy / n, so no square overflows a finite energy
        power = np.fft.rfft(component, norm="forward", out=self._spectrum).view(np.float64)
        top = n // 2 if n % 2 == 0 else n // 2 + 1  # the bins of weight 2 end before it

        def bins(a, b):  # sum of |Y_k|^2 over bins a .. b-1
            return _dot(power[2 * a : 2 * b], power[2 * a : 2 * b])

        outside = bins(0, 1) + 2 * (bins(1, lo + 1) + bins(hi + 1, top))
        if hi < n // 2:
            outside += bins(top, n // 2 + 1)  # the even-N Nyquist bin, of weight 1
        self._total += component
        self._energies.append(energy)
        # a zero-energy band contributes nothing
        leakage = np.sqrt(n * outside / energy) + self._rounding if energy > 0 else 0.0
        self._leakages.append(float(leakage))

    def finish(self, c0: float) -> tuple[np.ndarray, OrthogonalityReport]:
        """The reconstruction c0 + sum of the components, in the sum's memory, and the report.

        An energy that overflows float64 raises; the ratio is 1 when the
        reconstruction has zero energy.
        """
        x = np.add(c0, self._total, out=self._total)
        energy = finite_energy(x)
        two = sorted(self._leakages)[-2:]
        cross = two[0] + two[1] if len(two) == 2 else 0.0
        parts = np.add.reduce(self._energies) + self.n * c0**2
        ratio = float(parts / energy) if energy > 0 else 1.0
        return x, OrthogonalityReport(cross, ratio)


def _fft_rounding(n: int) -> float:
    """A bound on the relative l2 error of numpy's n-point real transform.

    pocketfft's error grows as u * log2(n) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm. 24.2, about 7u per radix-2
    stage); a length with a large prime factor goes through Bluestein's
    algorithm, two transforms of at least 2n - 1 points. 16u per stage of
    a 2n-point transform covers both with room to spare.
    """
    u = np.finfo(np.float64).eps / 2
    return float(16 * u * np.ceil(np.log2(2 * n)))
