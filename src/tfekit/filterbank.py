"""Zero-phase spectral filter bank.

A band plan partitions the nonnegative DFT bins 1..K_M into M contiguous
runs; bin 0 (the mean) is routed to the separate c0 term. One inverse
transform of the spectrum made one-sided on a band's bins gives the band
component as the real part, exactly zero-phase, and its quadrature as the
imaginary part; components are mutually orthogonal with disjoint support.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import AnalyticSignal, one_sided
from .signals import Signal, finite_energy

__all__ = [
    "BandSpec",
    "Decomposition",
    "dft_decompose",
    "OrthogonalityReport",
    "verify_orthogonality",
]


def _check_cutoffs(cutoffs_hz, sample_rate: float) -> list[float]:
    """Cutoffs in Hz as floats: positive, strictly increasing, the last at Nyquist."""
    cutoffs = [float(c) for c in cutoffs_hz]
    if not cutoffs:
        raise ValueError("need at least one cutoff")
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
        if self.bands is not None and self.bands < 1:
            raise ValueError(f"need at least one band, got {self.bands}")
        if self.cutoffs_hz is not None:
            object.__setattr__(self, "cutoffs_hz", tuple(float(c) for c in self.cutoffs_hz))

    @classmethod
    def from_settings(cls, bands=None, cutoffs=None, plan=None) -> "BandSpec | None":
        """The spec given by at most one of three settings, or None if none is set.

        `bands` is a uniform band count; `cutoffs` a sequence of cutoffs or
        a comma-separated string of them; `plan` a JSON document, given
        as a dict or as the path of a file holding it.
        """
        given = [k for k, v in (("bands", bands), ("cutoffs", cutoffs), ("plan", plan))
                 if v not in (None, "")]
        if len(given) > 1:
            raise ValueError(f"give only one of --bands/--cutoffs/--plan, got {given}")
        if bands is not None:
            return cls(bands=int(bands))
        if cutoffs:
            if isinstance(cutoffs, str):
                cutoffs = [c for c in cutoffs.split(",") if c.strip()]
            return cls(cutoffs_hz=cutoffs)
        if not plan:
            return None
        doc = json.loads(Path(plan).read_text()) if isinstance(plan, str) else plan
        if not isinstance(doc, dict) or doc.get("type") not in ("uniform", "custom"):
            raise ValueError("band plan document must be an object with type 'uniform' or 'custom'")
        if doc["type"] == "uniform":
            if "bands" not in doc:
                raise ValueError("uniform band plan needs a 'bands' count")
            return cls(bands=int(doc["bands"]))
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


@dataclass(frozen=True)
class Decomposition:
    """Mean term c0 plus the component signals of one method, as rows of one array.

    `components` is a C-contiguous (M, N) float64 array whose row i is
    component i; c0 + components.sum(axis=0) reconstructs the analyzed
    signal pointwise. `method` names the producing algorithm as the CLI's
    --method does: 'dft', 'fmd-a', 'fmd-b' or 'causal-fir'.
    """

    c0: float
    components: np.ndarray
    method: str

    def __post_init__(self):
        comps = np.ascontiguousarray(self.components, dtype=np.float64)
        if comps.ndim != 2 or comps.shape[0] == 0:
            raise ValueError(f"components must form an (M, N) array with M >= 1, got {comps.shape}")
        for row in comps:  # one row at a time: no (M, N) temporary
            if not np.isfinite(row).all():
                raise ValueError("components must be finite")
        object.__setattr__(self, "components", comps)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def reconstruct(self) -> np.ndarray:
        """c0 + sum of components."""
        return self.c0 + np.sum(self.components, axis=0)


def dft_decompose(x: Signal, boundaries, consumer=None) -> Decomposition:
    """Split a signal into zero-phase spectral band components.

    `boundaries` are the bin boundaries K_0 = 0 < K_1 < ... < K_M = floor(N/2)
    of M bands, as :meth:`BandSpec.plan` gives them: band i (0-based) covers
    bins K_i+1 .. K_{i+1}. Each band is :func:`one_sided` of the input
    spectrum on its bins: one inverse transform gives the component as the
    real part and its quadrature as the imaginary part. c0 is the DC bin
    (the sample mean). The spectrum is computed once and the bands are made
    one at a time; when `consumer` is given, it is called once per band, in
    order, with the band's :class:`AnalyticSignal`, which is then dropped.
    """
    n = len(x)
    bounds = tuple(int(b) for b in boundaries)
    if len(bounds) < 2 or bounds[0] != 0:
        raise ValueError("boundaries must start at 0 and define at least one band")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"boundaries must be strictly increasing, got {bounds}")
    if bounds[-1] != n // 2:
        raise ValueError(f"last boundary must be {n // 2} for length {n}, got {bounds[-1]}")
    spectrum = np.fft.fft(x.samples, norm="forward")
    components = np.empty((len(bounds) - 1, n))
    for i in range(len(bounds) - 1):
        z = one_sided(spectrum, bounds[i] + 1, bounds[i + 1])
        components[i] = z.real
        if consumer is not None:
            consumer(AnalyticSignal(z, x.sample_rate))
    return Decomposition(float(spectrum[0].real), components, "dft")


@dataclass(frozen=True)
class OrthogonalityReport:
    """Pairwise orthogonality and energy-preservation summary."""

    max_normalized_cross: float
    energy_ratio: float


def verify_orthogonality(d: Decomposition) -> OrthogonalityReport:
    """Check mutual orthogonality and Parseval energy balance of a DFT decomposition.

    Reports max over pairs of |<y_i, y_l>| / (||y_i|| ||y_l||) and
    (sum ||y_i||^2 + N*c0^2) / ||x||^2, where x is the reconstruction; the
    ratio is 1 when x has zero energy. An energy that overflows float64
    raises.
    """
    if d.method != "dft":
        raise ValueError(f"orthogonality verification applies to 'dft' decompositions, got {d.method!r}")
    x = d.reconstruct()
    energy = finite_energy(x)
    comps = d.components
    gram = comps @ comps.T
    norms = np.sqrt(np.diag(gram))
    denom = np.outer(norms, norms)
    denom[denom == 0] = 1.0  # zero-energy bands contribute nothing
    normalized = np.abs(gram) / denom
    np.fill_diagonal(normalized, 0.0)
    energy_ratio = float((np.trace(gram) + x.size * d.c0**2) / energy) if energy > 0 else 1.0
    return OrthogonalityReport(float(normalized.max()), energy_ratio)
