"""FIR filtering and filter-mode decomposition into energy-preserving components.

The decomposition peels off one frequency band per stage with a zero-phase
FIR filter and then orthogonalizes the stage output against everything
that remains. The resulting components are linearly independent, generally
non-orthogonal pairwise, but each one is exactly orthogonal to the sum of
all later ones, so their energies add up to the energy of the mean-removed
input.

Zero-phase filtering applies the taps' power response |H|^2: the
reflection-padded input is cut into overlapping blocks, each block's real
FFT is multiplied by the real |H|^2 and transformed back (overlap-save).
A real response has exactly zero phase, and the result is the
forward-backward filter's to rounding. The blocks are transformed a fixed
batch at a time straight into the output, so a filter call holds its
N-sample output and batch arrays of about 1.5 MB.

:func:`fmd_decompose` runs each stage in the arrays of an
:class:`IFWorkspace`: the filter output in its quadrature, the filter's
batch arrays and then the component in its spectrum, which is copied
from there into the ladder's buffer of the stage's input, to go to the
consumer. It streams as the DFT bank does: the ladder yields
(component, band, remainder, defect) per stage, and the filter bank's one
loop, ``filterbank._drive``, checks each component and hands it on. With
the consumer's workspace, it holds three N-sample arrays of its own: the
check's running sum and the ladder's two buffers, the stage's input and
the remainder it passes on.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytic import IFWorkspace
from .filterbank import CheckReport, Decomposition, _drive, _relative_error
from .signals import Signal, _dot, finite_energy

# samples of overlap-save frames that _zero_phase transforms at a time (at
# least one frame): its three batch arrays then take about 1.5 MB whatever
# N, for orders up to 4096, and fit a 2 MB cache
_BATCH = 65536
# outputs that _causal convolves at a time (at least the taps): np.convolve
# makes each block's output, and a copy of its input if that is read-only,
# as a Signal's samples are, so a call holds 0.25 MB above its output
_CAUSAL_BLOCK = 16384
# the FIR ladder's methods, the words fmd_decompose's `method` takes
METHODS = ("fmd-a", "fmd-b", "causal-fir")

__all__ = [
    "FirFilter",
    "design_fir",
    "zero_phase_filter",
    "causal_filter",
    "fmd_decompose",
]


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR filter: odd-length symmetric taps."""

    taps: np.ndarray
    kind: str  # 'lowpass' or 'highpass'

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.size % 2 != 1:
            raise ValueError(f"taps length must be odd, got {taps.size}")
        if not np.array_equal(taps, taps[::-1]):
            raise ValueError("taps must be exactly symmetric")
        dc = taps.sum()
        target = 1.0 if self.kind == "lowpass" else 0.0
        if self.kind not in ("lowpass", "highpass"):
            raise ValueError(f"kind must be 'lowpass' or 'highpass', got {self.kind!r}")
        if abs(dc - target) > 1e-6:
            raise ValueError(f"{self.kind} DC gain {dc} not within 1e-6 of {target}")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def order(self) -> int:
        return self.taps.size - 1


def _check_order(order: int) -> None:
    """The FIR order rule: even and at least 16."""
    if order % 2 != 0 or order < 16:
        raise ValueError(f"order must be even and >= 16, got {order}")


def design_fir(kind: str, cutoff_hz: float, order: int, sample_rate: float) -> FirFilter:
    """Windowed-sinc linear-phase FIR design.

    Parameters
    ----------
    kind : {'lowpass', 'highpass'}
        Highpass is the spectral inversion of the lowpass of the same cutoff.
    cutoff_hz : float
        -6 dB point, strictly inside (0, sample_rate/2).
    order : int
        Even, at least 16; the filter has order+1 taps.
    sample_rate : float

    Notes
    -----
    The ideal-lowpass impulse response is windowed by a raised cosine and
    normalized to unit DC gain. Taps are built from |lag| so symmetry is
    exact to the bit.
    """
    if kind not in ("lowpass", "highpass"):
        raise ValueError(f"kind must be 'lowpass' or 'highpass', got {kind!r}")
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(
            f"cutoff must lie strictly inside (0, {sample_rate / 2}) Hz, got {cutoff_hz}"
        )
    _check_order(order)
    half = order // 2
    m = np.arange(1, half + 1)
    fc = cutoff_hz / sample_rate
    wing = np.sin(2 * np.pi * fc * m) / (np.pi * m)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * (half - m) / order)
    wing *= window
    taps = np.concatenate([wing[::-1], [2 * fc], wing])
    taps /= taps.sum()
    if kind == "highpass":
        taps = -taps
        taps[half] += 1.0
    return FirFilter(taps, kind)


def _check_length(n: int, taps: np.ndarray, what: str) -> None:
    if n <= 3 * taps.size:
        raise ValueError(
            f"signal of {n} samples too short for {what} with "
            f"{taps.size} taps (need > {3 * taps.size})"
        )


def _causal(samples: np.ndarray, taps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Zero initial state, same-length output, written into `out` a block of
    # outputs at a time: the first block is the head of the 'full'
    # convolution, each later one the 'valid' convolution of its samples
    # and the `order` before them. An output is one dot product of the
    # same samples and taps either way, so the bits are those of the
    # whole-array np.convolve(samples, taps)[:n]. A block is never shorter
    # than the taps, which np.convolve would otherwise swap. np.convolve is
    # the one BLAS call on a path to an output (cblas_ddot, through
    # np.correlate): causal-fir's bytes depend on the BLAS kernel, not on
    # its thread count. The BLAS-free forms measured slower and change the
    # bytes; tests/test_reductions.py exempts these two calls by name.
    _check_length(samples.size, taps, "filtering")
    n, order = samples.size, taps.size - 1
    out = np.empty(n) if out is None else out
    block = max(_CAUSAL_BLOCK, taps.size)
    head = min(n, block)
    out[:head] = np.convolve(samples[:head], taps)[:head]
    for start in range(head, n, block):
        stop = min(n, start + block)
        out[start:stop] = np.convolve(samples[start - order : stop], taps, "valid")
    return out


def _zero_phase(samples: np.ndarray, taps: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    # Forward-backward filtering of the padded input, trimmed back to N
    # samples, is the linear convolution with the autocorrelation g of the
    # taps: 2*order+1 taps centred on lag 0, response |H|^2. Overlap-save
    # runs it on frames of `block` samples taken every `step` from the
    # reflection-padded, zero-tailed input; frame k's outputs
    # order..block-order-1 are free of circular wrap and are output samples
    # k*step onwards. The frames are transformed a batch at a time, each
    # batch's stretch of the padded input built in one scratch array; a
    # frame's transform depends only on its own samples, so the batch size
    # does not move a bit of the output. The batch arrays are carved from
    # `scratch`, a complex array, when it holds at least one frame's, with
    # as many frames a batch as fit, else from one array made here.
    _check_length(samples.size, taps, "forward-backward filtering")
    n, order = samples.size, taps.size - 1
    # a power of two at least 8 times the kernel's 2*order span, so that
    # wrap-around costs at most an eighth of each transform
    block = 4096
    while block < 16 * order:
        block *= 2
    step = block - 2 * order
    frames = -(-n // step)
    batch = min(frames, max(1, _BATCH // block))
    half = block // 2 + 1
    # floats a batch takes: each frame's spectrum, output and step of the
    # stretch, and the stretch's last block - step samples
    per_frame, tail = 2 * half + block + step, block - step
    fits = 0 if scratch is None else (2 * scratch.size - tail) // per_frame
    if fits >= 1:
        batch = min(batch, fits)
    else:
        scratch = np.empty(-(-(batch * per_frame + tail) // 2), dtype=complex)
    spectrum = scratch[: batch * half].reshape(batch, half)
    floats = scratch[batch * half :].view(np.float64)
    filtered = floats[: batch * block].reshape(batch, block)
    stretch = floats[batch * block : batch * (block + step) + tail]
    response = np.fft.rfft(taps, block)
    power = response.real**2 + response.imag**2
    # the padded input: a reflection without the edge sample each side,
    # the samples between them, zeros after
    parts = ((0, samples[order:0:-1]), (order, samples), (order + n, samples[-2 : -order - 2 : -1]))
    out = np.empty(n) if out is None else out
    for first in range(0, frames, batch):
        count = min(batch, frames - first)
        start = first * step
        padded = stretch[: (count - 1) * step + block]
        stop = start + padded.size
        for offset, part in parts:
            lo, hi = max(start, offset), min(stop, offset + part.size)
            if lo < hi:
                padded[lo - start : hi - start] = part[lo - offset : hi - offset]
        padded[max(n + 2 * order - start, 0) :] = 0.0
        np.fft.rfft(sliding_window_view(padded, block)[::step], axis=1, out=spectrum[:count])
        spectrum[:count] *= power
        np.fft.irfft(spectrum[:count], block, axis=1, out=filtered[:count])
        # the last frame may reach past the last output sample
        dest = out[start : start + count * step]
        rows, rest = divmod(dest.size, step)
        dest[: rows * step].reshape(rows, step)[...] = filtered[:rows, order : order + step]
        if rest:
            dest[rows * step :] = filtered[rows, order : order + rest]
    return out


def zero_phase_filter(x: Signal, h: FirFilter) -> Signal:
    """Zero-phase filtering: magnitude |H|^2, exactly zero phase.

    The input is reflection-padded by order samples each side and
    convolved with the taps' autocorrelation, the impulse response of
    |H|^2, by overlap-save block FFTs. That is the forward-backward
    filter's output (filter, reverse, filter, reverse, trim) to rounding;
    the response is real, so passband features keep their sample
    positions exactly. The block length is the smallest power of two
    >= max(4096, 16 * order). The blocks go through the transforms a
    batch of 65536 samples' worth at a time (at least one block), each
    batch's stretch of the padded input built in one scratch array, so
    the filter needs its output and a workspace that does not grow with
    N; the output's bits do not depend on the batch size.
    """
    return _filtered(_zero_phase(x.samples, h.taps), x.sample_rate)


def causal_filter(x: Signal, h: FirFilter) -> Signal:
    """Single forward pass; a passband tone comes out delayed by order/2 samples."""
    return _filtered(_causal(x.samples, h.taps), x.sample_rate)


def _filtered(samples: np.ndarray, sample_rate: float) -> Signal:
    """The Signal of a filter's own output array, refused as Signal refuses it if not finite.

    min and max, not an elementwise test: no temporary per sample; a NaN
    fails every comparison.
    """
    if not (-np.inf < samples.min() and samples.max() < np.inf):
        raise ValueError("samples must be finite (no NaN/Inf)")
    return Signal._view(samples, sample_rate)


def _ladder(x, c0, cutoffs, order, method, sample_rate, workspace):
    """Run the FIR ladder on x - c0 in two N-float buffers and the arrays of `workspace`.

    `cutoffs` are in stage order. Yields (component, band, remainder,
    defect) per stage: a read-only view of c_i, a function that gives its
    Signal, the remainder x_{i+1} it passes on and, for fmd-a and fmd-b,
    its rounding defect d_i = c_i + x_{i+1} - x_i (None for causal-fir,
    whose components no check bounds). The last component, the final
    remainder, comes as (component, band, None, None).

    Stage i filters x_i into the workspace's quadrature, with a
    zero-phase filter's batch arrays in its spectrum, makes its
    remainder in the buffer that x_{i-1} left and the component in the
    float view of the workspace's spectrum, and the defect in the filter
    output's memory. Then x_i is dead: the component is copied into its
    buffer, and the workspace is free again while the stage's arrays are
    out. Each array holds only until the next stage runs.
    """
    current = np.subtract(x, c0, out=np.empty(x.size))
    spare = np.empty(x.size)
    alpha_floor = 1e-14 * finite_energy(current)
    part_a = method != "fmd-b"
    defects = method != "causal-fir"
    stage_kind = "highpass" if part_a else "lowpass"
    component = workspace.energy
    for cutoff in cutoffs:
        taps = design_fir(stage_kind, cutoff, order, sample_rate).taps
        if method == "causal-fir":
            y = _causal(current, taps, workspace.quadrature)
        else:
            y = _zero_phase(current, taps, workspace.quadrature, workspace.spectrum)
        r = np.subtract(current, y, out=spare)
        # each scaled term is made in `component` or `y`, not in a temporary
        if part_a:
            denom = _dot(r, r)
            alpha = _dot(y, r) / denom if denom > alpha_floor else 0.0
            np.subtract(y, np.multiply(alpha, r, out=component), out=component)
            r *= 1 + alpha
        else:
            denom = _dot(y, y)
            alpha = _dot(r, y) / denom if denom > alpha_floor else 0.0
            np.multiply(1 + alpha, y, out=component)
            r -= np.multiply(alpha, y, out=y)
        if defects:
            np.add(component, r, out=y)
            y -= current
        current[:] = component
        # x_i's buffer, now the component's, takes the next stage's remainder
        current, spare = r, current
        band = Signal._view(spare, sample_rate)
        yield band.samples, lambda: band, current, y if defects else None
    band = Signal._view(current, sample_rate)
    yield band.samples, lambda: band, None, None


def fmd_decompose(x: Signal, cutoffs_hz, consumer, order: int = 256, method: str = "fmd-a",
                  workspace: IFWorkspace | None = None) -> Decomposition:
    """Iterative filter-mode decomposition into energy-preserving components, handed on one by one.

    Parameters
    ----------
    x : Signal
        Input; its mean is removed first and returned as c0.
    cutoffs_hz : sequence of float
        M-1 stage cutoffs, strictly increasing, as :meth:`BandSpec.ladder`
        gives them.
    consumer : callable
        Each component is made in one of the ladder's two N-float
        buffers, checked by :class:`_TailCheck` and passed to
        ``consumer(component, band)``: a read-only view of that buffer and
        a function that gives the component's Signal on it, both valid
        until the consumer returns. Nothing is collected: the call returns
        the :class:`Decomposition` of c0 and the check's
        :class:`CheckReport`: the "linoep" section's tail bounds for
        'fmd-a' and 'fmd-b', no section for 'causal-fir', and the
        reconstruction error and energy ratio for all three.
    order : int
        FIR order for every stage filter.
    method : {'fmd-a', 'fmd-b', 'causal-fir'}
        'fmd-a' (part A) runs highpass stages down the ladder, so the
        components go from high to low frequency; 'fmd-b' (part B) runs
        lowpass stages up it, low to high. 'causal-fir' is part A with
        single-pass filtering, the contrast mode.
    workspace : IFWorkspace, optional
        An IF workspace for x's length, in whose arrays each stage makes
        its filter output, component and defect; a fresh one is made when
        not given. Nothing of a stage is left in it when the consumer is
        called, so the consumer may track the component in the same
        workspace, and the ladder then holds no more than two N-float
        buffers of its own.

    Notes
    -----
    Each stage splits the running signal x_i into a filter output y and
    remainder r = x_i - y, then picks the mixing coefficient that makes
    the extracted component orthogonal to what is passed on:

    * part A: alpha = <y,r>/<r,r>, component c_i = y - alpha*r, pass on
      (1+alpha)*r;
    * part B: alpha = <r,y>/<y,y>, component c_i = (1+alpha)*y, pass on
      r - alpha*y.

    Either way c_i + x_{i+1} = x_i in exact arithmetic, so reconstruction
    is an algebraic identity up to each stage's rounding defect, and c_i is
    orthogonal to the sum of all later components. When the
    orthogonalization denominator falls below 1e-14 times the input
    energy, alpha is set to 0 and the remaining stages degenerate
    gracefully. An input whose energy overflows float64 raises
    ValueError before any stage runs.
    """
    if method not in METHODS:
        raise ValueError(f"method must be 'fmd-a', 'fmd-b' or 'causal-fir', got {method!r}")
    cutoffs = [float(c) for c in cutoffs_hz]
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")
    if method != "fmd-b":
        cutoffs.reverse()

    n = len(x)
    ws = IFWorkspace._for(n, workspace)
    finite_energy(x.samples)  # before the mean, which an overflowing sum would make inf
    c0 = float(np.mean(x.samples))
    stages = _ladder(x.samples, c0, cutoffs, order, method, x.sample_rate, ws)
    section = None if method == "causal-fir" else "linoep"
    return _drive(stages, _TailCheck(x.samples, section), c0, consumer)


class _TailCheck:
    """The checks of an FIR ladder's components, added one stage at a time in O(N) memory.

    Keeps the running sum of the components, each one's energy and three
    scalars per stage, and no component. Stage i's rounding defect
    d_i = c_i + x_{i+1} - x_i telescopes: the last component is the last
    remainder, so the tail T_i = sum_{l>i} c_l equals x_{i+1} + sum_{l>i} d_l
    exactly. With D_i = sum_{l>i} ||d_l||, Cauchy-Schwarz and the triangle
    inequality bound the normalized tail product as

        |<c_i, T_i>| / (||c_i|| ||T_i||)
            <= (|<c_i, x_{i+1}>| + ||c_i|| D_i) / (||c_i|| (||x_{i+1}|| - D_i))

    when ||x_{i+1}|| > D_i. The figure is at most 1, and the bound reads 1
    where D_i reaches ||x_{i+1}||; it reads 0 for a zero component or a
    tail that is exactly zero, as the figure itself does.

    The bound also covers the rounding of what it is made from (u = 2^-53,
    gamma_k = k*u / (1 - k*u), no underflow):

    * an energy or inner product is an einsum sum of n products, in error
      by at most gamma_n times the sum of their magnitudes in any order of
      summation (Higham, Accuracy and Stability of Numerical Algorithms,
      2nd ed., eq. 3.5). So a norm lies within a factor 1 -+ gamma of the
      root of its computed energy, and |<c_i, x_{i+1}>| exceeds the
      computed value by at most gamma ||c_i|| ||x_{i+1}||;
    * the defect is computed as fl(fl(c_i + x_{i+1}) - x_i), off from the
      exact d_i by at most u (|c_i| + |x_{i+1}|) + u |d_i'| / (1 - u) in
      each sample, d_i' being the computed value, so ||d_i|| is at most
      (1 + 2u) ||d_i'|| + u (||c_i|| + ||x_{i+1}||).

    Taking the lower norms where they divide and the upper ones in D_i,
    the figure is at most
    (|<c_i, x_{i+1}>|' / ||c_i||_lo + gamma ||x_{i+1}||_lo + D_i) / (||x_{i+1}||_lo - D_i).
    gamma is gamma_k with k = n + M + 8, which also covers the M-term
    sums D_i and the few roundings of the scalar arithmetic.

    Its report's `bounds` are these bounds, stage by stage, its `cross`
    their largest (0 with no stage) and its `energy_ratio`
    sum ||c_i||^2 / ||x - c0||^2; `section` is the report's section,
    "linoep", or None for a ladder whose stages bring no defect.
    """

    def __init__(self, x: np.ndarray, section: str | None):
        self.x = x
        self.section = section
        self._total = np.zeros(x.size)
        self._energies = []
        self._stages = []  # (|<c_i, x_{i+1}>|, ||x_{i+1}||^2, ||d_i||^2), as computed

    def add(self, component: np.ndarray, remainder=None, defect=None) -> None:
        """Check a stage's component, remainder and defect; the last component comes alone.

        Without a defect only the component's energy and the sum are kept.
        A component, remainder or defect whose energy is not finite (a
        sample that is not, or an overflowing sum) raises ValueError.
        """
        energy = finite_energy(component)
        self._total += component
        self._energies.append(energy)
        if defect is not None:
            self._stages.append((abs(_dot(component, remainder)), finite_energy(remainder),
                                 finite_energy(defect)))

    def finish(self, c0: float) -> CheckReport:
        """The report, with the reconstruction c0 + sum of the components made in the sum's memory.

        The energy ratio is 1 when x - c0 has zero energy.
        """
        energy = finite_energy(self._total)
        ratio = sum(self._energies) / energy if energy > 0 else 1.0
        x = np.add(c0, self._total, out=self._total)
        k = self.x.size + len(self._energies) + 8
        u = np.finfo(np.float64).eps / 2
        gamma = k * u / (1 - k * u)
        bounds = np.zeros(len(self._stages))
        later = 0.0  # the bound on D_i: the defects of the stages after i
        for i in range(len(self._stages) - 1, -1, -1):
            cross, remainder_energy, defect_energy = self._stages[i]
            c, r, d = np.sqrt([self._energies[i], remainder_energy, defect_energy])
            r_lo = (1 - gamma) * r
            if c > 0 and (r > 0 or later > 0):
                bounds[i] = 1.0
                if r_lo > later:
                    figure = (cross / ((1 - gamma) * c) + gamma * r_lo + later) / (r_lo - later)
                    bounds[i] = min(figure, 1.0)
            later += (1 + gamma) * ((1 + 2 * u) * d + u * (c + r))
        bounds = tuple(bounds.tolist())
        return CheckReport(_relative_error(x, self.x), self.section, max(bounds, default=0.0),
                           ratio, bounds)
