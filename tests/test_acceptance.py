"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; each test also asserts, so a failing criterion fails the suite.
"""

import time

import numpy as np
import pytest

from oracles import dft_direct, idft_direct
from streams import collect, drop, kept_bands
from tfekit import (
    BandSpec,
    DiffScheme,
    NoiseSpec,
    Signal,
    causal_filter,
    chirp_true_if,
    design_fir,
    dft_decompose,
    fm_true_if,
    fmd_decompose,
    gen_chirp,
    gen_delta,
    gen_fm,
    gen_noise,
    if_track,
    mix,
    zero_phase_filter,
)

FIVE_CHIRP_BANDS = [(500, 1500), (1000, 2000), (1500, 2500), (2000, 3000), (2500, 3500)]


def _report(criterion: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:>2}: {status}  {description}  ({detail})")
    assert ok, f"criterion {criterion} failed: {description} ({detail})"


def _example1_mixture(fm_rate: float = 10.0) -> Signal:
    return mix([
        gen_chirp(1000, 2000, 1.0, 8000),
        gen_fm(780, 200, fm_rate, 1.0, 8000),
    ])


def _robust_mask(track, threshold: float = 0.1) -> np.ndarray:
    """Samples whose differencing interval stays away from envelope zeros.

    A forward difference at n reads the phase at n and n+1, so both
    endpoints must carry envelope; boundary samples (duplicated diffs,
    circular-wrap edge of the spectral construction) are excluded.
    """
    envelope = np.sqrt(track.energy)
    ratio = envelope / envelope.max()
    mask = np.zeros(len(track), dtype=bool)
    mask[1:-1] = (ratio[1:-1] > threshold) & (ratio[2:] > threshold)
    return mask


def test_criterion_01_positivity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    violations = 0
    total = 0
    for i in range(200):
        n = int(rng.integers(64, 16385))
        fs = float(rng.uniform(10.0, 48000.0))
        kind = i % 4
        if kind == 0:
            samples = rng.normal(0, rng.uniform(0.1, 10.0), n)
        elif kind == 1:
            f0, f1 = np.sort(rng.uniform(0, fs / 2, 2))
            t = np.arange(n) / fs
            dur = n / fs
            samples = np.cos(2 * np.pi * (f0 * t + (f1 - f0) / (2 * dur) * t * t))
        elif kind == 2:
            samples = np.zeros(n)
            samples[int(rng.integers(0, n))] = 1.0
        else:
            t = np.arange(n) / fs
            samples = rng.normal(size=n) + np.cos(2 * np.pi * (fs / 7) * t)
        freq = if_track(Signal(samples, fs)).frequency_hz
        violations += int(np.sum((freq < 0) | (freq > fs / 2)))
        total += n
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(1, "positive-mode IF within [0, Fs/2] on 200 random signals", ok,
            f"violations={violations}/{total}, {elapsed:.1f}s")


def test_criterion_02_delta_quarter_nyquist():
    start = time.perf_counter()
    n0, n, fs = 1999, 4000, 1000.0
    track = if_track(gen_delta(n0, n, fs))
    middle = slice(int(0.05 * n), int(0.95 * n))
    median = float(np.median(track.frequency_hz[middle]))
    mean = float(np.mean(track.frequency_hz[middle]))
    m = np.arange(n) - n0
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.abs(np.sin(np.pi * m / 2) / (np.pi * m / 2))
    sinc[n0] = 1.0
    envelope_err = float(np.abs(np.sqrt(track.energy) - sinc)[middle].max())
    elapsed = time.perf_counter() - start
    ok = (abs(median - 250.0) < 1.0 and abs(mean - 250.0) < 1.0
          and envelope_err < 1e-3 and elapsed < 1.0)
    _report(2, "delta impulse IF at Fs/4 over middle 90%, sinc envelope", ok,
            f"median={median:.6f} Hz, mean={mean:.6f} Hz, env_err={envelope_err:.2e}, {elapsed:.2f}s")


def test_criterion_03_harmonic_sum():
    fs = 4000.0
    t = np.arange(4000) / fs
    x = Signal(sum(np.cos(2 * np.pi * 100 * k * t) for k in range(1, 6)), fs)
    track = if_track(x)
    mask = _robust_mask(track)
    deviation = float(np.abs(track.frequency_hz[mask] - 300.0).max())
    ok = deviation <= 2.0 and mask.mean() > 0.5
    _report(3, "five-harmonic sum IF = 100*(5+1)/2 = 300 Hz away from envelope zeros", ok,
            f"max|IF-300|={deviation:.2e} Hz over {mask.mean():.0%} of samples")


def test_criterion_04_two_tone_average_and_band_split():
    # fm modulation rate 2 Hz: slow enough that a 40 Hz brick-wall band's
    # ring-down stays within +-60 Hz of the moving ridge
    fs, fm_rate = 8000.0, 2.0
    x = _example1_mixture(fm_rate)
    ridge_a = chirp_true_if(1000, 2000, 1.0, fs)
    ridge_b = fm_true_if(780, 200, fm_rate, 1.0, fs)
    average = (ridge_a + ridge_b) / 2

    track = if_track(x)
    mask = _robust_mask(track)
    rel = np.abs(track.frequency_hz[mask] - average[mask]) / average[mask]
    max_rel = float(rel.max())

    plan = BandSpec(bands=100).plan(len(x), fs)
    _, components = collect(dft_decompose, x, plan)
    in_band = 0.0
    total = 0.0
    for component in components:
        tr = if_track(Signal(component, fs))
        distance = np.minimum(np.abs(tr.frequency_hz - ridge_a),
                              np.abs(tr.frequency_hz - ridge_b))
        in_band += float(tr.energy[distance <= 60.0].sum())
        total += float(tr.energy.sum())
    energy_fraction = in_band / total

    ok = max_rel <= 0.05 and energy_fraction >= 0.90
    _report(4, "chirp+FM: undecomposed IF tracks the average; 100-band energy on ridges", ok,
            f"max_rel={max_rel:.3%} on {mask.mean():.0%} of samples, "
            f"ridge_energy={energy_fraction:.3%}")


def test_criterion_05_pure_tone_exact():
    fs = 8000.0
    track = if_track(gen_chirp(fs / 8, fs / 8, 1.0, fs))  # 1000 integer periods
    deviation = float(np.abs(track.frequency_hz[1:-1] - fs / 8).max())
    ok = deviation < 1e-6
    _report(5, "pure tone at Fs/8 recovered exactly on interior samples", ok,
            f"max|IF-1000|={deviation:.2e} Hz")


def test_criterion_06_dft_decomposition_invariants():
    x = _example1_mixture()
    worst = {"recon": 0.0, "cross": 0.0, "energy": 0.0}
    for n_bands in (2, 10, 100):
        d = dft_decompose(x, BandSpec(bands=n_bands).plan(len(x), x.sample_rate), drop)
        recon = float(np.abs(d.reconstruction - x.samples).max() / np.abs(x.samples).max())
        report = d.report
        worst["recon"] = max(worst["recon"], recon)
        worst["cross"] = max(worst["cross"], report.max_normalized_cross)
        worst["energy"] = max(worst["energy"], abs(report.energy_ratio - 1.0))
    ok = worst["recon"] <= 1e-9 and worst["cross"] <= 1e-10 and worst["energy"] <= 1e-10
    _report(6, "spectral bank M in {2,10,100}: reconstruction, orthogonality, Parseval", ok,
            f"recon={worst['recon']:.2e}, cross={worst['cross']:.2e}, "
            f"energy_dev={worst['energy']:.2e}")


def test_criterion_07_fmd_invariants():
    fixtures = {
        "noise": (gen_noise(NoiseSpec(seed=9, length=4096), 1000.0), 128),
        "five-chirps": (mix([gen_chirp(f0, f1, 2.0, 8000) for f0, f1 in FIVE_CHIRP_BANDS]), 256),
    }
    worst = {"recon": 0.0, "tail": 0.0, "energy": 0.0}
    for x, order in fixtures.values():
        for n_bands in (2, 5, 10):
            for method in ("fmd-a", "fmd-b"):
                cutoffs = BandSpec(bands=n_bands).ladder(x.sample_rate)
                d = fmd_decompose(x, cutoffs, drop, order=order, method=method)
                recon = float(np.abs(d.reconstruction - x.samples).max()
                              / np.abs(x.samples).max())
                report = d.report
                worst["recon"] = max(worst["recon"], recon)
                worst["tail"] = max(worst["tail"], report.max_tail_cross)
                worst["energy"] = max(worst["energy"], abs(report.energy_ratio - 1.0))
    ok = worst["recon"] <= 1e-9 and worst["tail"] <= 1e-8 and worst["energy"] <= 1e-8
    _report(7, "FMD parts A/B, M in {2,5,10}: reconstruction, tail orthogonality, energy", ok,
            f"recon={worst['recon']:.2e}, tail={worst['tail']:.2e}, "
            f"energy_dev={worst['energy']:.2e}")


def test_criterion_08_zero_phase_vs_causal_lag():
    fs, order = 8000.0, 128
    h = design_fir("lowpass", 1000.0, order, fs)
    # tone period (320 samples) exceeds twice the group delay, so the
    # correlation peak is unambiguous
    tone = gen_chirp(25, 25, 1.0, fs)
    n = len(tone)
    zp = zero_phase_filter(tone, h)
    lag_zero_phase = int(np.correlate(zp.samples, tone.samples, "full").argmax() - (n - 1))
    ca = causal_filter(tone, h)
    lag_causal = int(np.correlate(ca.samples, tone.samples, "full").argmax() - (n - 1))
    ok = lag_zero_phase == 0 and lag_causal == order // 2
    _report(8, "passband tone: zero-phase lag 0, causal lag exactly order/2", ok,
            f"zero_phase_lag={lag_zero_phase}, causal_lag={lag_causal}, order/2={order // 2}")


def test_criterion_09_chirp_tracking():
    fs = 8000.0
    x = gen_chirp(1000, 2000, 1.0, fs)
    truth = chirp_true_if(1000, 2000, 1.0, fs)
    track = if_track(x, DiffScheme.CENTRAL)
    n = len(x)
    interior = slice(int(0.05 * n), int(0.95 * n))
    rel = np.abs(track.frequency_hz[interior] - truth[interior]) / truth[interior]
    median = float(np.median(rel))
    ok = median <= 0.02
    _report(9, "single chirp, central differencing: median relative IF error", ok,
            f"median={median:.2e}")


def test_criterion_10_conventional_contrast():
    x = _example1_mixture()
    conventional = if_track(x, mode="conventional")
    positive = if_track(x, mode="positive")
    n_negative = int(np.sum(conventional.frequency_hz < 0))
    n_positive_mode = int(np.sum(positive.frequency_hz < 0))
    ok = n_negative > 0 and n_positive_mode == 0
    _report(10, "conventional mode emits negative samples, positive mode none", ok,
            f"conventional={n_negative} negatives, positive={n_positive_mode}")


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_transform = 0.0
    for n in (7, 8, 64, 257):
        # one bin per band: c0 and each band's analytic signal against the O(N^2) sums
        x = rng.normal(size=n)
        spectrum = dft_direct(x)
        plan = BandSpec(bands=n // 2).plan(n, 1.0)
        d, bands = dft_decompose(Signal(x, 1.0), plan, drop), kept_bands(Signal(x, 1.0), plan)
        err_f = abs(d.c0 - spectrum[0].real) / float(np.abs(spectrum).max())
        worst_transform = max(worst_transform, err_f)
        for k, band in enumerate(bands, start=1):
            one_bin = np.zeros(n, dtype=complex)
            one_bin[k] = spectrum[k] if 2 * k == n else 2 * spectrum[k]
            z = band.real + 1j * band.imag
            err_i = float(np.abs(z - idft_direct(one_bin)).max()) / float(np.abs(x).max())
            worst_transform = max(worst_transform, err_i)

    x = Signal(rng.normal(size=64), 64.0)
    d, components = collect(dft_decompose, x, BandSpec(bands=4).plan(64, 64.0))
    report = d.report
    cross = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            ci, cj = components[i], components[j]
            denom = np.sqrt(np.dot(ci, ci) * np.dot(cj, cj))
            cross = max(cross, abs(float(np.dot(ci, cj))) / denom)
    energy = ((sum(float(np.dot(c, c)) for c in components) + 64 * d.c0**2)
              / np.dot(x.samples, x.samples))
    orth_dev = max(abs(report.max_normalized_cross - cross),
                   abs(report.energy_ratio - energy))

    f, components = collect(fmd_decompose, x, [16.0, 24.0], order=16)
    linoep = f.report
    tails = []
    for i in range(len(components) - 1):
        tail = np.sum(components[i + 1 :], axis=0)
        ci = components[i]
        denom = np.sqrt(np.dot(ci, ci) * np.dot(tail, tail))
        tails.append(abs(float(np.dot(ci, tail))) / denom)
    detrended = x.samples - x.samples.mean()
    ratio = sum(float(np.dot(c, c)) for c in components) / float(np.dot(detrended, detrended))
    linoep_dev = max(abs(linoep.max_tail_cross - max(tails)),
                     abs(linoep.energy_ratio - ratio))

    # the orthogonality and tail figures are bounds: at or above the direct ones
    ok = (worst_transform <= 1e-10 and orth_dev <= 1e-12 and linoep_dev <= 1e-12
          and report.max_normalized_cross >= cross and linoep.max_tail_cross >= max(tails))
    _report(11, "library results match O(N^2) and direct inner-product oracles", ok,
            f"transform={worst_transform:.2e}, orth_dev={orth_dev:.2e}, "
            f"linoep_dev={linoep_dev:.2e}")
