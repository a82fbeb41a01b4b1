"""Generators, mixing, padding, mean removal."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from tfekit import (
    NoiseSpec,
    Signal,
    chirp_true_if,
    delay_pad,
    fm_true_if,
    gen_chirp,
    gen_delta,
    gen_fm,
    gen_noise,
    mix,
    remove_mean,
)


class TestSignal:
    def test_validation(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0]), 100.0)
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan]), 100.0)
        with pytest.raises(ValueError):
            Signal(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            Signal(np.array([1.0, 2.0]), -5.0)

    def test_samples_immutable(self):
        x = Signal(np.zeros(10), 10.0)
        with pytest.raises(ValueError):
            x.samples[0] = 1.0

    def test_properties(self):
        x = Signal(np.ones(100), 50.0)
        assert len(x) == 100
        assert x.sample_rate == 50.0


class TestChirp:
    def test_paper_fixture_true_if(self):
        x = gen_chirp(1000, 2000, 1.0, 8000)
        assert len(x) == 8000
        truth = chirp_true_if(1000, 2000, 1.0, 8000)
        # true IF at t = 0.5 s is the midpoint frequency
        assert truth[4000] == pytest.approx(1500.0, abs=1e-9)

    def test_zero_sweep_is_pure_tone(self):
        x = gen_chirp(100, 100, 1.0, 1000)
        t = np.arange(1000) / 1000.0
        assert np.allclose(x.samples, np.cos(2 * np.pi * 100 * t), atol=1e-12)

    def test_phase_polynomial_against_exact_arithmetic(self):
        # independent high-precision evaluator: Fraction phase in cycles
        f0, f1, dur, fs = 500, 1500, 1, 8000
        x = gen_chirp(f0, f1, dur, fs)

        def cycles(n):
            t = Fraction(n, fs)
            return f0 * t + Fraction(f1 - f0, 2 * dur) * t * t

        # full sweep accumulates exactly 1000 cycles at t = 1
        assert cycles(fs) == 1000
        for n in (0, 1, 1234, 4000, 7999):
            frac = cycles(n) % 1
            expected = math.cos(2 * math.pi * float(frac))
            assert x.samples[n] == pytest.approx(expected, abs=1e-11)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            gen_chirp(1000, 5000, 1.0, 8000)
        with pytest.raises(ValueError):
            gen_chirp(-10, 100, 1.0, 8000)

    def test_unit_amplitude_bound(self):
        x = gen_chirp(1000, 2000, 1.0, 8000)
        assert np.abs(x.samples).max() <= 1 + 1e-12


class TestFm:
    def test_if_range(self):
        truth = fm_true_if(780, 200, 10, 1.0, 8000)
        assert truth.min() >= 580 - 1e-9
        assert truth.max() <= 980 + 1e-9

    def test_zero_deviation_is_pure_tone(self):
        x = gen_fm(780, 0, 10, 1.0, 8000)
        t = np.arange(8000) / 8000.0
        assert np.allclose(x.samples, np.cos(2 * np.pi * 780 * t), atol=1e-12)

    def test_true_if_matches_complex_step_derivative(self):
        # complex-step differentiation of the phase argument
        fc, dev, fmod, fs = 780.0, 200.0, 10.0, 8000.0
        truth = fm_true_if(fc, dev, fmod, 1.0, fs)
        h = 1e-20
        for n in (0, 17, 1000, 4001, 7999):
            t = n / fs
            phase = 2 * math.pi * fc * (t + 1j * h) + (dev / fmod) * cmath.sin(
                2 * math.pi * fmod * (t + 1j * h)
            )
            derivative = phase.imag / h / (2 * math.pi)
            assert abs(truth[n] - derivative) < 1e-12 * max(1.0, abs(derivative))

    def test_invalid_modulation_rate(self):
        with pytest.raises(ValueError, match="modulation rate"):
            gen_fm(780, 200, 0.0, 1.0, 8000)
        with pytest.raises(ValueError, match="Nyquist"):
            gen_fm(3900, 200, 10, 1.0, 8000)

    def test_unit_amplitude_bound(self):
        x = gen_fm(780, 200, 10, 1.0, 8000)
        assert np.abs(x.samples).max() <= 1 + 1e-12


class TestDelta:
    def test_paper_fixture(self):
        x = gen_delta(1999, 4000, 1000)
        assert x.samples[1999] == 1.0
        assert x.samples.sum() == 1.0

    def test_minimal(self):
        x = gen_delta(0, 2, 1)
        assert list(x.samples) == [1.0, 0.0]

    def test_unit_sum_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 500))
            n0 = int(rng.integers(0, n))
            assert gen_delta(n0, n, 100).samples.sum() == 1.0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            gen_delta(4000, 4000, 1000)
        with pytest.raises(IndexError):
            gen_delta(-1, 4000, 1000)


class TestNoise:
    def test_moments(self):
        spec = NoiseSpec(seed=42, mean=0.0, variance=1.0, length=10240)
        x = gen_noise(spec, 100.0)
        assert abs(x.samples.mean()) < 4 / np.sqrt(10240)
        assert abs(x.samples.var() - 1.0) < 0.1

    def test_deterministic(self):
        spec = NoiseSpec(seed=7, length=512)
        a = gen_noise(spec, 100.0)
        b = gen_noise(spec, 100.0)
        assert np.array_equal(a.samples, b.samples)
        c = gen_noise(NoiseSpec(seed=8, length=512), 100.0)
        assert not np.array_equal(a.samples, c.samples)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(seed=1, variance=0.0, length=64)


class TestMix:
    def test_five_chirp_fixture(self):
        bands = [(500, 1500), (1000, 2000), (1500, 2500), (2000, 3000), (2500, 3500)]
        parts = [gen_chirp(f0, f1, 2.0, 8000) for f0, f1 in bands]
        total = mix(parts)
        assert np.allclose(total.samples, sum(p.samples for p in parts), rtol=1e-12)

    def test_additive_identity(self):
        x = gen_chirp(100, 200, 1.0, 1000)
        zero = Signal(np.zeros(len(x)), 1000.0)
        assert np.array_equal(mix([x, zero]).samples, x.samples)

    def test_cancellation(self):
        x = gen_chirp(100, 200, 1.0, 1000)
        neg = Signal(-x.samples, 1000.0)
        assert np.abs(mix([x, neg]).samples).max() == 0.0

    def test_associative_commutative(self):
        rng = np.random.default_rng(0)
        a, b, c = (Signal(rng.normal(size=256), 100.0) for _ in range(3))
        abc = mix([a, b, c]).samples
        scale = np.abs(abc).max()
        assert np.abs(mix([c, a, b]).samples - abc).max() <= 1e-12 * scale
        assert np.abs(mix([mix([a, b]), c]).samples - abc).max() <= 1e-12 * scale

    def test_mismatches_rejected(self):
        x = gen_chirp(100, 200, 1.0, 1000)
        with pytest.raises(ValueError, match="rate"):
            mix([x, Signal(np.zeros(len(x)), 999.0)])
        with pytest.raises(ValueError, match="length"):
            mix([x, Signal(np.zeros(len(x) + 1), 1000.0)])
        with pytest.raises(ValueError):
            mix([])


class TestDelayPad:
    def test_delayed_chirp_frame(self):
        x = gen_chirp(500, 1500, 1.0, 8000)
        y = delay_pad(x, 0.5, 1.5)
        assert len(y) == 12000
        assert np.all(y.samples[:4000] == 0)
        assert np.array_equal(y.samples[4000:12000], x.samples)

    def test_zero_delay_identity(self):
        x = gen_chirp(500, 1500, 1.0, 8000)
        assert np.array_equal(delay_pad(x, 0.0, 1.0).samples, x.samples)

    def test_energy_preserved(self):
        x = gen_chirp(500, 1500, 1.0, 8000)
        padded = delay_pad(x, 0.25, 2.0).samples
        assert np.dot(padded, padded) == np.dot(x.samples, x.samples)

    def test_negative_delay_rejected(self):
        x = gen_chirp(500, 1500, 1.0, 8000)
        with pytest.raises(ValueError):
            delay_pad(x, -0.1, 2.0)
        with pytest.raises(ValueError):
            delay_pad(x, 0.8, 1.5)


class TestRemoveMean:
    def test_constant(self):
        c0, out = remove_mean(Signal(np.full(64, 3.0), 10.0))
        assert c0 == 3.0
        assert np.abs(out.samples).max() == 0.0

    def test_zero_mean_tone_unchanged(self):
        x = gen_chirp(100, 100, 1.0, 1000)
        c0, out = remove_mean(x)
        assert abs(c0) < 1e-12
        assert np.abs(out.samples - x.samples).max() < 1e-12

    def test_random_signal_direct_summation(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(2.5, 1.0, 4097)
        x = Signal(samples, 100.0)
        c0, out = remove_mean(x)
        # oracle: compensated summation of the output
        assert abs(math.fsum(out.samples) / len(out)) < 1e-12 * np.abs(samples).max()
        # exact pointwise reconstruction
        assert np.abs(c0 + out.samples - samples).max() <= 1e-12 * np.abs(samples).max()
