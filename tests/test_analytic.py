"""Transforms, analytic-signal construction, phase increments; the unwrapping oracle."""

import numpy as np
import pytest

import oracles
from oracles import (
    dft_direct,
    hilbert_kernel,
    hilbert_kernel_fir,
    idft_direct,
    one_sided,
    unwrap_phase,
    wrap_angle,
)
from streams import collect, drop, kept_bands
from tfekit import (
    AnalyticSignal,
    BandSpec,
    Signal,
    analytic_signal,
    dft_decompose,
    gen_delta,
    if_track,
)

_RNG = np.random.default_rng(31)

# inputs whose quadrature must match the two-transform oracle
QUADRATURE_CASES = {
    "even": _RNG.normal(size=64),
    "odd": _RNG.normal(size=65),
    "nyquist-only": np.where(np.arange(1000) % 2 == 0, 1.0, -1.0),
    "dc-only": np.full(33, -2.5),
    "all-zero": np.zeros(16),
    "tiny": 1e-300 * _RNG.normal(size=128),
    "huge": 1e150 * _RNG.normal(size=127),
}


class TestDft:
    """The DFT bank's transform pair: the forward transform scaled by 1/N, the inverse unscaled."""

    def test_delta_spectrum(self):
        # a flat spectrum of 1/N: c0, the bin-1 cosine and the Nyquist tone all carry 0.25
        d, rows = collect(dft_decompose, Signal([1.0, 0.0, 0.0, 0.0], 4.0),
                          BandSpec(bands=2).plan(4, 4.0))
        assert np.allclose(d.c0, 0.25)
        assert np.allclose(rows, [[0.5, 0.0, -0.5, 0.0], [0.25, -0.25, 0.25, -0.25]])

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=257)
        scale = np.abs(x).max()
        z = one_sided(np.fft.fft(x, norm="forward"), 0, 128)
        assert np.abs(z.real - x).max() <= 1e-10 * scale
        assert np.abs(z.imag - analytic_signal(Signal(x, 1.0)).imag).max() <= 1e-10 * scale
        d = dft_decompose(Signal(x, 1.0), BandSpec(bands=1).plan(257, 1.0), drop)
        assert d.report.reconstruction_error <= 1e-10

    def test_bin_aligned_cosine(self):
        # the cosine is 0.5 at bin 1 and at its mirror: band 1 is its analytic signal
        n = np.arange(8)
        x, plan = Signal(np.cos(2 * np.pi * n / 8), 8.0), BandSpec(bands=4).plan(8, 8.0)
        d, bands = dft_decompose(x, plan, drop), kept_bands(x, plan)
        assert abs(d.c0) < 1e-12
        assert np.abs(bands[0].real + 1j * bands[0].imag - np.exp(2j * np.pi * n / 8)).max() < 1e-12
        assert max(np.abs(band.real + 1j * band.imag).max() for band in bands[1:]) < 1e-12

    @pytest.mark.parametrize("n", [7, 8, 64, 257])
    def test_matches_direct_summation(self, n):
        # one bin per band, so each band's analytic signal is one term of the O(N^2) sums
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        spectrum = dft_direct(x)
        plan = BandSpec(bands=n // 2).plan(n, 1.0)
        d, bands = dft_decompose(Signal(x, 1.0), plan, drop), kept_bands(Signal(x, 1.0), plan)
        assert abs(d.c0 - spectrum[0].real) <= 1e-10 * np.abs(spectrum).max()
        for k, band in enumerate(bands, start=1):
            one_bin = np.zeros(n, dtype=complex)
            one_bin[k] = spectrum[k] if 2 * k == n else 2 * spectrum[k]
            z = band.real + 1j * band.imag
            assert np.abs(z - idft_direct(one_bin)).max() <= 1e-10 * np.abs(x).max()

    def test_empty_rejected(self):
        # the analytic signal's length rule, whether or not the bands are tracked
        for n in (2, 3):
            for consumer in (drop, lambda component, band: band()):
                with pytest.raises(ValueError, match=f"at least 4 samples, got {n}"):
                    dft_decompose(Signal(np.ones(n), 1.0), (0, 1), consumer)
        with pytest.raises(ValueError, match="at least 2 samples"):
            Signal([], 1.0)


class TestAnalyticSignal:
    def test_bin_aligned_cosine_quadrature(self):
        n = np.arange(64)
        x = Signal(np.cos(2 * np.pi * n / 16), 1.0)
        a = analytic_signal(x)
        assert np.abs(a.imag - np.sin(2 * np.pi * n / 16)).max() < 1e-10
        assert np.abs(np.abs(a.real + 1j * a.imag) - 1.0).max() < 1e-10

    def test_delta_envelope_matches_sinc(self):
        n0, n = 1999, 4000
        a = analytic_signal(gen_delta(n0, n, 1000))
        m = np.arange(n) - n0
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.abs(np.sin(np.pi * m / 2) / (np.pi * m / 2))
        expected[n0] = 1.0
        interior = slice(int(0.05 * n), int(0.95 * n))
        assert np.abs(np.abs(a.real + 1j * a.imag) - expected)[interior].max() < 1e-3

    def test_negative_bins_vanish(self):
        rng = np.random.default_rng(9)
        x = Signal(rng.normal(size=64), 1.0)
        a = analytic_signal(x)
        z = x.samples + 1j * a.imag
        spectrum = dft_direct(z)
        assert np.abs(spectrum[33:]).max() < 1e-12

    def test_real_part_equals_input(self):
        # one-sided construction rebuilt entirely with the O(N^2) oracle
        rng = np.random.default_rng(10)
        x = Signal(rng.normal(size=200), 1.0)
        spectrum = dft_direct(x.samples)
        one_sided = np.zeros_like(spectrum)
        one_sided[0] = spectrum[0]
        one_sided[1:100] = 2 * spectrum[1:100]
        one_sided[100] = spectrum[100]
        z = idft_direct(one_sided)
        scale = np.abs(x.samples).max()
        assert np.abs(z.real - x.samples).max() <= 1e-10 * scale
        a = analytic_signal(x)
        assert np.abs(z.imag - a.imag).max() <= 1e-10 * scale

    def test_envelope_bounds_signal(self):
        rng = np.random.default_rng(12)
        x = Signal(rng.normal(size=333), 1.0)
        a = analytic_signal(x)
        assert np.all(np.abs(a.real + 1j * a.imag) >= np.abs(x.samples) - 1e-10)

    def test_one_sided_parseval(self):
        rng = np.random.default_rng(13)
        x = Signal(rng.normal(size=128), 1.0)
        a = analytic_signal(x)
        z = x.samples + 1j * a.imag
        spectrum = dft_direct(x.samples)
        n = len(x)
        energy_z = np.sum(np.abs(z) ** 2)
        energy_x = np.sum(x.samples**2)
        nyquist = abs(spectrum[n // 2]) ** 2
        expected = 2 * energy_x - n * spectrum[0].real ** 2 - n * nyquist
        assert energy_z == pytest.approx(expected, rel=1e-10)

    def test_all_zero_degenerate(self):
        a = analytic_signal(Signal(np.zeros(16), 1.0))
        assert not (a.real.any() or a.imag.any())
        assert np.abs(a.real + 1j * a.imag).max() == 0.0
        assert np.abs(a.increments()).max() == 0.0

    def test_parts_of_mismatched_shape_refused(self):
        # arctan2 would broadcast a length-1 quadrature silently
        for real, imag in [(np.ones(8), np.ones(1)), (np.ones(8), np.ones(7)),
                           (np.ones((2, 4)), np.ones((2, 4)))]:
            with pytest.raises(ValueError, match="1-D of one shape"):
                AnalyticSignal(real, imag, 1.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 4 samples"):
            analytic_signal(Signal(np.array([1.0, 2.0, 3.0]), 1.0))

    @pytest.mark.parametrize("n", [4, 5, 16, 17, 4000])
    def test_real_part_is_the_input_bit_for_bit(self, n):
        x = Signal(np.random.default_rng(n).normal(size=n), 1.0)
        assert analytic_signal(x).real.tobytes() == x.samples.tobytes()

    @pytest.mark.parametrize("case", sorted(QUADRATURE_CASES))
    def test_quadrature_matches_two_transform_oracle(self, case):
        x = Signal(QUADRATURE_CASES[case], 100.0)
        got = analytic_signal(x)
        want = oracles.analytic_signal(x)
        scale = np.abs(x.samples).max()
        assert np.abs(got.imag - want.imag).max() <= 1e-12 * scale
        assert (not (got.real.any() or got.imag.any())) == (case == "all-zero")

    @pytest.mark.parametrize("case", sorted(QUADRATURE_CASES))
    def test_matches_scipy_hilbert(self, case):
        # an oracle written apart from this package and its tests
        scipy_signal = pytest.importorskip("scipy.signal")
        x = Signal(QUADRATURE_CASES[case], 100.0)
        want = scipy_signal.hilbert(x.samples)
        a = analytic_signal(x)
        assert np.abs(a.real + 1j * a.imag - want).max() <= 1e-12 * np.abs(x.samples).max()

    def test_nyquist_only_reads_half_the_rate(self):
        x = Signal(QUADRATURE_CASES["nyquist-only"], 100.0)
        assert np.abs(analytic_signal(x).imag).max() <= 1e-12
        assert np.all(if_track(x).frequency_hz == 50.0)


class TestIncrements:
    def test_folded_into_half_open_range(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=500) + 1j * rng.normal(size=500)
        d = AnalyticSignal(z.real, z.imag, 1.0).increments()
        assert d.size == 499
        assert np.all((d > -np.pi) & (d <= np.pi))
        assert np.abs(d - wrap_angle(np.diff(np.angle(z)))).max() <= 1e-12
        # the unwrapped phase's differences, without the unwrapping
        assert np.abs(d - np.diff(unwrap_phase(np.angle(z)))).max() <= 1e-12

    def test_half_turns_read_pi(self):
        z = np.array([1.0, -1.0, 1.0, -1.0]) + 0j
        assert AnalyticSignal(z.real, z.imag, 1.0).increments().tolist() == [np.pi] * 3
        z = np.array([1.0, -1.0 - 1e-30j, 1.0])
        assert AnalyticSignal(z.real, z.imag, 1.0).increments().tolist() == [np.pi] * 2

    def test_masked_fold_matches_boolean_index_fold(self):
        # -0.0 and 0.0 angles, +-pi half turns and their differences, then noise
        edges = np.array([1 + 0j, complex(1, -0.0), complex(-1, 0.0), complex(-1, -0.0),
                          complex(1, -0.0), 1 + 0j, complex(-1, -0.0), complex(-1, 0.0),
                          complex(-1, -0.0), 1j, -1j, 1j])
        rng = np.random.default_rng(15)
        z = np.concatenate([edges, rng.normal(size=300) + 1j * rng.normal(size=300)])
        got = AnalyticSignal(z.real, z.imag, 1.0).increments()
        want = oracles.fold_increments(z)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0]) and got[0] == 0.0  # angle -0.0 after 0.0
        assert got[1] == np.pi and got[3] == np.pi  # -pi folds to +pi


class TestOneSided:
    """The bank's bands are runs of bins of the signal's one-sided spectrum."""

    @pytest.mark.parametrize("n", [16, 17])
    def test_bands_add_up_to_the_full_band(self, n):
        # c0, then runs of bins up to Nyquist: the analytic signal is linear in its bins
        x = Signal(np.random.default_rng(n).normal(size=n), 1.0)
        d = dft_decompose(x, (0, 3, 4, n // 2), drop)
        parts = [band.real + 1j * band.imag for band in kept_bands(x, (0, 3, 4, n // 2))]
        a = analytic_signal(x)
        full = a.real + 1j * a.imag
        assert np.abs(d.c0 + np.sum(parts, axis=0) - full).max() <= 1e-12

    def test_bins_outside_the_half_spectrum_rejected(self):
        x = Signal(np.arange(8.0), 1.0)
        for bounds, message in [((-1, 2, 4), "start at 0"), ((0, 3, 2, 4), "strictly increasing"),
                                ((0, 1, 5), "last boundary must be 4")]:
            with pytest.raises(ValueError, match=message):
                dft_decompose(x, bounds, drop)


class TestHilbertKernel:
    def test_closed_form_values(self):
        taps = hilbert_kernel(8)
        center = 8
        assert taps[center] == 0.0
        assert taps[center + 1] == pytest.approx(2 / np.pi, abs=1e-15)
        assert taps[center - 1] == pytest.approx(-2 / np.pi, abs=1e-15)
        assert abs(taps[center + 1]) == pytest.approx(0.63662, abs=1e-5)
        even = taps[center::2]
        assert np.abs(even).max() == 0.0
        # odd kernel
        assert np.array_equal(taps, -taps[::-1])

    @pytest.mark.parametrize("half_length", [16, 64])
    def test_matches_spectral_quadrature_on_interior(self, half_length):
        n = np.arange(256)
        x = Signal(np.cos(2 * np.pi * n / 16), 1.0)
        expected = analytic_signal(x).imag
        out = hilbert_kernel_fir(x, half_length)
        core = slice(half_length, -half_length)
        assert np.abs(out[core] - expected[core]).max() < 2 / half_length

    def test_zero_in_zero_out(self):
        out = hilbert_kernel_fir(Signal(np.zeros(64), 1.0), 8)
        assert np.abs(out).max() == 0.0

    def test_minimum_half_length(self):
        with pytest.raises(ValueError):
            hilbert_kernel(7)
        with pytest.raises(ValueError):
            hilbert_kernel_fir(Signal(np.zeros(64), 1.0), 4)


class TestUnwrapPhase:
    def test_single_jump(self):
        out = unwrap_phase([3.0, -3.0])
        assert out[0] == 3.0
        assert out[1] == pytest.approx(-3.0 + 2 * np.pi, abs=1e-12)
        assert out[1] == pytest.approx(3.2832, abs=1e-4)

    def test_smooth_ramp_unchanged(self):
        ramp = np.array([0.0, 0.1, 0.2])
        assert np.allclose(unwrap_phase(ramp), ramp, atol=1e-15)

    def test_wrap_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            phase = rng.uniform(-20, 20, size=int(rng.integers(2, 300)))
            out = unwrap_phase(phase)
            assert np.abs(wrap_angle(out) - wrap_angle(phase)).max() < 1e-9

    def test_differences_bounded(self):
        rng = np.random.default_rng(22)
        phase = rng.uniform(-50, 50, size=1000)
        out = unwrap_phase(phase)
        assert np.abs(np.diff(out)).max() <= np.pi + 1e-9

    def test_first_sample_preserved(self):
        rng = np.random.default_rng(23)
        phase = rng.uniform(-10, 10, size=50)
        assert unwrap_phase(phase)[0] == phase[0]
