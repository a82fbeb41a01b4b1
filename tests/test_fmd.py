"""FIR design, zero-phase/causal filtering, filter-mode decomposition."""

import numpy as np
import pytest

from tfekit import (
    BandSpec,
    Decomposition,
    NoiseSpec,
    Signal,
    causal_filter,
    custom_band_plan,
    design_fir,
    dft_decompose,
    fmd_decompose,
    gen_chirp,
    gen_noise,
    mix,
    uniform_cutoffs,
    verify_linoep,
    zero_phase_filter,
)


def _response(taps: np.ndarray, freq_hz: float, fs: float) -> complex:
    # direct-summation oracle for the frequency response
    return sum(t * np.exp(-2j * np.pi * freq_hz / fs * k) for k, t in enumerate(taps))


class TestDesignFir:
    def test_lowpass_dc_gain(self):
        for cutoff in (50.0, 400.0, 1900.0):
            h = design_fir("lowpass", cutoff, 64, 4000.0)
            assert abs(h.taps.sum() - 1.0) <= 1e-6

    def test_highpass_is_spectral_inversion(self):
        lp = design_fir("lowpass", 500.0, 64, 4000.0)
        hp = design_fir("highpass", 500.0, 64, 4000.0)
        delta = np.zeros(65)
        delta[32] = 1.0
        assert np.abs(hp.taps - (delta - lp.taps)).max() < 1e-15
        assert abs(hp.taps.sum()) <= 1e-6

    def test_half_gain_at_cutoff(self):
        for order in (64, 128, 256):
            h = design_fir("lowpass", 1000.0, order, 8000.0)
            assert abs(abs(_response(h.taps, 1000.0, 8000.0)) - 0.5) < 0.05

    def test_symmetry_exact(self):
        h = design_fir("lowpass", 123.4, 90, 4000.0)
        assert np.array_equal(h.taps, h.taps[::-1])
        assert h.order == 90

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            design_fir("lowpass", 2000.0, 64, 4000.0)  # at Nyquist
        with pytest.raises(ValueError):
            design_fir("lowpass", 0.0, 64, 4000.0)
        with pytest.raises(ValueError):
            design_fir("lowpass", 100.0, 65, 4000.0)  # odd order
        with pytest.raises(ValueError):
            design_fir("lowpass", 100.0, 8, 4000.0)  # too short
        with pytest.raises(ValueError):
            design_fir("bandpass", 100.0, 64, 4000.0)


class TestZeroPhaseFilter:
    def test_passband_tone_scaled_not_shifted(self):
        fs = 8000.0
        h = design_fir("lowpass", 1000.0, 128, fs)
        tone = gen_chirp(400, 400, 1.0, fs)
        out = zero_phase_filter(tone, h)
        expected_gain = abs(_response(h.taps, 400.0, fs)) ** 2
        mid = slice(2000, 6000)
        gain = np.abs(out.samples[mid]).max() / np.abs(tone.samples[mid]).max()
        assert gain == pytest.approx(expected_gain, abs=1e-3)
        corr = np.correlate(out.samples, tone.samples, "full")
        assert corr.argmax() - (len(tone) - 1) == 0

    def test_stopband_rejection(self):
        fs = 8000.0
        h = design_fir("lowpass", 1000.0, 128, fs)
        tone = gen_chirp(2500, 2500, 1.0, fs)
        out = zero_phase_filter(tone, h)
        assert np.abs(out.samples[500:-500]).max() < 1e-3

    def test_impulse_response_symmetric(self):
        fs = 1000.0
        h = design_fir("lowpass", 100.0, 32, fs)
        n, n0 = 512, 256
        impulse = np.zeros(n)
        impulse[n0] = 1.0
        out = zero_phase_filter(Signal(impulse, fs), h).samples
        width = 80
        left = out[n0 - width : n0]
        right = out[n0 + 1 : n0 + width + 1]
        assert np.abs(left - right[::-1]).max() < 1e-12

    def test_too_short_signal(self):
        h = design_fir("lowpass", 100.0, 64, 1000.0)
        with pytest.raises(ValueError, match="too short"):
            zero_phase_filter(Signal(np.zeros(100), 1000.0), h)


class TestCausalFilter:
    def test_tone_delayed_by_half_order(self):
        # tone period (320 samples) far exceeds the group delay, so the
        # global correlation peak sits exactly at order/2
        fs, order = 8000.0, 128
        h = design_fir("lowpass", 1000.0, order, fs)
        tone = gen_chirp(25, 25, 1.0, fs)
        out = causal_filter(tone, h)
        corr = np.correlate(out.samples, tone.samples, "full")
        assert corr.argmax() - (len(tone) - 1) == order // 2

    def test_impulse_reproduces_taps(self):
        fs = 1000.0
        h = design_fir("lowpass", 100.0, 32, fs)
        n, n0 = 512, 100
        impulse = np.zeros(n)
        impulse[n0] = 1.0
        out = causal_filter(Signal(impulse, fs), h).samples
        assert np.array_equal(out[n0 : n0 + 33], h.taps)
        assert np.abs(out[:n0]).max() == 0.0


class TestFmdDecompose:
    def test_two_tone_split_against_dft_oracle(self):
        fs, n = 2000.0, 4000
        t = np.arange(n) / fs
        x = Signal(np.cos(2 * np.pi * 100 * t) + np.cos(2 * np.pi * 400 * t), fs)
        d = fmd_decompose(x, [250.0], order=256, part="A")
        assert d.method == "fmd-A"
        assert d.n_components == 2
        # oracle: brick-wall spectral split of the same signal
        ref = dft_decompose(x, custom_band_plan([250.0, 1000.0], n, fs))
        low_ref, high_ref = ref.components
        cross_high = np.dot(d.components[0] - high_ref, d.components[0] - high_ref)
        cross_low = np.dot(d.components[1] - low_ref, d.components[1] - low_ref)
        assert cross_high / np.dot(high_ref, high_ref) < 0.01
        assert cross_low / np.dot(low_ref, low_ref) < 0.01

    @pytest.mark.parametrize("part", ["A", "B"])
    @pytest.mark.parametrize("n_bands", [2, 5])
    def test_reconstruction_identity(self, part, n_bands):
        x = gen_noise(NoiseSpec(seed=55, length=4096), 1000.0)
        cutoffs = uniform_cutoffs(n_bands, x.sample_rate)
        if part == "A":
            cutoffs = cutoffs[::-1]
        d = fmd_decompose(x, cutoffs, order=128, part=part)
        assert d.n_components == n_bands
        err = np.abs(d.reconstruct() - x.samples).max()
        assert err <= 1e-9 * np.abs(x.samples).max()

    @pytest.mark.parametrize("part", ["A", "B"])
    def test_linoep_structure(self, part):
        x = gen_noise(NoiseSpec(seed=56, length=4096), 1000.0)
        cutoffs = uniform_cutoffs(5, x.sample_rate)
        if part == "A":
            cutoffs = cutoffs[::-1]
        d = fmd_decompose(x, cutoffs, order=128, part=part)
        report = verify_linoep(d)
        assert report.max_tail_cross <= 1e-8
        assert abs(report.energy_ratio - 1.0) <= 1e-8

    def test_stage_outputs_orthogonal_to_remainder(self):
        # the mixing coefficient forces <c_i, x_{i+1}> = 0 at every stage
        x = gen_noise(NoiseSpec(seed=57, length=2048), 1000.0)
        d = fmd_decompose(x, [400.0, 250.0, 100.0], order=64, part="A")
        comps = d.components
        for i in range(len(comps) - 1):
            tail = np.sum(comps[i + 1 :], axis=0)
            denom = np.linalg.norm(comps[i]) * np.linalg.norm(tail)
            assert abs(np.dot(comps[i], tail)) / denom < 1e-12

    def test_pairwise_orthogonality_of_last_two(self):
        x = gen_noise(NoiseSpec(seed=58, length=2048), 1000.0)
        d = fmd_decompose(x, [250.0], order=64, part="A")
        c1, c2 = d.components
        denom = np.linalg.norm(c1) * np.linalg.norm(c2)
        assert abs(np.dot(c1, c2)) / denom < 1e-8

    def test_constant_input_degenerates_gracefully(self):
        # zero detrended signal: every alpha denominator is zero
        x = Signal(np.full(2048, 4.2), 1000.0)
        d = fmd_decompose(x, [250.0, 100.0], order=64, part="A")
        assert d.c0 == pytest.approx(4.2, abs=1e-12)
        for c in d.components:
            assert np.abs(c).max() < 1e-12

    def test_spectral_ordering(self):
        x = gen_noise(NoiseSpec(seed=59, length=4096), 1000.0)

        def centroid(c):
            power = np.abs(np.fft.rfft(c)) ** 2
            freqs = np.fft.rfftfreq(c.size, 1 / 1000.0)
            return float((freqs * power).sum() / power.sum())

        down = fmd_decompose(x, uniform_cutoffs(5, 1000.0)[::-1], order=128, part="A")
        cents = [centroid(c) for c in down.components]
        assert all(a > b for a, b in zip(cents, cents[1:]))
        up = fmd_decompose(x, uniform_cutoffs(5, 1000.0), order=128, part="B")
        cents = [centroid(c) for c in up.components]
        assert all(a < b for a, b in zip(cents, cents[1:]))

    def test_causal_mode_tag_and_reconstruction(self):
        x = gen_noise(NoiseSpec(seed=60, length=2048), 1000.0)
        d = fmd_decompose(x, [250.0], order=64, part="A", filtering="causal")
        assert d.method == "causal-fir"
        err = np.abs(d.reconstruct() - x.samples).max()
        assert err <= 1e-9 * np.abs(x.samples).max()
        with pytest.raises(ValueError, match="fmd"):
            verify_linoep(d)

    def test_cutoff_direction_validation(self):
        x = gen_noise(NoiseSpec(seed=61, length=2048), 1000.0)
        with pytest.raises(ValueError, match="decreasing"):
            fmd_decompose(x, [100.0, 250.0], order=64, part="A")
        with pytest.raises(ValueError, match="increasing"):
            fmd_decompose(x, [250.0, 100.0], order=64, part="B")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("part", ["A", "B"])
    def test_overflowing_energy_rejected(self, part):
        # refused up front, without numpy warnings, for either ladder direction
        x = Signal(1e200 * np.cos(2 * np.pi * np.arange(512) / 16), 100.0)
        with pytest.raises(ValueError, match="overflows float64"):
            fmd_decompose(x, [25.0], order=16, part=part)

    @pytest.mark.filterwarnings("error")
    def test_verify_overflowing_energy_rejected(self):
        big = 1e200 * np.cos(2 * np.pi * np.arange(512) / 16)
        d = Decomposition(0.0, [big, big / 2], "fmd-A", 100.0)
        with pytest.raises(ValueError, match="overflows float64"):
            verify_linoep(d)

    def test_verify_gate(self):
        x = gen_noise(NoiseSpec(seed=62, length=256), 1000.0)
        d = dft_decompose(x, custom_band_plan([500.0], 256, 1000.0))
        with pytest.raises(ValueError):
            verify_linoep(d)


class TestCutoffLadders:
    def test_uniform(self):
        assert uniform_cutoffs(4, 8000.0) == [1000.0, 2000.0, 3000.0]
        assert uniform_cutoffs(1, 8000.0) == []

    def test_from_spec(self):
        assert BandSpec(bands=4).ladder(8000.0) == [1000.0, 2000.0, 3000.0]
        got = BandSpec(cutoffs_hz=[5, 10, 20, 25]).ladder(50.0)
        assert got == [5.0, 10.0, 20.0]
        with pytest.raises(ValueError):
            BandSpec.from_settings(plan={"type": "mystery"})
