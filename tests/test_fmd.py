"""FIR design, zero-phase/causal filtering, filter-mode decomposition."""

import numpy as np
import pytest

import oracles
from tfekit import (
    BandSpec,
    Decomposition,
    NoiseSpec,
    Signal,
    causal_filter,
    design_fir,
    dft_decompose,
    fmd_decompose,
    gen_chirp,
    gen_noise,
    mix,
    remove_mean,
    verify_linoep,
    zero_phase_filter,
)


def _block_step(order: int) -> int:
    # output samples per overlap-save frame: the block is the smallest power
    # of two >= max(4096, 16 * order), less 2 * order samples of wrap
    block = 4096
    while block < 16 * order:
        block *= 2
    return block - 2 * order


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

    @pytest.mark.parametrize("order", [16, 256, 1024])
    @pytest.mark.parametrize(
        "length",
        ["min", "min+1", "step-1", "step", "step+1", "2step-1", "2step+1"],
    )
    def test_matches_forward_backward_oracle(self, order, length):
        # edges of the frame grid, odd and even N; order 1024 needs a longer block
        taps = order + 1
        step = _block_step(order)
        n = {"min": 3 * taps + 1, "min+1": 3 * taps + 2, "step-1": step - 1, "step": step,
             "step+1": step + 1, "2step-1": 2 * step - 1, "2step+1": 2 * step + 1}[length]
        rng = np.random.default_rng(order + n)
        x = Signal(rng.standard_normal(n) + 0.5, 1000.0)
        h = design_fir("highpass", 120.0, order, 1000.0)
        got = zero_phase_filter(x, h).samples
        want = oracles.zero_phase_filter(x, h).samples
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(x.samples).max()


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
        d = fmd_decompose(x, [250.0], order=256)
        assert d.method == "fmd-a"
        assert d.n_components == 2
        # oracle: brick-wall spectral split of the same signal
        ref = dft_decompose(x, BandSpec(cutoffs_hz=[250.0, 1000.0]).plan(n, fs))
        low_ref, high_ref = ref.components
        cross_high = np.dot(d.components[0] - high_ref, d.components[0] - high_ref)
        cross_low = np.dot(d.components[1] - low_ref, d.components[1] - low_ref)
        assert cross_high / np.dot(high_ref, high_ref) < 0.01
        assert cross_low / np.dot(low_ref, low_ref) < 0.01

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"], ids=["A", "B"])
    @pytest.mark.parametrize("n_bands", [2, 5])
    def test_reconstruction_identity(self, method, n_bands):
        x = gen_noise(NoiseSpec(seed=55, length=4096), 1000.0)
        cutoffs = BandSpec(bands=n_bands).ladder(x.sample_rate)
        d = fmd_decompose(x, cutoffs, order=128, method=method)
        assert d.n_components == n_bands
        err = np.abs(d.reconstruct() - x.samples).max()
        assert err <= 1e-9 * np.abs(x.samples).max()

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"], ids=["A", "B"])
    def test_linoep_structure(self, method):
        x = gen_noise(NoiseSpec(seed=56, length=4096), 1000.0)
        cutoffs = BandSpec(bands=5).ladder(x.sample_rate)
        d = fmd_decompose(x, cutoffs, order=128, method=method)
        report = verify_linoep(d)
        assert report.max_tail_cross <= 1e-8
        assert abs(report.energy_ratio - 1.0) <= 1e-8

    def test_stage_outputs_orthogonal_to_remainder(self):
        # the mixing coefficient forces <c_i, x_{i+1}> = 0 at every stage
        x = gen_noise(NoiseSpec(seed=57, length=2048), 1000.0)
        d = fmd_decompose(x, [100.0, 250.0, 400.0], order=64)
        comps = d.components
        for i in range(len(comps) - 1):
            tail = np.sum(comps[i + 1 :], axis=0)
            denom = np.linalg.norm(comps[i]) * np.linalg.norm(tail)
            assert abs(np.dot(comps[i], tail)) / denom < 1e-12

    def test_pairwise_orthogonality_of_last_two(self):
        x = gen_noise(NoiseSpec(seed=58, length=2048), 1000.0)
        d = fmd_decompose(x, [250.0], order=64)
        c1, c2 = d.components
        denom = np.linalg.norm(c1) * np.linalg.norm(c2)
        assert abs(np.dot(c1, c2)) / denom < 1e-8

    def test_constant_input_degenerates_gracefully(self):
        # zero detrended signal: every alpha denominator is zero
        x = Signal(np.full(2048, 4.2), 1000.0)
        d = fmd_decompose(x, [100.0, 250.0], order=64)
        assert d.c0 == pytest.approx(4.2, abs=1e-12)
        for c in d.components:
            assert np.abs(c).max() < 1e-12

    def test_spectral_ordering(self):
        x = gen_noise(NoiseSpec(seed=59, length=4096), 1000.0)

        def centroid(c):
            power = np.abs(np.fft.rfft(c)) ** 2
            freqs = np.fft.rfftfreq(c.size, 1 / 1000.0)
            return float((freqs * power).sum() / power.sum())

        down = fmd_decompose(x, BandSpec(bands=5).ladder(1000.0), order=128, method="fmd-a")
        cents = [centroid(c) for c in down.components]
        assert all(a > b for a, b in zip(cents, cents[1:]))
        up = fmd_decompose(x, BandSpec(bands=5).ladder(1000.0), order=128, method="fmd-b")
        cents = [centroid(c) for c in up.components]
        assert all(a < b for a, b in zip(cents, cents[1:]))

    def test_causal_mode_tag_and_reconstruction(self):
        x = gen_noise(NoiseSpec(seed=60, length=2048), 1000.0)
        d = fmd_decompose(x, [250.0], order=64, method="causal-fir")
        assert d.method == "causal-fir"
        err = np.abs(d.reconstruct() - x.samples).max()
        assert err <= 1e-9 * np.abs(x.samples).max()
        with pytest.raises(ValueError, match="fmd"):
            verify_linoep(d)

    def test_causal_ladder_matches_causal_filter_bits(self):
        # the array ladder does the arithmetic of one built from causal_filter
        x = gen_noise(NoiseSpec(seed=63, mean=0.3, length=3000), 1000.0)
        cutoffs, order = [80.0, 200.0, 330.0], 64
        c0, current = remove_mean(x)
        floor = 1e-14 * float(np.dot(current.samples, current.samples))
        want = []
        for cutoff in reversed(cutoffs):
            y = causal_filter(current, design_fir("highpass", cutoff, order, 1000.0)).samples
            r = current.samples - y
            denom = float(np.dot(r, r))
            alpha = float(np.dot(y, r)) / denom if denom > floor else 0.0
            want.append(y - alpha * r)
            current = Signal((1 + alpha) * r, 1000.0)
        want.append(current.samples)
        d = fmd_decompose(x, cutoffs, order=order, method="causal-fir")
        assert d.c0 == c0
        assert d.components.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b", "causal-fir"])
    def test_short_input_refused_only_when_a_stage_runs(self, method):
        x = gen_noise(NoiseSpec(seed=64, mean=1.0, length=100), 1000.0)
        d = fmd_decompose(x, [], order=256, method=method)
        assert np.array_equal(d.components, [x.samples - d.c0])
        with pytest.raises(ValueError, match=r"too short .* \(need > 771\)"):
            fmd_decompose(x, [250.0], order=256, method=method)

    def test_cutoff_direction_validation(self):
        # every method takes the ladder increasing, as BandSpec.ladder gives it
        x = gen_noise(NoiseSpec(seed=61, length=2048), 1000.0)
        for method in ("fmd-a", "fmd-b", "causal-fir"):
            for cutoffs in ([250.0, 100.0], [100.0, 100.0]):
                with pytest.raises(ValueError, match="strictly increasing"):
                    fmd_decompose(x, cutoffs, order=64, method=method)

    @pytest.mark.parametrize("method", ["A", "B", "fmd-A", "zero-phase", "causal"])
    def test_only_cli_method_names(self, method):
        x = gen_noise(NoiseSpec(seed=61, length=2048), 1000.0)
        with pytest.raises(ValueError, match="'fmd-a', 'fmd-b' or 'causal-fir'"):
            fmd_decompose(x, [250.0], order=64, method=method)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"], ids=["A", "B"])
    def test_overflowing_energy_rejected(self, method):
        # refused up front, without numpy warnings, for either ladder direction
        x = Signal(1e200 * np.cos(2 * np.pi * np.arange(512) / 16), 100.0)
        with pytest.raises(ValueError, match="overflows float64"):
            fmd_decompose(x, [25.0], order=16, method=method)

    @pytest.mark.filterwarnings("error")
    def test_verify_overflowing_energy_rejected(self):
        big = 1e200 * np.cos(2 * np.pi * np.arange(512) / 16)
        d = Decomposition(0.0, [big, big / 2], "fmd-a")
        with pytest.raises(ValueError, match="overflows float64"):
            verify_linoep(d)

    def test_verify_gate(self):
        x = gen_noise(NoiseSpec(seed=62, length=256), 1000.0)
        d = dft_decompose(x, BandSpec(cutoffs_hz=[500.0]).plan(256, 1000.0))
        with pytest.raises(ValueError):
            verify_linoep(d)


class TestCutoffLadders:
    def test_uniform(self):
        assert BandSpec(bands=4).ladder(8000.0) == [1000.0, 2000.0, 3000.0]
        assert BandSpec(bands=1).ladder(8000.0) == []

    def test_from_spec(self):
        spec = BandSpec.from_settings(plan={"type": "uniform", "bands": 4})
        assert spec.ladder(8000.0) == [1000.0, 2000.0, 3000.0]
        spec = BandSpec.from_settings(plan={"type": "custom", "cutoffs_hz": [5, 10, 20, 25]})
        got = spec.ladder(50.0)
        assert got == [5.0, 10.0, 20.0]
        with pytest.raises(ValueError):
            BandSpec.from_settings(plan={"type": "mystery"})
