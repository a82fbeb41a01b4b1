"""Phase differencing and the two IF estimators."""

import tracemalloc

import numpy as np
import pytest

from oracles import four_pass_if
from tfekit import (
    BandSpec,
    DiffScheme,
    IFWorkspace,
    Signal,
    analytic_signal,
    chirp_true_if,
    conventional_if,
    dft_decompose,
    gen_chirp,
    gen_delta,
    gen_fm,
    gen_noise,
    if_track,
    mix,
    NoiseSpec,
    phase_diff,
    positive_if,
)


class TestPhaseDiff:
    def test_linear_phase_exact(self):
        increments = np.diff(0.3 * np.arange(50))
        for scheme in DiffScheme:
            out = phase_diff(increments, scheme)
            assert out.size == 50
            assert np.allclose(out, 0.3, atol=1e-12)

    def test_quadratic_phase_bias(self):
        # analytic derivative of 0.001*n^2 is 0.002*n; forward picks up half
        # the curvature, central is exact
        n = np.arange(200)
        increments = np.diff(0.001 * n * n)
        derivative = 0.002 * n
        central = phase_diff(increments, DiffScheme.CENTRAL)
        assert np.abs(central[1:-1] - derivative[1:-1]).max() < 1e-12
        forward = phase_diff(increments, DiffScheme.FORWARD)
        assert np.abs(forward[:-1] - derivative[:-1] - 0.001).max() < 1e-12

    def test_end_duplication(self):
        assert list(phase_diff([0.5], DiffScheme.FORWARD)) == [0.5, 0.5]
        assert list(phase_diff([0.5], DiffScheme.BACKWARD)) == [0.5, 0.5]
        assert list(phase_diff([0.5, 0.25], DiffScheme.FORWARD)) == [0.5, 0.25, 0.25]
        assert list(phase_diff([0.5, 0.25], DiffScheme.BACKWARD)) == [0.5, 0.5, 0.25]
        central = phase_diff([0.5, 0.7], DiffScheme.CENTRAL)
        assert central.size == 3
        assert central[0] == central[1]
        assert central[-1] == central[-2]

    def test_too_short(self):
        with pytest.raises(ValueError):
            phase_diff([], DiffScheme.FORWARD)
        with pytest.raises(ValueError):
            phase_diff([1.0], DiffScheme.CENTRAL)

    def test_scheme_from_string(self):
        assert np.allclose(phase_diff([1.0], "forward"), [1.0, 1.0])


class TestConventionalIf:
    def test_quarter_nyquist(self):
        diffs = np.full(10, np.pi / 2)
        assert np.allclose(conventional_if(diffs, 1000.0), 250.0)

    def test_negative_passes_through(self):
        out = conventional_if(np.array([-0.3, 0.3]), 1000.0)
        assert out[0] < 0

    def test_round_trip_tone(self):
        f0, fs = 125.0, 1000.0
        phase = 2 * np.pi * f0 * np.arange(100) / fs
        out = conventional_if(phase_diff(np.diff(phase), DiffScheme.FORWARD), fs)
        assert np.abs(out - f0).max() < 1e-9


class TestPositiveIf:
    def test_negative_branch(self):
        out = positive_if(np.array([-0.3]), 2 * np.pi)
        assert out[0] == pytest.approx(-0.3 + np.pi, abs=1e-12)

    def test_positive_branch_unchanged(self):
        out = positive_if(np.array([0.7]), 2 * np.pi)
        assert out[0] == pytest.approx(0.7, abs=1e-15)

    def test_zero_maps_to_zero(self):
        assert positive_if(np.array([0.0]), 1000.0)[0] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            positive_if(np.array([np.nan]), 1000.0)

    def test_out_of_range_rejected(self):
        assert positive_if(np.array([-np.pi, np.pi]), 2 * np.pi).tolist() == [0.0, np.pi]
        for bad in (np.nextafter(np.pi, 4.0), -4.0, np.inf):
            with pytest.raises(ValueError, match="within"):
                positive_if(np.array([0.1, bad]), 1000.0)

    @pytest.mark.parametrize("fs", [2 * np.pi, 7.0, 100.0, 8000.0, 44100.0])
    def test_matches_pass_by_pass_fold(self, fs):
        # at 7 Hz pi * scale rounds above Fs/2, so the cap is needed there
        rng = np.random.default_rng(35)
        edges = [-0.0, 0.0, np.pi, -np.pi, -5e-324, 5e-324]
        d = np.concatenate([edges, rng.uniform(-np.pi, np.pi, 1000)])
        want = np.minimum(np.where(d >= 0, d, d + np.pi) * (fs / (2 * np.pi)), fs / 2)
        got = positive_if(d, fs)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0]) and "%.17g" % got[0] == "-0"
        assert got.max() <= fs / 2

    def test_empty_input(self):
        assert positive_if(np.array([]), 100.0).size == 0

    def test_two_tone_average(self):
        # equal-amplitude tones: positive IF sits at the mean frequency
        # away from the beat envelope zeros
        fs, f1, f2 = 1000.0, 100.0, 150.0
        t = np.arange(2000) / fs
        x = Signal(np.cos(2 * np.pi * f1 * t) + np.cos(2 * np.pi * f2 * t), fs)
        track = if_track(x)
        envelope = np.sqrt(track.energy)
        ratio = envelope / envelope.max()
        robust = np.zeros(len(x), dtype=bool)
        robust[1:-1] = (ratio[1:-1] > 0.1) & (ratio[2:] > 0.1)
        assert np.abs(track.frequency_hz[robust] - (f1 + f2) / 2).max() < 0.5

    def test_range_invariant_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(64, 4096))
            fs = float(rng.uniform(1, 48000))
            x = Signal(rng.normal(size=n), fs)
            f = if_track(x).frequency_hz
            assert f.min() >= 0.0
            assert f.max() <= fs / 2

    def test_agrees_with_conventional_on_nonnegative(self):
        rng = np.random.default_rng(32)
        diffs = rng.uniform(0, np.pi, 500)
        assert np.array_equal(positive_if(diffs, 100.0), conventional_if(diffs, 100.0))

    def test_correction_is_integer_multiple_of_pi(self):
        rng = np.random.default_rng(33)
        diffs = rng.uniform(-np.pi, np.pi, 1000)
        omega = positive_if(diffs, 2 * np.pi)  # Hz scale = rad/sample here
        k = np.round((omega - diffs) / np.pi)
        assert np.abs(omega - diffs - k * np.pi).max() <= 1e-12

    def test_cumulative_phase_nondecreasing(self):
        rng = np.random.default_rng(34)
        x = Signal(rng.normal(size=2048), 100.0)
        omega = if_track(x).frequency_hz * (2 * np.pi / 100.0)
        rebuilt = np.cumsum(omega)
        assert np.all(np.diff(rebuilt) >= -1e-12)


class TestIfTrack:
    def test_delta_average_frequency(self):
        track = if_track(gen_delta(1999, 4000, 1000))
        interior = track.frequency_hz[200:3800]
        assert np.median(interior) == pytest.approx(250.0, abs=1e-9)

    @pytest.mark.parametrize("n0, n", [(1999, 4000), (2000, 4000), (7, 4096)])
    def test_even_length_delta_reads_quarter_rate_exactly(self, n0, n):
        # the quadrature is exactly zero at even lags and the real part is
        # the input, so every sample carrying energy reads Fs/4
        fs = 1000.0
        track = if_track(gen_delta(n0, n, fs))
        carrying = track.energy > 0
        assert carrying.sum() >= n // 2
        assert np.all(track.frequency_hz[carrying] == fs / 4)

    def test_harmonic_sum_constant_if(self):
        # five equal-amplitude harmonics of 100 Hz: IF = 100 * (5+1)/2
        fs = 4000.0
        t = np.arange(4000) / fs
        x = Signal(sum(np.cos(2 * np.pi * 100 * k * t) for k in range(1, 6)), fs)
        track = if_track(x)
        envelope = np.sqrt(track.energy)
        ratio = envelope / envelope.max()
        robust = np.zeros(len(x), dtype=bool)
        robust[1:-1] = (ratio[1:-1] > 0.1) & (ratio[2:] > 0.1)
        assert np.abs(track.frequency_hz[robust] - 300.0).max() < 1e-6

    def test_pure_tone_exact(self):
        x = gen_chirp(1000, 1000, 1.0, 8000)
        track = if_track(x)
        assert np.abs(track.frequency_hz[1:-1] - 1000.0).max() < 1e-6

    def test_chirp_tracking_central(self):
        x = gen_chirp(1000, 2000, 1.0, 8000)
        truth = chirp_true_if(1000, 2000, 1.0, 8000)
        track = if_track(x, DiffScheme.CENTRAL)
        interior = slice(400, 7600)
        rel = np.abs(track.frequency_hz[interior] - truth[interior]) / truth[interior]
        assert rel.max() < 0.02  # every interior sample, not just the median

    def test_energy_is_squared_envelope(self):
        x = gen_chirp(1000, 1000, 1.0, 8000)
        track = if_track(x)
        assert np.all(track.energy >= 0)
        assert np.abs(track.energy[100:-100] - 1.0).max() < 1e-6

    def test_negative_fraction_diagnostic(self):
        fs = 8000.0
        x = mix([gen_chirp(1000, 2000, 1.0, fs), Signal(
            np.cos(2 * np.pi * 780 * np.arange(8000) / fs), fs)])
        conventional = if_track(x, mode="conventional")
        positive = if_track(x, mode="positive")
        assert conventional.negative_fraction > 0
        assert positive.negative_fraction == 0.0

    def test_bad_mode(self):
        x = gen_noise(NoiseSpec(seed=1, length=64), 100.0)
        with pytest.raises(ValueError):
            if_track(x, mode="sideways")

    def test_track_validation(self):
        from tfekit import IFTrack

        with pytest.raises(ValueError):
            IFTrack(np.zeros(4), np.zeros(5), 100.0)
        with pytest.raises(ValueError):
            IFTrack(np.zeros(4), np.array([1.0, -1.0, 0.0, 0.0]), 100.0)

    def test_non_finite_energy_rejected(self):
        from tfekit import IFTrack

        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                IFTrack(np.zeros(4), np.array([1.0, bad, 0.0, 0.0]), 100.0)


def _mixture(fs=8000.0):
    return mix([gen_chirp(1000, 2000, 1.0, fs), gen_fm(780, 200, 10, 1.0, fs)])


def _noise_plus_nyquist(n, fs):
    rng = np.random.default_rng(n)
    return Signal(rng.normal(size=n) + 0.5 * (-1.0) ** np.arange(n), fs)


class TestIncrementPath:
    @pytest.mark.parametrize("n", [64, 8000])
    def test_nyquist_only_band_reads_half_the_rate(self, n):
        # the band's phase advances by exactly pi per sample: the two ends of the fold meet
        fs = 8.0
        bands = []
        dft_decompose(_noise_plus_nyquist(n, fs), (0, n // 2 - 1, n // 2), bands.append)
        top = bands[1]
        for scheme in DiffScheme:
            f = if_track(top, scheme).frequency_hz
            assert f.size == n
            assert np.all(f == fs / 2), f"{scheme.value}: {np.sum(f != fs / 2)} samples off Fs/2"

    @pytest.mark.parametrize("n", [64, 8000])
    def test_bin_one_band_stays_below_quarter_rate(self, n):
        fs = 8.0
        bands = []
        dft_decompose(_noise_plus_nyquist(n, fs), (0, 1, n // 2), bands.append)
        low = bands[0]
        for scheme in DiffScheme:
            f = if_track(low, scheme).frequency_hz
            assert f.max() <= fs / 4
            assert np.abs(f - fs / n).max() <= 1e-9 * fs

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e150])
    def test_scale_free(self, scale):
        # angles, not products of samples: nothing underflows or overflows
        x = _mixture()
        scaled = Signal(scale * x.samples, x.sample_rate)
        for scheme in DiffScheme:
            want = if_track(x, scheme).frequency_hz
            assert np.abs(if_track(scaled, scheme).frequency_hz - want).max() <= 1e-8

    @pytest.mark.parametrize("scheme", list(DiffScheme), ids=lambda s: s.value)
    def test_matches_four_pass_oracle(self, scheme):
        x = _mixture()
        bands = [analytic_signal(x), analytic_signal(gen_delta(1999, 4000, 1000.0))]
        dft_decompose(x, (0, 800, 1200, 2000, 4000), bands.append)
        for a in bands:
            envelope = np.abs(a.z)
            keep = envelope > 0.1 * envelope.max()
            got = if_track(a, scheme).frequency_hz
            want = four_pass_if(a.z, a.sample_rate, scheme.value)
            assert np.abs(got - want)[keep].max() <= 1e-8


class TestWorkspace:
    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize("mode", ["positive", "conventional"])
    @pytest.mark.parametrize("scheme", list(DiffScheme), ids=lambda s: s.value)
    def test_reused_workspace_tracks_match_fresh_ones(self, n, mode, scheme):
        ws = IFWorkspace(n)
        # stale contents, as a previous length-n track leaves them, must not leak
        for array in (ws.spectrum, ws.z, ws.frequency):
            array.fill(np.nan)
        ws.mask.fill(True)
        x = _noise_plus_nyquist(n, 100.0)
        bands = []
        dft_decompose(x, BandSpec(bands=3).plan(n, 100.0), bands.append)
        for signal in (x, *bands, Signal(1e-300 * x.samples, 100.0), gen_delta(n // 2, n, 100.0)):
            want = if_track(signal, scheme, mode)
            got = if_track(signal, scheme, mode, ws)
            assert got.frequency_hz.tobytes() == want.frequency_hz.tobytes()
            assert got.energy.tobytes() == want.energy.tobytes()

    def test_track_holds_until_the_next_call(self):
        ws = IFWorkspace(64)
        first = if_track(gen_chirp(5, 5, 0.64, 100.0), workspace=ws)
        assert np.shares_memory(first.frequency_hz, ws.frequency)
        assert np.shares_memory(first.energy, ws.spectrum)
        kept = first.frequency_hz.copy()
        if_track(gen_chirp(20, 20, 0.64, 100.0), workspace=ws)
        assert not np.array_equal(first.frequency_hz, kept)

    @pytest.mark.parametrize("scheme", list(DiffScheme), ids=lambda s: s.value)
    def test_reused_workspace_allocates_no_sample_array(self, scheme):
        n = 1 << 16
        ws = IFWorkspace(n)
        x = _noise_plus_nyquist(n, 100.0)
        band = []
        dft_decompose(x, BandSpec(bands=2).plan(n, 100.0), band.append)
        if_track(x, scheme, workspace=ws)
        tracemalloc.start()
        try:
            for signal, mode in ((x, "positive"), (x, "conventional"), (band[0], "positive")):
                if_track(signal, scheme, mode, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n  # bytes: less than one mask, let alone one float array

    def test_length_mismatch_refused(self):
        with pytest.raises(ValueError, match="workspace is for 64 samples, signal has 65"):
            if_track(gen_delta(3, 65, 100.0), workspace=IFWorkspace(64))
