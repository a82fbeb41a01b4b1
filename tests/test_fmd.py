"""FIR design, zero-phase/causal filtering, filter-mode decomposition."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from streams import collect, drop
from tfekit import (
    BandSpec,
    FirFilter,
    IFWorkspace,
    Signal,
    causal_filter,
    design_fir,
    dft_decompose,
    fmd_decompose,
    gen_chirp,
    gen_fm,
    gen_noise,
    if_track,
    mix,
    zero_phase_filter,
)
from tfekit.fmd import _BATCH, _CAUSAL_BLOCK, _causal, _zero_phase
from tfekit.signals import _dot


def _block_step(order: int) -> int:
    # output samples per overlap-save frame: the block is the smallest power
    # of two >= max(4096, 16 * order), less 2 * order samples of wrap
    block = 4096
    while block < 16 * order:
        block *= 2
    return block - 2 * order


def _peak_bytes(f):
    """The tracemalloc peak of calling f, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("taps, kind, message", [
        ([0.5, 0.5], "lowpass", "taps length must be odd, got 2"),
        ([0.25, 0.5, 0.26], "lowpass", "taps must be exactly symmetric"),
        ([0.25, 0.5, 0.25], "bandpass", "kind must be 'lowpass' or 'highpass', got 'bandpass'"),
        ([0.25, 0.5, 0.25], "highpass", "highpass DC gain 1.0 not within 1e-6 of 0.0"),
    ], ids=["even-length", "asymmetric", "unknown-kind", "dc-gain"])
    def test_fir_filter_refusals(self, taps, kind, message):
        with pytest.raises(ValueError) as err:
            FirFilter(np.array(taps), kind)
        assert str(err.value) == message


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
        # the second oracle is written apart from this package and its tests
        from scipy.signal import filtfilt

        for want in (oracles.zero_phase_filter(x, h).samples,
                     filtfilt(h.taps, [1.0], x.samples, padtype="even", padlen=order)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(x.samples).max()

    @pytest.mark.parametrize("order", [16, 256, 1024])
    @pytest.mark.parametrize("length", ["min", "min+1", "step-1", "step+1", "batch-1", "batch",
                                        "batch+1", "3batch-1", "3batch+1"])
    def test_batches_match_whole_array_bits(self, order, length):
        # the frames are transformed a batch at a time; the whole-array
        # transform gives the same bits at the edges of the frame and batch grids
        step = _block_step(order)
        batch = max(1, _BATCH // (step + 2 * order)) * step
        n = {"min": 3 * order + 4, "min+1": 3 * order + 5, "step-1": step - 1,
             "step+1": step + 1, "batch-1": batch - 1, "batch": batch, "batch+1": batch + 1,
             "3batch-1": 3 * batch - 1, "3batch+1": 3 * batch + 1}[length]
        x = np.random.default_rng(order + n).standard_normal(n) + 0.5
        taps = design_fir("highpass", 120.0, order, 1000.0).taps
        assert np.array_equal(_zero_phase(x, taps), oracles.zero_phase_whole(x, taps))

    @pytest.mark.parametrize("order", [16, 256, 1024])
    def test_workspace_fixed_whatever_n(self, order):
        # the filter's output plus a fixed batch workspace (measured at
        # 1.7-1.9 MB), where the whole-array transform held about 4 N floats
        n = 2**19
        x = np.random.default_rng(order).standard_normal(n)
        taps = design_fir("highpass", 120.0, order, 1000.0).taps
        extra = _peak_bytes(lambda: _zero_phase(x, taps)) - 8 * n
        assert extra < 2.5e6, f"{extra / (8 * n):.2f} N floats above the output"

    @pytest.mark.parametrize("order", [16, 256, 1024])
    @pytest.mark.parametrize("n", [2**12, 2**14 + 3, 2**16, 2**17 + 1])
    def test_output_and_scratch_keep_the_bits(self, order, n):
        # written into `out`, with the batch arrays carved from a workspace's
        # spectrum (none, one frame, a few or a whole batch fit), the bits
        # are those of the call that allocates both
        x = np.random.default_rng(order + n).standard_normal(n) + 0.5
        taps = design_fir("highpass", 120.0, order, 1000.0).taps
        want = _zero_phase(x, taps)
        out = np.full(n, np.nan)
        assert _zero_phase(x, taps, out) is out
        assert np.array_equal(out, want)
        workspace = IFWorkspace(n)
        workspace.spectrum.fill(np.nan)
        out.fill(np.nan)
        assert _zero_phase(x, taps, out, workspace.spectrum) is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("order", [16, 256, 1024])
    def test_batch_arrays_in_the_scratch(self, order):
        # measured at 0.18-0.33 MB above the output; 1.7-1.9 MB without scratch
        n = 2**19
        x = np.random.default_rng(order).standard_normal(n)
        taps = design_fir("highpass", 120.0, order, 1000.0).taps
        out, workspace = np.empty(n), IFWorkspace(n)
        _zero_phase(x, taps, out, workspace.spectrum)
        peak = _peak_bytes(lambda: _zero_phase(x, taps, out, workspace.spectrum))
        assert peak < 0.5e6, f"{peak / 1e6:.2f} MB"


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

    @pytest.mark.parametrize("order", [16, 256, 1024])
    @pytest.mark.parametrize("length", ["min", "block-1", "block", "block+1",
                                        "2block+order-1", "2block+order+1"])
    def test_blocks_match_whole_array_bits(self, order, length):
        # a block of outputs at a time, written into `out`, against one
        # whole-array convolution, at the edges of the block grid
        block = _CAUSAL_BLOCK
        n = {"min": 3 * order + 4, "block-1": block - 1, "block": block, "block+1": block + 1,
             "2block+order-1": 2 * block + order - 1,
             "2block+order+1": 2 * block + order + 1}[length]
        x = np.random.default_rng(order + n).standard_normal(n) + 0.5
        taps = design_fir("lowpass", 120.0, order, 1000.0).taps
        out = np.full(n, np.nan)
        assert _causal(x, taps, out) is out
        assert np.array_equal(out, np.convolve(x, taps)[:n])
        assert np.array_equal(_causal(x, taps), out)


@pytest.mark.parametrize("f, bound", [(zero_phase_filter, 1.45), (causal_filter, 1.2)],
                         ids=["zero-phase", "causal"])
def test_public_filters_hand_on_their_output(f, bound):
    # the filter's own output as the Signal's samples: measured at 1.40 N
    # and 1.06 N floats; a Signal copy and a finite mask made them 2.16 and 2.13
    n = 2**19
    x = gen_noise(seed=5, length=n, sample_rate=8000.0)
    h = design_fir("highpass", 500.0, 256, 8000.0)
    f(x, h)
    peak = _peak_bytes(lambda: f(x, h))
    assert peak <= bound * 8 * n, f"{peak / (8 * n):.2f} N floats"
    y = f(x, h)
    assert not y.samples.flags.writeable and y.sample_rate == x.sample_rate


@pytest.mark.parametrize("f", [zero_phase_filter, causal_filter], ids=["zero-phase", "causal"])
def test_public_filters_refuse_a_non_finite_output(f):
    # the overflow of filtering values near the float64 maximum, refused as Signal refuses it
    x = Signal(np.full(4000, 1.79e308), 1000.0)
    h = design_fir("lowpass", 100.0, 32, 1000.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"samples must be finite \(no NaN/Inf\)"):
            f(x, h)


class TestFmdDecompose:
    def test_two_tone_split_against_dft_oracle(self):
        fs, n = 2000.0, 4000
        t = np.arange(n) / fs
        x = Signal(np.cos(2 * np.pi * 100 * t) + np.cos(2 * np.pi * 400 * t), fs)
        _, (high, low) = collect(fmd_decompose, x, [250.0], order=256)
        # oracle: brick-wall spectral split of the same signal
        _, (low_ref, high_ref) = collect(dft_decompose, x,
                                         BandSpec(cutoffs_hz=[250.0, 1000.0]).plan(n, fs))
        cross_high = np.dot(high - high_ref, high - high_ref)
        cross_low = np.dot(low - low_ref, low - low_ref)
        assert cross_high / np.dot(high_ref, high_ref) < 0.01
        assert cross_low / np.dot(low_ref, low_ref) < 0.01

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"], ids=["A", "B"])
    @pytest.mark.parametrize("n_bands", [2, 5])
    def test_reconstruction_identity(self, method, n_bands):
        x = gen_noise(seed=55, length=4096, sample_rate=1000.0)
        cutoffs = BandSpec(bands=n_bands).ladder(x.sample_rate)
        d, rows = collect(fmd_decompose, x, cutoffs, order=128, method=method)
        assert len(rows) == n_bands
        assert d.report.reconstruction_error == oracles.reconstruction_error(d.c0, rows, x.samples)
        assert d.report.reconstruction_error <= 1e-9

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"], ids=["A", "B"])
    def test_linoep_structure(self, method):
        x = gen_noise(seed=56, length=4096, sample_rate=1000.0)
        cutoffs = BandSpec(bands=5).ladder(x.sample_rate)
        report = oracles.verify_linoep(collect(fmd_decompose, x, cutoffs, order=128,
                                               method=method)[1])
        assert report.tail_cross.max() <= 1e-8
        assert abs(report.energy_ratio - 1.0) <= 1e-8

    def test_stage_outputs_orthogonal_to_remainder(self):
        # the mixing coefficient forces <c_i, x_{i+1}> = 0 at every stage
        x = gen_noise(seed=57, length=2048, sample_rate=1000.0)
        _, comps = collect(fmd_decompose, x, [100.0, 250.0, 400.0], order=64)
        for i in range(len(comps) - 1):
            tail = np.sum(comps[i + 1 :], axis=0)
            denom = np.linalg.norm(comps[i]) * np.linalg.norm(tail)
            assert abs(np.dot(comps[i], tail)) / denom < 1e-12

    def test_pairwise_orthogonality_of_last_two(self):
        x = gen_noise(seed=58, length=2048, sample_rate=1000.0)
        _, (c1, c2) = collect(fmd_decompose, x, [250.0], order=64)
        denom = np.linalg.norm(c1) * np.linalg.norm(c2)
        assert abs(np.dot(c1, c2)) / denom < 1e-8

    def test_constant_input_degenerates_gracefully(self):
        # zero detrended signal: every alpha denominator is zero
        x = Signal(np.full(2048, 4.2), 1000.0)
        d, rows = collect(fmd_decompose, x, [100.0, 250.0], order=64)
        assert d.c0 == pytest.approx(4.2, abs=1e-12)
        for c in rows:
            assert np.abs(c).max() < 1e-12

    def test_spectral_ordering(self):
        x = gen_noise(seed=59, length=4096, sample_rate=1000.0)

        def centroid(c):
            power = np.abs(np.fft.rfft(c)) ** 2
            freqs = np.fft.rfftfreq(c.size, 1 / 1000.0)
            return float((freqs * power).sum() / power.sum())

        _, down = collect(fmd_decompose, x, BandSpec(bands=5).ladder(1000.0), order=128,
                          method="fmd-a")
        cents = [centroid(c) for c in down]
        assert all(a > b for a, b in zip(cents, cents[1:]))
        _, up = collect(fmd_decompose, x, BandSpec(bands=5).ladder(1000.0), order=128,
                        method="fmd-b")
        cents = [centroid(c) for c in up]
        assert all(a < b for a, b in zip(cents, cents[1:]))

    def test_causal_mode_tag_and_reconstruction(self):
        # no section and no bounds: no check bounds causal-fir's components
        x = gen_noise(seed=60, length=2048, sample_rate=1000.0)
        d, rows = collect(fmd_decompose, x, [250.0], order=64, method="causal-fir")
        assert (d.report.section, d.report.cross, d.report.bounds) == (None, 0.0, ())
        assert d.report.reconstruction_error == oracles.reconstruction_error(d.c0, rows, x.samples)
        assert d.report.reconstruction_error <= 1e-9
        assert abs(d.report.energy_ratio - oracles.verify_linoep(rows).energy_ratio) <= 1e-12

    def test_causal_ladder_matches_causal_filter_bits(self):
        # the array ladder does the arithmetic of one built from causal_filter
        x = gen_noise(seed=63, length=3000, sample_rate=1000.0, mean=0.3)
        cutoffs, order = [80.0, 200.0, 330.0], 64
        c0 = float(np.mean(x.samples))
        current = Signal(x.samples - c0, x.sample_rate)
        floor = 1e-14 * _dot(current.samples, current.samples)
        want = []
        for cutoff in reversed(cutoffs):
            y = causal_filter(current, design_fir("highpass", cutoff, order, 1000.0)).samples
            r = current.samples - y
            denom = _dot(r, r)
            alpha = _dot(y, r) / denom if denom > floor else 0.0
            want.append(y - alpha * r)
            current = Signal((1 + alpha) * r, 1000.0)
        want.append(current.samples)
        d, rows = collect(fmd_decompose, x, cutoffs, order=order, method="causal-fir")
        assert d.c0 == c0
        assert rows.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b", "causal-fir"])
    def test_short_input_refused_only_when_a_stage_runs(self, method):
        x = gen_noise(seed=64, length=100, sample_rate=1000.0, mean=1.0)
        d, rows = collect(fmd_decompose, x, [], order=256, method=method)
        assert np.array_equal(rows, [x.samples - d.c0])
        with pytest.raises(ValueError, match=r"too short .* \(need > 771\)"):
            fmd_decompose(x, [250.0], drop, order=256, method=method)

    def test_cutoff_direction_validation(self):
        # every method takes the ladder increasing, as BandSpec.ladder gives it
        x = gen_noise(seed=61, length=2048, sample_rate=1000.0)
        for method in ("fmd-a", "fmd-b", "causal-fir"):
            for cutoffs in ([250.0, 100.0], [100.0, 100.0]):
                with pytest.raises(ValueError, match="strictly increasing"):
                    fmd_decompose(x, cutoffs, drop, order=64, method=method)

    @pytest.mark.parametrize("method", ["A", "B", "fmd-A", "zero-phase", "causal"])
    def test_only_cli_method_names(self, method):
        x = gen_noise(seed=61, length=2048, sample_rate=1000.0)
        words = "fmd-a, fmd-b, causal-fir"
        with pytest.raises(ValueError, match=f"^method must be one of {words}; got '{method}'$"):
            fmd_decompose(x, [250.0], drop, order=64, method=method)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b", "causal-fir"], ids=["A", "B", "causal"])
    def test_overflowing_energy_rejected(self, method):
        # refused up front, without numpy warnings, for either ladder
        # direction, before the consumer is first called, as dft_decompose refuses it
        x = Signal(1e200 * np.cos(2 * np.pi * np.arange(512) / 16), 100.0)
        handed = []
        with pytest.raises(ValueError, match="^signal energy overflows float64"):
            fmd_decompose(x, [25.0], lambda c, band: handed.append(c), order=16, method=method)
        assert handed == []

    @pytest.mark.filterwarnings("error")
    def test_verify_overflowing_energy_rejected(self):
        big = 1e200 * np.cos(2 * np.pi * np.arange(512) / 16)
        with pytest.raises(ValueError, match="overflows float64"):
            oracles.verify_linoep(np.array([big, big / 2]))


def _streamed(x, cutoffs, **kwargs):
    """The check's report, every component dropped as it is handed on."""
    return fmd_decompose(x, cutoffs, drop, **kwargs).report


@st.composite
def _ladder_cases(draw):
    # N from 52 (the shortest a 17-tap stage takes) to 700, odd and even,
    # M from 2 to 12 bands on any cutoffs, noise with a mean and a Nyquist tone
    n = draw(st.integers(52, 700))
    m = draw(st.integers(2, 12))
    cutoffs = sorted(draw(st.lists(st.integers(1, 499), min_size=m - 1, max_size=m - 1,
                                   unique=True)))
    noise = gen_noise(seed=draw(st.integers(0, 2**16)), length=n, sample_rate=1000.0, mean=0.5)
    nyquist = draw(st.sampled_from([0.0, 0.5, 10.0]))
    x = Signal(noise.samples + nyquist * (-1.0) ** np.arange(n), 1000.0)
    return draw(st.sampled_from(["fmd-a", "fmd-b"])), x, [float(c) for c in cutoffs]


class TestTailCheck:
    """The check's forward defect bound against the backward figure of oracles.verify_linoep."""

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b", "causal-fir"])
    def test_streaming_form_hands_on_the_collected_components(self, method):
        x = gen_noise(seed=65, length=3001, sample_rate=1000.0, mean=0.3)
        cutoffs = BandSpec(bands=5).ladder(1000.0)
        d, rows = collect(fmd_decompose, x, cutoffs, order=64, method=method)
        handed = []

        def consumer(component, band):
            signal = band()
            assert isinstance(signal, Signal) and not signal.samples.flags.writeable
            assert np.shares_memory(signal.samples, component) and not component.flags.writeable
            handed.append(component.copy())

        c0, report = fmd_decompose(x, cutoffs, consumer, order=64, method=method)
        assert c0 == d.c0
        assert np.array(handed).tobytes() == rows.tobytes()
        assert report.reconstruction_error == oracles.reconstruction_error(c0, rows, x.samples)
        if method == "causal-fir":
            assert report.section is None and report.bounds == ()
            return
        exact = oracles.verify_linoep(rows)
        assert report.section == "linoep"
        assert np.greater_equal(report.bounds, exact.tail_cross).all()
        assert report.cross == max(report.bounds) <= 1e-8
        assert abs(report.energy_ratio - exact.energy_ratio) <= 1e-12

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"])
    def test_streaming_peak_near_five_arrays(self, method):
        # measured at 5.20 N floats: the check's sum, the ladder's two
        # buffers and the IF workspace it makes (2.125 N) for each stage's
        # filter output, batch arrays, component and defect; a filter
        # output held past its stage made it 8.3
        n = 2**19
        x = gen_noise(seed=3, length=n, sample_rate=8000.0)
        cutoffs = BandSpec(bands=4).ladder(8000.0)
        peak = _peak_bytes(lambda: fmd_decompose(x, cutoffs, drop, method=method))
        assert peak < 5.25 * 8 * n, f"{peak / (8 * n):.2f} N floats"

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b", "causal-fir"])
    def test_workspace_is_free_when_the_consumer_runs(self, method):
        # the stages run in the consumer's IF workspace, stale contents and
        # all, and leave nothing there that tracking a component overwrites
        n = 3001
        x = gen_noise(seed=66, length=n, sample_rate=1000.0, mean=0.3)
        cutoffs = BandSpec(bands=5).ladder(1000.0)
        want, rows = collect(fmd_decompose, x, cutoffs, order=64, method=method)
        workspace = IFWorkspace(n)
        for array in (workspace.spectrum, workspace.quadrature, workspace.folds.view(np.float64)):
            array.fill(np.nan)
        handed, tracks = [], []

        def consumer(component, band):
            handed.append(component.copy())
            track = if_track(band(), workspace=workspace)
            tracks.append(track.frequency_hz.tobytes() + track.energy.tobytes())

        c0, report = fmd_decompose(x, cutoffs, consumer, order=64, method=method,
                                   workspace=workspace)
        assert c0 == want.c0
        assert np.array(handed).tobytes() == rows.tobytes()
        assert report == want.report
        fresh = [if_track(Signal(c, 1000.0)) for c in rows]
        assert tracks == [t.frequency_hz.tobytes() + t.energy.tobytes() for t in fresh]

    def test_workspace_length_mismatch_refused(self):
        x = gen_noise(seed=67, length=2048, sample_rate=1000.0)
        with pytest.raises(ValueError, match="workspace is for 2047 samples, signal has 2048"):
            fmd_decompose(x, [250.0], drop, order=64, workspace=IFWorkspace(2047))

    @pytest.mark.parametrize("method", ["fmd-a", "causal-fir"])
    def test_peak_in_a_workspace_near_three_arrays(self, method):
        # measured at 3.37 N floats (fmd-a) and 3.27 (causal-fir) at 2^16:
        # the check's sum and the ladder's two buffers, everything else of a
        # stage in the workspace; the form without one held 5 N
        n = 2**16
        x = gen_noise(seed=3, length=n, sample_rate=8000.0)
        cutoffs = BandSpec(bands=10).ladder(8000.0)
        workspace = IFWorkspace(n)

        def run():
            fmd_decompose(x, cutoffs, drop, method=method, workspace=workspace)

        run()
        peak = _peak_bytes(run)
        assert peak < 3.5 * 8 * n, f"{peak / (8 * n):.2f} N floats"

    @settings(max_examples=60, deadline=None)
    @given(_ladder_cases())
    @example(("fmd-a", Signal(np.cos(np.arange(52.0)), 1000.0), [250.0]))
    @example(("fmd-b", Signal(np.cos(np.arange(701.0)), 1000.0), [40.0 * i for i in range(1, 12)]))
    @example(("fmd-a", Signal(np.zeros(64), 1000.0), [100.0, 300.0]))
    def test_bound_at_or_above_the_backward_figure(self, case):
        method, x, cutoffs = case
        _, rows = collect(fmd_decompose, x, cutoffs, order=16, method=method)
        exact = oracles.verify_linoep(rows)
        bound = _streamed(x, cutoffs, order=16, method=method)
        assert len(bound.bounds) == exact.tail_cross.size == len(cutoffs)
        assert np.greater_equal(bound.bounds, exact.tail_cross).all()
        assert max(bound.bounds) <= 1

    def test_zero_input_reads_zero(self):
        # every component and tail is exactly zero: each figure is 0, as the backward one is
        x = Signal(np.zeros(256), 1000.0)
        bound = _streamed(x, [100.0, 300.0], order=16)
        assert bound.bounds == (0.0, 0.0)
        assert bound.energy_ratio == 1.0

    @pytest.mark.parametrize("x, cutoffs, order, method", [
        # a low chirp, 5 -> 10 Hz over 1 s at 8 kHz, in 40 bands
        (gen_chirp(5.0, 10.0, 1.0, 8000.0), BandSpec(bands=40).ladder(8000.0), 256, "fmd-b"),
        # a pure Nyquist tone, 64 samples of cos(pi n) at 100 Hz, in 3 bands
        (Signal(np.cos(np.pi * np.arange(64)), 100.0), BandSpec(bands=3).ladder(100.0), 16,
         "fmd-a"),
        (Signal(np.cos(np.pi * np.arange(64)), 100.0), BandSpec(bands=3).ladder(100.0), 16,
         "fmd-b"),
    ], ids=["low-chirp-fmd-b", "nyquist-tone-fmd-a", "nyquist-tone-fmd-b"])
    def test_known_failures_still_read_as_failures(self, x, cutoffs, order, method):
        # the bound hides no failure that the backward figure shows
        exact = oracles.verify_linoep(collect(fmd_decompose, x, cutoffs, order=order,
                                              method=method)[1])
        bound = _streamed(x, cutoffs, order=order, method=method)
        assert exact.tail_cross.max() >= 1e-8
        assert np.greater_equal(bound.bounds, exact.tail_cross).all()
        assert bound.cross >= 1e-8

    def test_component_leaning_on_its_tail_is_flagged(self, monkeypatch):
        # stage 3 of fmd-a on a 64k mixture stores c_3 + 1e-6 T_3, T_3 being
        # the sum of the later components, and its defect records that
        from tfekit import fmd

        x = mix([gen_chirp(1000.0, 2000.0, 8.0, 8000.0), gen_fm(780.0, 200.0, 10.0, 8.0, 8000.0)])
        assert len(x) == 64000
        cutoffs = BandSpec(bands=10).ladder(8000.0)
        _, rows = collect(fmd_decompose, x, cutoffs)
        tail = rows[4:].sum(axis=0)
        assert _streamed(x, cutoffs).cross <= 1e-8
        ladder = fmd._ladder

        def leaning(*args):
            for i, (component, band, remainder, defect) in enumerate(ladder(*args)):
                if i == 3:
                    component = component + 1e-6 * tail  # the ladder hands on a read-only view
                    defect += 1e-6 * tail
                yield component, band, remainder, defect

        monkeypatch.setattr(fmd, "_ladder", leaning)
        bound = _streamed(x, cutoffs)
        rows[3] += 1e-6 * tail
        exact = oracles.verify_linoep(rows)
        assert exact.tail_cross[3] >= 1e-8
        assert np.greater_equal(bound.bounds, exact.tail_cross).all()
        assert bound.bounds[3] >= 1e-8


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
