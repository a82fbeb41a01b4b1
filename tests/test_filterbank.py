"""Band plans and the zero-phase spectral decomposition."""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import dft_direct
from streams import collect, drop, kept_bands
from tfekit import (
    BandSpec,
    CheckReport,
    Decomposition,
    IFWorkspace,
    Signal,
    analytic_signal,
    dft_decompose,
    fmd_decompose,
    gen_chirp,
    gen_fm,
    gen_noise,
    if_track,
    mix,
)
from tfekit.filterbank import CHECKS, _BandCheck


def _band_report(x, c0, components, boundaries) -> CheckReport:
    """The DFT check's report on given components of x, added band by band as dft_decompose does."""
    n = components.shape[1]
    check = _BandCheck(x, np.empty(n // 2 + 1, dtype=np.complex128))
    for component, lo, hi in zip(components, boundaries, boundaries[1:]):
        check.add(component, lo, hi)
    return check.finish(c0)


class TestUniformPlan:
    def test_two_bands_of_eight(self):
        plan = BandSpec(bands=2).plan(8, 8.0)
        assert plan == (0, 2, 4)
        assert (plan[0] + 1, plan[1]) == (1, 2)
        assert (plan[1] + 1, plan[2]) == (3, 4)

    def test_single_band(self):
        plan = BandSpec(bands=1).plan(100, 10.0)
        assert plan == (0, 50)

    def test_forty_hertz_bands(self):
        # 100 equal bands over a 4 kHz span
        plan = BandSpec(bands=100).plan(16000, 8000.0)
        widths = np.diff(plan) * (8000.0 / 16000)
        assert np.allclose(widths, 40.0)

    def test_band_sizes_differ_by_at_most_one(self):
        plan = BandSpec(bands=7).plan(101, 10.0)
        sizes = [hi - lo + 1 for lo, hi in ((plan[i] + 1, plan[i + 1]) for i in range(7))]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 50  # (101 - 1) // 2 non-DC bins

    def test_too_many_bands(self):
        with pytest.raises(ValueError):
            BandSpec(bands=5).plan(8, 8.0)

    def test_odd_length_top_bin(self):
        plan = BandSpec(bands=3).plan(101, 10.0)
        assert plan[-1] == 50


class TestCustomPlan:
    def test_earthquake_bands(self):
        plan = BandSpec(cutoffs_hz=[5, 10, 20, 25]).plan(1000, 50.0)
        assert plan == (0, 100, 200, 400, 500)
        assert len(plan) - 1 == 4

    def test_single_cutoff_full_band(self):
        plan = BandSpec(cutoffs_hz=[25.0]).plan(1000, 50.0)
        assert plan == (0, 500)

    def test_boundaries_map_back_within_one_bin(self):
        cutoffs = [3.7, 11.2, 25.0]
        n, fs = 997, 50.0
        plan = BandSpec(cutoffs_hz=cutoffs).plan(n, fs)
        for cutoff, k in zip(cutoffs, plan[1:]):
            assert abs(k * fs / n - cutoff) <= fs / n

    def test_cutoff_above_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            BandSpec(cutoffs_hz=[5, 30]).plan(1000, 50.0)

    def test_last_cutoff_must_be_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            BandSpec(cutoffs_hz=[5, 20]).plan(1000, 50.0)

    def test_collapsing_band_rejected(self):
        with pytest.raises(ValueError, match="zero bins"):
            BandSpec(cutoffs_hz=[5.0, 5.01, 25.0]).plan(1000, 50.0)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            BandSpec(cutoffs_hz=[10, 5, 25]).plan(1000, 50.0)


class TestPlanSpec:
    def test_uniform_round_trip(self):
        spec = BandSpec.from_settings(plan={"type": "uniform", "bands": 4})
        plan = spec.plan(64, 10.0)
        assert len(plan) - 1 == 4

    def test_custom_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"type": "custom", "cutoffs_hz": [2, 5]}))
        plan = BandSpec.from_settings(plan=str(path)).plan(64, 10.0)
        assert len(plan) - 1 == 2

    def test_bad_documents(self):
        with pytest.raises(ValueError):
            BandSpec.from_settings(plan={"type": "fancy"})
        with pytest.raises(ValueError):
            BandSpec.from_settings(plan={"type": "uniform"})
        with pytest.raises(ValueError):
            BandSpec.from_settings(plan=[1, 2, 3])

    def test_settings_forms(self):
        assert BandSpec.from_settings() is None
        assert BandSpec.from_settings(bands=4) == BandSpec(bands=4)
        assert BandSpec.from_settings(cutoffs="5, 10,25") == BandSpec(cutoffs_hz=(5.0, 10.0, 25.0))
        assert BandSpec.from_settings(cutoffs=[5, 10, 25]) == BandSpec(cutoffs_hz=(5.0, 10.0, 25.0))
        # an array of cutoffs, as BandSpec itself takes one
        assert (BandSpec.from_settings(cutoffs=np.array([5.0, 10.0, 25.0]))
                == BandSpec(cutoffs_hz=(5.0, 10.0, 25.0)))
        with pytest.raises(ValueError, match="only one"):
            BandSpec.from_settings(bands=4, cutoffs="5,25")
        with pytest.raises(ValueError):
            BandSpec()
        with pytest.raises(ValueError):
            BandSpec(bands=4, cutoffs_hz=(25.0,))

    @pytest.mark.parametrize("spec", [
        dict(bands=4.7), dict(bands=True), dict(bands="4"),
        dict(cutoffs_hz=[5, True, 25]), dict(cutoffs_hz=["5", "25"]), dict(cutoffs_hz=25.0),
    ])
    def test_only_numbers_taken(self, spec):
        # as the --bands and --cutoffs flags take them: no bool, no string, no cast
        with pytest.raises(ValueError, match="must be"):
            BandSpec(**spec)

    @pytest.mark.parametrize("cutoffs, message", [
        ((5, 10, 20, 30), "above Nyquist"),
        ((5, 10), "must equal Nyquist"),
    ])
    def test_dft_and_fmd_reject_alike(self, cutoffs, message):
        spec = BandSpec(cutoffs_hz=cutoffs)
        with pytest.raises(ValueError, match=message) as dft_err:
            spec.plan(1000, 50.0)
        with pytest.raises(ValueError, match=message) as fmd_err:
            spec.ladder(50.0)
        assert str(dft_err.value) == str(fmd_err.value)

    @pytest.mark.parametrize("make, message", [
        (lambda: BandSpec(cutoffs_hz=[0, 25]).plan(1000, 50.0),
         "cutoffs must be positive, got 0.0"),
        (lambda: BandSpec(cutoffs_hz=[-5, 25]).ladder(50.0), "cutoffs must be positive, got -5.0"),
        (lambda: BandSpec.from_settings(plan={"type": "custom", "cutoffs": [5, 25]}),
         "custom band plan needs 'cutoffs_hz'"),
    ], ids=["zero-cutoff", "negative-cutoff", "custom-without-cutoffs"])
    def test_plan_refusals(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("cutoffs, shown", [
        ((np.nan, 4000), "nan"), ((1000, np.nan), "nan"), ((1000, np.inf), "inf"),
        ((-np.inf, 4000), "-inf"),
    ], ids=["nan-first", "nan-last", "inf-last", "minus-inf-first"])
    def test_non_finite_cutoffs_refused(self, cutoffs, shown):
        # a NaN compares false with everything, so no other check would catch it
        spec = BandSpec(cutoffs_hz=cutoffs)
        for plan in (lambda: spec.plan(8000, 8000.0), lambda: spec.ladder(8000.0)):
            with pytest.raises(ValueError, match=f"^cutoffs must be finite, got {shown}$"):
                plan()


@st.composite
def _signal_and_boundaries(draw):
    """Noise of 4 to 600 samples and the boundaries of 1 to N//2 bands of any widths."""
    n = draw(st.integers(4, 600))
    m = draw(st.integers(1, n // 2))
    cuts = sorted(draw(st.permutations(range(1, n // 2)))[: m - 1])
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    return Signal(x, 1.0), (0, *cuts, n // 2)


class TestDftDecompose:
    def test_two_tone_split(self):
        # expected bands constructed directly from the known spectrum
        fs, n = 1000.0, 1000
        t = np.arange(n) / fs
        low = np.cos(2 * np.pi * 100 * t)
        high = 0.5 * np.cos(2 * np.pi * 300 * t)
        x = Signal(low + high, fs)
        plan = BandSpec(cutoffs_hz=[200.0, 500.0]).plan(n, fs)
        _, rows = collect(dft_decompose, x, plan)
        assert np.abs(rows[0] - low).max() < 1e-9
        assert np.abs(rows[1] - high).max() < 1e-9

    def test_constant_signal(self):
        d, rows = collect(dft_decompose, Signal(np.full(64, 2.5), 10.0),
                          BandSpec(bands=2).plan(64, 10.0))
        assert d.c0 == pytest.approx(2.5, abs=1e-12)
        for c in rows:
            assert np.abs(c).max() < 1e-12

    def test_mixture_two_band_split_recovers_addends(self):
        fs = 8000.0
        chirp = gen_chirp(1000, 2000, 1.0, fs)
        fm = gen_fm(780, 200, 10, 1.0, fs)
        x = mix([chirp, fm])
        plan = BandSpec(cutoffs_hz=[1000.0, 4000.0]).plan(len(x), fs)
        _, (low, high) = collect(dft_decompose, x, plan)
        low_err = np.dot(low - fm.samples, low - fm.samples)
        high_err = np.dot(high - chirp.samples, high - chirp.samples)
        assert low_err / np.dot(fm.samples, fm.samples) < 0.02
        assert high_err / np.dot(chirp.samples, chirp.samples) < 0.02

    @pytest.mark.parametrize("n_bands", [2, 10, 100])
    def test_reconstruction_orthogonality_parseval(self, n_bands):
        x = gen_noise(seed=77, length=2048, sample_rate=1000.0)
        report = dft_decompose(x, BandSpec(bands=n_bands).plan(len(x), x.sample_rate), drop).report
        assert report.reconstruction_error <= 1e-9
        assert report.cross <= 1e-10
        assert abs(report.energy_ratio - 1.0) <= 1e-10

    def test_zero_phase_bin_aligned_tone(self):
        # a tone inside one band comes back with its correlation peak at lag 0
        fs, n = 1000.0, 1000
        t = np.arange(n) / fs
        tone = np.cos(2 * np.pi * 100 * t)
        x = Signal(tone, fs)
        _, rows = collect(dft_decompose, x, BandSpec(bands=4).plan(n, fs))
        band = rows[0]  # 0-125 Hz band holds the tone
        assert np.abs(band - tone).max() < 1e-9
        corr = np.correlate(band, tone, "full")
        assert corr.argmax() - (n - 1) == 0

    def test_length_mismatch(self):
        x = gen_noise(seed=1, length=128, sample_rate=100.0)
        with pytest.raises(ValueError):
            dft_decompose(x, BandSpec(bands=2).plan(64, 100.0), drop)

    def test_odd_length_reconstruction(self):
        x = gen_noise(seed=2, length=257, sample_rate=100.0)
        d, rows = collect(dft_decompose, x, BandSpec(bands=5).plan(257, 100.0))
        assert d.report.reconstruction_error == oracles.reconstruction_error(d.c0, rows, x.samples)
        assert d.report.reconstruction_error <= 1e-9
        assert abs(d.report.energy_ratio - 1.0) <= 1e-10

    @pytest.mark.parametrize("n, plan", [
        (256, lambda n, fs: BandSpec(bands=7).plan(n, fs)),
        (255, lambda n, fs: BandSpec(bands=7).plan(n, fs)),
        (256, lambda n, fs: BandSpec(bands=1).plan(n, fs)),
        (256, lambda n, fs: BandSpec(bands=n // 2).plan(n, fs)),
        (250, lambda n, fs: BandSpec(cutoffs_hz=[3.0, 10.0, 12.5, 25.0]).plan(n, fs)),
    ], ids=["even", "odd", "one-band", "n-over-2-bands", "custom"])
    def test_matches_hermitian_mask_oracle(self, n, plan):
        x = gen_noise(seed=n, length=n, sample_rate=50.0, mean=0.5)
        plan = plan(n, x.sample_rate)
        (d, rows), bands = collect(dft_decompose, x, plan), kept_bands(x, plan)
        ref_c0, ref = oracles.dft_decompose(x, plan)
        assert d.c0 == ref_c0
        scale = np.abs(x.samples).max()
        assert len(bands) == len(ref) == len(plan) - 1
        for comp, band, want in zip(rows, bands, ref):
            assert np.abs(comp - want).max() <= 1e-12 * scale
            # the quadrature analytic_signal finds from the component alone
            quad = analytic_signal(Signal(comp, x.sample_rate)).imag
            assert np.abs(band.imag - quad).max() <= 1e-12 * np.abs(quad).max()
            assert np.array_equal(band.real, comp)

    def test_nyquist_only_band_is_the_unscaled_bin(self):
        # for even N the Nyquist bin is its own mirror, so one-siding must not double it
        n, fs = 64, 8.0
        rng = np.random.default_rng(5)
        x = Signal(rng.normal(size=n) + 0.5 * (-1.0) ** np.arange(n), fs)
        top = kept_bands(x, (0, n // 2 - 1, n // 2))[1]
        tone = dft_direct(x.samples)[n // 2].real * (-1.0) ** np.arange(n)
        scale = np.abs(x.samples).max()
        assert np.abs(top.real - tone).max() <= 1e-12 * scale
        assert np.abs(top.imag).max() <= 1e-12 * scale
        assert np.abs(top.increments() - np.pi).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(_signal_and_boundaries())
    @example((Signal(np.arange(4.0), 1.0), (0, 1, 2)))
    @example((Signal(np.cos(np.arange(64.0)), 1.0), (0, 31, 32)))
    def test_bands_match_one_sided_oracle(self, case):
        # Marple's complex synthesis, with its own doubling, DC and Nyquist rules
        x, bounds = case
        (_, rows), bands = collect(dft_decompose, x, bounds), kept_bands(x, bounds)
        spectrum = np.fft.fft(x.samples, norm="forward")
        assert len(bands) == len(bounds) - 1
        for lo, hi, comp, band in zip(bounds, bounds[1:], rows, bands):
            want = oracles.one_sided(spectrum, lo + 1, hi)
            z = band.real + 1j * band.imag
            assert np.abs(z - want).max() <= 1e-10 * np.abs(x.samples).max()
            assert np.array_equal(band.real, comp)

    @pytest.mark.parametrize("n", [4, 5, 64, 255])
    def test_bands_match_scipy_hilbert(self, n):
        # each band's analytic signal is that of its component
        scipy_signal = pytest.importorskip("scipy.signal")
        x = gen_noise(seed=n, length=n, sample_rate=50.0, mean=0.5)
        plan = BandSpec(bands=n // 4 + 1).plan(n, 50.0)
        (_, rows), bands = collect(dft_decompose, x, plan), kept_bands(x, plan)
        scale = np.abs(x.samples).max()
        for comp, band in zip(rows, bands):
            z = band.real + 1j * band.imag
            assert np.abs(z - scipy_signal.hilbert(comp)).max() <= 1e-10 * scale


class TestTrackedBands:
    """What the bank hands its consumer: read-only views of one reused row and the workspace."""

    def test_real_is_a_read_only_view_of_the_row(self):
        x = gen_noise(seed=4, length=256, sample_rate=50.0, mean=0.5)
        workspace = IFWorkspace(256)
        handed = []

        def consumer(component, band):
            a = band()
            assert np.shares_memory(a.real, component)
            assert not component.flags.writeable and not a.real.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.real[0] = 0.0
            assert np.shares_memory(a.imag, workspace.quadrature)
            handed.append(component)

        dft_decompose(x, BandSpec(bands=4).plan(256, 50.0), consumer, workspace)
        # every band is made in the same row
        assert len(handed) == 4
        assert all(np.shares_memory(c, handed[0]) for c in handed)

    def test_band_called_twice_gives_one_analytic_signal(self):
        # a second call returns the first call's AnalyticSignal, whose
        # quadrature is the band's, not a second pass over the band's bins
        x = gen_noise(seed=5, length=256, sample_rate=50.0, mean=0.2)
        plan = BandSpec(bands=4).plan(256, 50.0)
        _, rows = collect(dft_decompose, x, plan)
        once = kept_bands(x, plan)
        twice = []

        def consumer(component, band):
            first = band()
            assert band() is first
            twice.append((first.real.copy(), first.imag.copy()))

        dft_decompose(x, plan, consumer)
        assert len(twice) == 4
        for (real, imag), kept, row in zip(twice, once, rows):
            assert real.tobytes() == row.tobytes() == kept.real.tobytes()
            assert imag.tobytes() == kept.imag.tobytes()
            oracle = analytic_signal(Signal(row, 50.0)).imag
            assert np.max(np.abs(imag - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


class TestBankInAWorkspace:
    """The bank in a consumer's IF workspace: the quadratures and the check's transform there."""

    @pytest.mark.parametrize("n", [3000, 3001])
    def test_workspace_is_free_when_the_consumer_runs(self, n):
        # the bank runs in the consumer's IF workspace, stale contents and
        # all, and hands on what it gives in a fresh workspace, bit for bit
        x = gen_noise(seed=66, length=n, sample_rate=1000.0, mean=0.3)
        plan = BandSpec(bands=5).plan(n, 1000.0)
        d, rows = collect(dft_decompose, x, plan)
        fresh = [if_track(band) for band in kept_bands(x, plan)]
        workspace = IFWorkspace(n)
        for array in (workspace.spectrum, workspace.quadrature, workspace.folds.view(np.float64)):
            array.fill(np.nan)
        handed, tracks = [], []

        def consumer(component, band):
            handed.append(component.copy())
            a = band()
            assert np.shares_memory(a.imag, workspace.quadrature)
            track = if_track(a, workspace=workspace)
            tracks.append(track.frequency_hz.tobytes() + track.energy.tobytes())

        c0, report = dft_decompose(x, plan, consumer, workspace)
        assert c0 == d.c0
        assert np.array(handed).tobytes() == rows.tobytes()
        assert tracks == [t.frequency_hz.tobytes() + t.energy.tobytes() for t in fresh]
        assert report.reconstruction_error == oracles.reconstruction_error(c0, rows, x.samples)
        assert report == d.report == _band_report(x.samples, d.c0, rows, plan)

    def test_check_makes_no_spectrum_of_its_own(self):
        # given the workspace's spectrum, the check holds only its running sum
        n = 1 << 14
        x = gen_noise(seed=7, length=n, sample_rate=100.0)
        workspace = IFWorkspace(n)
        component = collect(dft_decompose, x, BandSpec(bands=4).plan(n, 100.0))[1][1]
        # numpy.fft imports lazily
        _BandCheck(x.samples, workspace.spectrum).add(component, 1024, 2048)
        tracemalloc.start()
        try:
            check = _BandCheck(x.samples, workspace.spectrum)
            check.add(component, 1024, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n, f"{peak / (8 * n):.2f} N floats"


@st.composite
def _length_and_bands(draw):
    n = draw(st.integers(4, 600))
    return n, draw(st.integers(1, n // 2))


class TestBoundaries:
    @pytest.mark.parametrize("bounds, message", [
        ((1, 4, 8), "start at 0"),
        ((0,), "start at 0"),
        ((0, 4, 4, 8), "strictly increasing"),
        ((0, 6, 4, 8), "strictly increasing"),
        ((0, 4, 7), "last boundary must be 8 for length 16, got 7"),
        ((0, 4, 9), "last boundary must be 8 for length 16, got 9"),
    ], ids=["nonzero-start", "no-band", "repeated", "decreasing", "short-top", "past-top"])
    def test_refused(self, bounds, message):
        x = gen_noise(seed=6, length=16, sample_rate=16.0)
        with pytest.raises(ValueError, match=message):
            dft_decompose(x, bounds, drop)

    @settings(max_examples=150, deadline=None)
    @given(_length_and_bands())
    def test_uniform_plan_decomposes_exactly(self, case):
        n, m = case
        bounds = BandSpec(bands=m).plan(n, 100.0)
        assert len(bounds) == m + 1 and bounds[0] == 0 and bounds[-1] == n // 2
        widths = np.diff(bounds)
        assert widths.min() >= 1 and widths.max() - widths.min() <= 1
        x = gen_noise(seed=n, length=n, sample_rate=100.0, mean=0.5)
        report = dft_decompose(x, bounds, drop).report
        assert report.reconstruction_error <= 1e-9
        assert report.cross <= 1e-10


@pytest.mark.parametrize("method", ["dft", "fmd-a", "fmd-b", "causal-fir"],
                         ids=["dft", "fmd-A", "fmd-B", "causal-fir"])
def test_returns_one_decomposition(method):
    # c0 and the check's one report type: a leakage per DFT band, a tail
    # bound per FMD stage, and no section for causal-fir, whose components
    # no check bounds
    x = gen_noise(seed=4, length=1024, sample_rate=100.0)
    if method == "dft":
        d, rows = collect(dft_decompose, x, BandSpec(bands=5).plan(1024, 100.0))
    else:
        d, rows = collect(fmd_decompose, x, [10.0, 20.0, 30.0, 40.0], 32, method)
    assert type(d) is Decomposition and d._fields == ("c0", "report")
    assert isinstance(d.c0, float)
    assert rows.shape == (5, 1024)
    report = d.report
    assert type(report) is CheckReport
    assert report.section == {"dft": "orthogonality", "causal-fir": None}.get(method, "linoep")
    assert len(report.bounds) == {"dft": 5, "causal-fir": 0}.get(method, 4)
    assert all(type(v) is float for v in (report.reconstruction_error, report.cross,
                                          report.energy_ratio, *report.bounds))
    assert report.reconstruction_error == oracles.reconstruction_error(d.c0, rows, x.samples)


@pytest.mark.parametrize("method", ["dft", "fmd-a", "fmd-b", "causal-fir"])
def test_both_banks_stream_alike(method):
    # one consumer for both banks: read-only views, the components and
    # report of a second run to the byte, the report that of the check run
    # on those components (DFT) or a bound on the exact figure (FMD), and
    # the reconstruction error of their sum
    x = gen_noise(seed=8, length=1024, sample_rate=100.0, mean=0.4)
    handed = []

    def consumer(component, band):
        made = band()
        real = made.real if method == "dft" else made.samples
        assert np.shares_memory(real, component)
        for view in (component, real):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0
        handed.append(component.copy())

    if method == "dft":
        plan = BandSpec(bands=5).plan(1024, 100.0)
        d, rows = collect(dft_decompose, x, plan)
        c0, report = dft_decompose(x, plan, consumer)
        assert report == _band_report(x.samples, d.c0, rows, plan)
    else:
        cutoffs = [10.0, 20.0, 30.0, 40.0]
        d, rows = collect(fmd_decompose, x, cutoffs, 32, method)
        c0, report = fmd_decompose(x, cutoffs, consumer, 32, method)
        if method != "causal-fir":
            exact = oracles.verify_linoep(rows)
            assert np.greater_equal(report.bounds, exact.tail_cross).all()
            assert abs(report.energy_ratio - exact.energy_ratio) <= 1e-12
    assert c0 == d.c0 and report == d.report
    assert np.array(handed).tobytes() == rows.tobytes()
    assert report.reconstruction_error == oracles.reconstruction_error(c0, rows, x.samples)


class TestCheckReport:
    """The one record of both checks, and the one table of their tolerances."""

    @pytest.mark.parametrize("section, want", [
        ("orthogonality", {"reconstruction_error": 1e-16,
                           "orthogonality": {"max_normalized_cross": 3e-14,
                                             "cross_figure": "leakage bound", "energy_ratio": 0.5},
                           "linoep": None}),
        ("linoep", {"reconstruction_error": 1e-16, "orthogonality": None,
                    "linoep": {"max_tail_cross": 3e-14, "cross_figure": "defect bound",
                               "energy_ratio": 0.5}}),
        (None, {"reconstruction_error": 1e-16, "orthogonality": None, "linoep": None}),
    ], ids=["orthogonality", "linoep", "none"])
    def test_diagnostics_fragment(self, section, want):
        # tfekit-diagnostics/1's layout, key order included
        report = CheckReport(1e-16, section, 3e-14, 0.5, (1e-14, 2e-14))
        assert json.dumps(report.diagnostics()) == json.dumps(want)

    def test_benchmark_keeps_a_copy_of_the_table(self):
        # perfbench/checks.py holds its own tolerances, read here without
        # importing or changing it: they must be the table's
        source = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
        constants = {target.id: ast.literal_eval(node.value)
                     for node in ast.parse(source.read_text()).body
                     if isinstance(node, ast.Assign) for target in node.targets
                     if isinstance(target, ast.Name) and target.id.endswith("_TOL")}
        assert {name: constants[name] for name in ("RECONSTRUCTION_TOL", "DFT_CROSS_TOL",
                                                   "DFT_ENERGY_TOL", "FMD_TAIL_TOL",
                                                   "FMD_ENERGY_TOL")} == {
            "RECONSTRUCTION_TOL": CHECKS["reconstruction_error"],
            "DFT_CROSS_TOL": CHECKS["orthogonality"]["max_normalized_cross"],
            "DFT_ENERGY_TOL": CHECKS["orthogonality"]["energy_ratio"],
            "FMD_TAIL_TOL": CHECKS["linoep"]["max_tail_cross"],
            "FMD_ENERGY_TOL": CHECKS["linoep"]["energy_ratio"],
        }


class TestVerifyOrthogonality:
    def test_against_direct_inner_products(self):
        rng = np.random.default_rng(8)
        x = Signal(rng.normal(size=8), 8.0)
        d, comps = collect(dft_decompose, x, BandSpec(bands=2).plan(8, 8.0))
        report = d.report
        # oracle: explicit loops
        best = 0.0
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                ni = np.sqrt(sum(v * v for v in comps[i]))
                nj = np.sqrt(sum(v * v for v in comps[j]))
                val = abs(sum(a * b for a, b in zip(comps[i], comps[j]))) / (ni * nj)
                best = max(best, val)
        # a bound, from the leakages: at or above the pairwise figure
        assert best <= report.cross <= best + 1e-12
        energy = sum(sum(v * v for v in c) for c in comps) + len(x) * d.c0**2
        assert abs(report.energy_ratio - energy / np.dot(x.samples, x.samples)) <= 1e-12

    @pytest.mark.parametrize("n_bands", [1, 7, 64])
    def test_matches_stacked_gram_oracle(self, n_bands):
        # the leakage bound is at or above the Gram figure; the energy
        # ratios differ only in how the squares are summed
        x = gen_noise(seed=n_bands, length=4096, sample_rate=100.0, mean=0.3)
        d, rows = collect(dft_decompose, x, BandSpec(bands=n_bands).plan(4096, 100.0))
        report, gram = d.report, oracles.verify_orthogonality(d.c0, rows)
        assert gram.max_normalized_cross <= report.cross <= 1e-10
        assert abs(report.energy_ratio - gram.energy_ratio) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(_signal_and_boundaries())
    @example((Signal(np.arange(4.0), 1.0), (0, 1, 2)))
    @example((Signal(np.cos(np.pi * np.arange(64.0)), 1.0), (0, 31, 32)))
    @example((Signal(np.zeros(9), 1.0), (0, 1, 2, 3, 4)))
    def test_leakage_bound_covers_the_gram_figure(self, case):
        # N from 4 to 600 and up to N/2 bands of any widths
        x, bounds = case
        d, rows = collect(dft_decompose, x, bounds)
        bound = d.report.cross
        assert oracles.verify_orthogonality(d.c0, rows).max_normalized_cross <= bound <= 1e-10

    def test_leakage_of_a_mixed_band_is_seen(self):
        # a component that is not confined to its band reads as leakage
        n = 64
        x = gen_noise(seed=3, length=n, sample_rate=8.0)
        d, rows = collect(dft_decompose, x, (0, 8, 32))
        assert _band_report(x.samples, d.c0, rows[::-1], (0, 8, 32)).cross > 1.0
        assert d.report.cross <= 1e-10

    def test_leakage_weighs_dc_and_nyquist_once(self):
        # band 0 (bins 1..31) given a constant and some of band 1, the even-N
        # Nyquist bin: its leakage is the share of power those two carry
        n = 64
        x = gen_noise(seed=5, length=n, sample_rate=8.0)
        bounds = (0, n // 2 - 1, n // 2)
        d, (low, nyquist) = collect(dft_decompose, x, bounds)
        mixed = low + 0.3 * nyquist + 0.2
        outside = np.dot(0.3 * nyquist, 0.3 * nyquist) + n * 0.2**2
        want = np.sqrt(outside / (np.dot(low, low) + outside))
        report = _band_report(x.samples, d.c0, np.array([mixed, nyquist]), bounds)
        assert abs(report.cross - want) <= 1e-12

    def test_zero_energy_ratio_is_one(self):
        report = dft_decompose(Signal(np.zeros(64), 8.0), BandSpec(bands=4).plan(64, 8.0),
                               drop).report
        assert report.energy_ratio == 1.0
        assert report.cross == 0.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_energy_rejected(self):
        # refused before any band is made, as fmd_decompose refuses it,
        # rather than left to the check once the bands are handed on
        x = Signal(1e200 * np.cos(2 * np.pi * np.arange(64) / 8), 8.0)
        handed = []
        with pytest.raises(ValueError, match="^signal energy overflows float64"):
            dft_decompose(x, BandSpec(bands=4).plan(64, 8.0), lambda c, band: handed.append(c))
        assert handed == []
