"""Band plans and the zero-phase spectral decomposition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import dft_direct
from tfekit import (
    BandSpec,
    Signal,
    analytic_signal,
    dft_decompose,
    fmd_decompose,
    gen_chirp,
    gen_fm,
    gen_noise,
    mix,
    NoiseSpec,
    verify_orthogonality,
)


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
        with pytest.raises(ValueError, match="only one"):
            BandSpec.from_settings(bands=4, cutoffs="5,25")
        with pytest.raises(ValueError):
            BandSpec()
        with pytest.raises(ValueError):
            BandSpec(bands=4, cutoffs_hz=(25.0,))

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


class TestDftDecompose:
    def test_two_tone_split(self):
        # expected bands constructed directly from the known spectrum
        fs, n = 1000.0, 1000
        t = np.arange(n) / fs
        low = np.cos(2 * np.pi * 100 * t)
        high = 0.5 * np.cos(2 * np.pi * 300 * t)
        x = Signal(low + high, fs)
        plan = BandSpec(cutoffs_hz=[200.0, 500.0]).plan(n, fs)
        d = dft_decompose(x, plan)
        assert np.abs(d.components[0] - low).max() < 1e-9
        assert np.abs(d.components[1] - high).max() < 1e-9

    def test_constant_signal(self):
        d = dft_decompose(Signal(np.full(64, 2.5), 10.0), BandSpec(bands=2).plan(64, 10.0))
        assert d.c0 == pytest.approx(2.5, abs=1e-12)
        for c in d.components:
            assert np.abs(c).max() < 1e-12

    def test_mixture_two_band_split_recovers_addends(self):
        fs = 8000.0
        chirp = gen_chirp(1000, 2000, 1.0, fs)
        fm = gen_fm(780, 200, 10, 1.0, fs)
        x = mix([chirp, fm])
        plan = BandSpec(cutoffs_hz=[1000.0, 4000.0]).plan(len(x), fs)
        d = dft_decompose(x, plan)
        low_err = np.dot(d.components[0] - fm.samples, d.components[0] - fm.samples)
        high_err = np.dot(d.components[1] - chirp.samples, d.components[1] - chirp.samples)
        assert low_err / np.dot(fm.samples, fm.samples) < 0.02
        assert high_err / np.dot(chirp.samples, chirp.samples) < 0.02

    @pytest.mark.parametrize("n_bands", [2, 10, 100])
    def test_reconstruction_orthogonality_parseval(self, n_bands):
        x = gen_noise(NoiseSpec(seed=77, length=2048), 1000.0)
        d = dft_decompose(x, BandSpec(bands=n_bands).plan(len(x), x.sample_rate))
        err = np.abs(d.reconstruct() - x.samples).max()
        assert err <= 1e-9 * np.abs(x.samples).max()
        report = verify_orthogonality(d)
        assert report.max_normalized_cross <= 1e-10
        assert abs(report.energy_ratio - 1.0) <= 1e-10

    def test_zero_phase_bin_aligned_tone(self):
        # a tone inside one band comes back with its correlation peak at lag 0
        fs, n = 1000.0, 1000
        t = np.arange(n) / fs
        tone = np.cos(2 * np.pi * 100 * t)
        x = Signal(tone, fs)
        d = dft_decompose(x, BandSpec(bands=4).plan(n, fs))
        band = d.components[0]  # 0-125 Hz band holds the tone
        assert np.abs(band - tone).max() < 1e-9
        corr = np.correlate(band, tone, "full")
        assert corr.argmax() - (n - 1) == 0

    def test_length_mismatch(self):
        x = gen_noise(NoiseSpec(seed=1, length=128), 100.0)
        with pytest.raises(ValueError):
            dft_decompose(x, BandSpec(bands=2).plan(64, 100.0))

    def test_odd_length_reconstruction(self):
        x = gen_noise(NoiseSpec(seed=2, length=257), 100.0)
        d = dft_decompose(x, BandSpec(bands=5).plan(257, 100.0))
        assert np.abs(d.reconstruct() - x.samples).max() <= 1e-9 * np.abs(x.samples).max()
        assert abs(verify_orthogonality(d).energy_ratio - 1.0) <= 1e-10

    @pytest.mark.parametrize("n, plan", [
        (256, lambda n, fs: BandSpec(bands=7).plan(n, fs)),
        (255, lambda n, fs: BandSpec(bands=7).plan(n, fs)),
        (256, lambda n, fs: BandSpec(bands=1).plan(n, fs)),
        (256, lambda n, fs: BandSpec(bands=n // 2).plan(n, fs)),
        (250, lambda n, fs: BandSpec(cutoffs_hz=[3.0, 10.0, 12.5, 25.0]).plan(n, fs)),
    ], ids=["even", "odd", "one-band", "n-over-2-bands", "custom"])
    def test_matches_hermitian_mask_oracle(self, n, plan):
        x = gen_noise(NoiseSpec(seed=n, mean=0.5, length=n), 50.0)
        plan = plan(n, x.sample_rate)
        bands = []
        d = dft_decompose(x, plan, bands.append)
        ref = oracles.dft_decompose(x, plan)
        assert d.c0 == ref.c0
        scale = np.abs(x.samples).max()
        assert len(bands) == len(ref.components) == len(plan) - 1
        for comp, band, want in zip(d.components, bands, ref.components):
            assert np.abs(comp - want).max() <= 1e-12 * scale
            # the quadrature analytic_signal finds from the component alone
            quad = analytic_signal(Signal(comp, x.sample_rate)).z.imag
            assert np.abs(band.z.imag - quad).max() <= 1e-12 * np.abs(quad).max()
            assert np.array_equal(band.z.real, comp)

    def test_nyquist_only_band_is_the_unscaled_bin(self):
        # for even N the Nyquist bin is its own mirror, so one-siding must not double it
        n, fs = 64, 8.0
        rng = np.random.default_rng(5)
        x = Signal(rng.normal(size=n) + 0.5 * (-1.0) ** np.arange(n), fs)
        bands = []
        dft_decompose(x, (0, n // 2 - 1, n // 2), bands.append)
        top = bands[1]
        tone = dft_direct(x.samples)[n // 2].real * (-1.0) ** np.arange(n)
        scale = np.abs(x.samples).max()
        assert np.abs(top.z.real - tone).max() <= 1e-12 * scale
        assert np.abs(top.z.imag).max() <= 1e-12 * scale
        assert np.abs(top.increments() - np.pi).max() <= 1e-12


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
        x = gen_noise(NoiseSpec(seed=6, length=16), 16.0)
        with pytest.raises(ValueError, match=message):
            dft_decompose(x, bounds)

    @settings(max_examples=150, deadline=None)
    @given(_length_and_bands())
    def test_uniform_plan_decomposes_exactly(self, case):
        n, m = case
        bounds = BandSpec(bands=m).plan(n, 100.0)
        assert len(bounds) == m + 1 and bounds[0] == 0 and bounds[-1] == n // 2
        widths = np.diff(bounds)
        assert widths.min() >= 1 and widths.max() - widths.min() <= 1
        x = gen_noise(NoiseSpec(seed=n, mean=0.5, length=n), 100.0)
        d = dft_decompose(x, bounds)
        assert np.abs(d.reconstruct() - x.samples).max() <= 1e-9 * np.abs(x.samples).max()
        assert verify_orthogonality(d).max_normalized_cross <= 1e-10


@pytest.mark.parametrize("method", ["dft", "fmd-a", "fmd-b", "causal-fir"],
                         ids=["dft", "fmd-A", "fmd-B", "causal-fir"])
def test_components_are_one_c_contiguous_array(method):
    x = gen_noise(NoiseSpec(seed=4, length=1024), 100.0)
    if method == "dft":
        d = dft_decompose(x, BandSpec(bands=5).plan(1024, 100.0))
    else:
        d = fmd_decompose(x, [10.0, 20.0, 30.0, 40.0], 32, method)
    assert d.method == method
    assert isinstance(d.components, np.ndarray)
    assert d.components.shape == (5, 1024) and d.components.dtype == np.float64
    assert d.components.flags.c_contiguous
    assert np.array_equal(d.reconstruct(), d.c0 + np.sum(list(d.components), axis=0))


class TestVerifyOrthogonality:
    def test_against_direct_inner_products(self):
        rng = np.random.default_rng(8)
        x = Signal(rng.normal(size=8), 8.0)
        d = dft_decompose(x, BandSpec(bands=2).plan(8, 8.0))
        report = verify_orthogonality(d)
        # oracle: explicit loops
        best = 0.0
        comps = d.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                ni = np.sqrt(sum(v * v for v in comps[i]))
                nj = np.sqrt(sum(v * v for v in comps[j]))
                val = abs(sum(a * b for a, b in zip(comps[i], comps[j]))) / (ni * nj)
                best = max(best, val)
        assert abs(report.max_normalized_cross - best) <= 1e-12
        energy = sum(sum(v * v for v in c) for c in comps) + len(x) * d.c0**2
        assert abs(report.energy_ratio - energy / np.dot(x.samples, x.samples)) <= 1e-12

    @pytest.mark.parametrize("n_bands", [1, 7, 64])
    def test_matches_stacked_gram_oracle(self, n_bands):
        x = gen_noise(NoiseSpec(seed=n_bands, mean=0.3, length=4096), 100.0)
        d = dft_decompose(x, BandSpec(bands=n_bands).plan(4096, 100.0))
        assert verify_orthogonality(d) == oracles.verify_orthogonality(d)

    def test_method_gate(self):
        x = gen_noise(NoiseSpec(seed=3, length=2048), 1000.0)
        d = fmd_decompose(x, [250.0], order=64)
        with pytest.raises(ValueError, match="dft"):
            verify_orthogonality(d)

    def test_zero_energy_ratio_is_one(self):
        d = dft_decompose(Signal(np.zeros(64), 8.0), BandSpec(bands=4).plan(64, 8.0))
        report = verify_orthogonality(d)
        assert report.energy_ratio == 1.0
        assert report.max_normalized_cross == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_energy_rejected(self):
        x = Signal(1e200 * np.cos(2 * np.pi * np.arange(64) / 8), 8.0)
        d = dft_decompose(x, BandSpec(bands=4).plan(64, 8.0))
        with pytest.raises(ValueError, match="overflows"):
            verify_orthogonality(d)
