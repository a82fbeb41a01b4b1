"""The public names of the package."""

import pytest

import tfekit

PUBLIC = [
    "AnalyticSignal",
    "BandSpec",
    "Decomposition",
    "DiffScheme",
    "FirFilter",
    "IFTrack",
    "IFWorkspace",
    "LinoepReport",
    "NoiseSpec",
    "OrthogonalityReport",
    "Signal",
    "TFEAccumulator",
    "TFEGrid",
    "TrackCsvWriter",
    "analytic_signal",
    "causal_filter",
    "chirp_true_if",
    "conventional_if",
    "delay_pad",
    "design_fir",
    "dft_decompose",
    "export_grid_csv",
    "fm_true_if",
    "fmd_decompose",
    "gen_chirp",
    "gen_delta",
    "gen_fm",
    "gen_noise",
    "if_track",
    "load_csv",
    "load_grid_csv",
    "load_track_csv",
    "load_wav",
    "mix",
    "one_sided",
    "phase_diff",
    "positive_if",
    "remove_mean",
    "save_csv",
    "verify_linoep",
    "verify_orthogonality",
    "zero_phase_filter",
]

# removed names, each with the module that held it
REMOVED = [
    ("analytic", "dft"),
    ("analytic", "idft"),
    ("tfe", "build_tfe"),
    ("tfe", "export_track_csv"),
    ("filterbank", "BandPlan"),
    ("filterbank", "uniform_band_plan"),
    ("filterbank", "custom_band_plan"),
    ("io", "SAVE_BLOCK"),
]

REMOVED_ATTRIBUTES = [
    (tfekit.AnalyticSignal, "in_phase"),
    (tfekit.AnalyticSignal, "quadrature"),
    (tfekit.AnalyticSignal, "envelope"),
    (tfekit.AnalyticSignal, "degenerate"),
    (tfekit.Signal, "times"),
    (tfekit.Signal, "duration"),
    (tfekit.Signal, "energy"),
    (tfekit.Decomposition, "sample_rate"),
]


def test_all_is_the_public_list():
    assert tfekit.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(tfekit, name) is not None


@pytest.mark.parametrize("module, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_functions_are_gone(module, name):
    assert not hasattr(tfekit, name)
    assert not hasattr(getattr(tfekit, module), name)


@pytest.mark.parametrize("owner, name", REMOVED_ATTRIBUTES,
                         ids=[name for _, name in REMOVED_ATTRIBUTES])
def test_removed_attributes_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_fir_filter_keeps_no_cutoff():
    h = tfekit.design_fir("lowpass", 100.0, 16, 1000.0)
    assert not hasattr(h, "nominal_cutoff_hz")
    assert h.kind == "lowpass" and h.order == 16
