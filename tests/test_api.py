"""The public names of the package."""

import tracemalloc

import numpy as np
import pytest

import tfekit

PUBLIC = [
    "AnalyticSignal",
    "BandSpec",
    "CheckReport",
    "Decomposition",
    "FirFilter",
    "IFTrack",
    "IFWorkspace",
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
    "phase_diff",
    "positive_if",
    "save_csv",
    "zero_phase_filter",
]

# removed names, each with the module that held it
REMOVED = [
    ("analytic", "dft"),
    ("analytic", "idft"),
    ("analytic", "one_sided"),
    ("tfe", "build_tfe"),
    ("tfe", "export_track_csv"),
    ("filterbank", "BandPlan"),
    ("filterbank", "uniform_band_plan"),
    ("filterbank", "custom_band_plan"),
    ("io", "SAVE_BLOCK"),
    ("signals", "remove_mean"),
    ("filterbank", "verify_orthogonality"),
    ("fmd", "verify_linoep"),
    ("instfreq", "DiffScheme"),
    ("signals", "NoiseSpec"),
    ("filterbank", "OrthogonalityReport"),
    ("fmd", "LinoepReport"),
]

REMOVED_ATTRIBUTES = [
    (tfekit.AnalyticSignal, "in_phase"),
    (tfekit.AnalyticSignal, "quadrature"),
    (tfekit.AnalyticSignal, "envelope"),
    (tfekit.AnalyticSignal, "degenerate"),
    # a dataclass field is no class attribute: an instance shows it
    (tfekit.AnalyticSignal(np.zeros(4), np.zeros(4), 1.0), "z"),
    (tfekit.Signal, "times"),
    (tfekit.Signal, "duration"),
    (tfekit.Signal, "energy"),
    (tfekit.Decomposition, "sample_rate"),
    (tfekit.Decomposition, "components"),
    (tfekit.Decomposition, "method"),
    (tfekit.Decomposition, "boundaries"),
    (tfekit.Decomposition, "n_components"),
    (tfekit.Decomposition, "reconstruct"),
    (tfekit.Decomposition, "reconstruction"),
    # an instance attribute: a workspace shows it
    (tfekit.IFWorkspace(4), "mask"),
    (tfekit.IFWorkspace(4), "scratch"),
    (tfekit.IFWorkspace(4), "frequency"),
]


def test_all_is_the_public_list():
    assert tfekit.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(tfekit, name) is not None


def test_each_module_lists_its_own_public_names():
    # tfekit star-imports these modules: a name two of them listed would be shadowed
    modules = [tfekit.analytic, tfekit.filterbank, tfekit.fmd, tfekit.instfreq, tfekit.io,
               tfekit.signals, tfekit.tfe]
    listed = []
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
            assert getattr(tfekit, name) is getattr(module, name), name
        listed += module.__all__
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == PUBLIC


@pytest.mark.parametrize("module, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_functions_are_gone(module, name):
    assert not hasattr(tfekit, name)
    assert not hasattr(getattr(tfekit, module), name)


@pytest.mark.parametrize("owner, name", REMOVED_ATTRIBUTES,
                         ids=[name for _, name in REMOVED_ATTRIBUTES])
def test_removed_attributes_are_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("n", [4097, 1 << 16])
def test_workspace_holds_three_arrays_only(n):
    # spectrum (n//2+1 complex), quadrature (n floats) and the folds' n
    # booleans, plus the objects themselves: no third float array, no
    # scratch, no mask
    tfekit.IFWorkspace(n)
    tracemalloc.start()
    try:
        workspace = tfekit.IFWorkspace(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (n // 2 + 1) + 9 * n + 2048
    assert set(vars(workspace)) == {"n", "spectrum", "quadrature", "folds"}


def test_fir_filter_keeps_no_cutoff():
    h = tfekit.design_fir("lowpass", 100.0, 16, 1000.0)
    assert not hasattr(h, "nominal_cutoff_hz")
    assert h.kind == "lowpass" and h.order == 16
