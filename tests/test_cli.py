"""End-to-end CLI runs through main()."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest

from tfekit import (
    AnalyticSignal,
    BandSpec,
    IFWorkspace,
    Signal,
    TFEAccumulator,
    dft_decompose,
    fmd_decompose,
    if_track,
    load_csv,
    load_grid_csv,
    load_track_csv,
    one_sided,
    verify_linoep,
)
from tfekit.cli import (
    FIXTURE_FLAGS,
    FIXTURES,
    _decompose,
    _load_input,
    _run_analysis,
    _settings,
    build_parser,
    main,
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_huge_csv(path):
    # a 1e200-amplitude cosine: its squared envelope overflows float64
    x = 1e200 * np.cos(2 * np.pi * np.arange(512) / 16)
    path.write_text("# sample_rate=100\n" + "".join(f"{v:.17g}\n" for v in x))


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def test_runtime_imports_numpy_only():
    # scipy is a test-only dependency; the CLI must start without it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tfekit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestGen:
    def test_chirp_fixture(self, workdir):
        rc = main(["gen", "chirp", "--f0", "1000", "--f1", "2000", "--dur", "1", "--fs", "8000"])
        assert rc == 0
        x = load_csv(workdir / "chirp.csv")
        assert len(x) == 8000
        assert x.sample_rate == 8000.0

    def test_delta_fixture(self, workdir):
        rc = main(["gen", "delta", "--n0", "1999", "--len", "4000", "--fs", "1000",
                   "--out", "d.csv"])
        assert rc == 0
        x = load_csv(workdir / "d.csv")
        assert x.samples[1999] == 1.0
        assert x.samples.sum() == 1.0

    def test_noise_deterministic(self, workdir):
        main(["gen", "noise", "--seed", "1", "--len", "10240", "--fs", "100", "--out", "a.csv"])
        main(["gen", "noise", "--seed", "1", "--len", "10240", "--fs", "100", "--out", "b.csv"])
        assert (workdir / "a.csv").read_text() == (workdir / "b.csv").read_text()

    def test_unknown_fixture_usage_error(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(["gen", "sawtooth"])
        assert err.value.code == 2


class TestAnalyze:
    def test_dft_run(self, workdir):
        main(["gen", "chirp", "--dur", "0.5", "--out", "in.csv"])
        rc = main(["analyze", "--input", "in.csv", "--method", "dft", "--bands", "10",
                   "--out-prefix", "run"])
        assert rc == 0
        diag = json.loads((workdir / "run_diagnostics.json").read_text())
        assert diag["schema"] == "tfekit-diagnostics/1"
        assert diag["n_components"] == 10
        assert diag["reconstruction_error"] < 1e-9
        assert diag["orthogonality"]["max_normalized_cross"] < 1e-10
        assert diag["negative_if_fraction"] == 0.0
        t, f, e = load_track_csv(workdir / "run_tracks.csv")
        assert t.size == 10 * 4000
        grid = load_grid_csv(workdir / "run_grid.csv")
        assert grid.total_energy == pytest.approx(e.sum(), rel=1e-9)

    def test_conventional_mode_reports_negatives(self, workdir):
        rc = main(["analyze", "--gen", "chirp-fm-mix", "--method", "none",
                   "--if", "conventional", "--out-prefix", "conv"])
        assert rc == 0
        diag = json.loads((workdir / "conv_diagnostics.json").read_text())
        assert diag["negative_if_fraction"] > 0

    def test_method_none_forbids_plan(self, workdir, capsys):
        rc = main(["analyze", "--gen", "chirp", "--method", "none", "--bands", "4",
                   "--out-prefix", "x"])
        assert rc == 1
        assert "forbids a band plan" in capsys.readouterr().err

    def test_method_needs_plan(self, workdir, capsys):
        rc = main(["analyze", "--gen", "chirp", "--method", "dft", "--out-prefix", "x"])
        assert rc == 1
        assert "band plan" in capsys.readouterr().err

    def test_csv_without_rate_needs_fs(self, workdir, capsys):
        (workdir / "bare.csv").write_text("0.0\n1.0\n0.0\n-1.0\n" * 64)
        rc = main(["analyze", "--input", "bare.csv", "--out-prefix", "x"])
        assert rc == 1
        assert "--fs" in capsys.readouterr().err
        rc = main(["analyze", "--input", "bare.csv", "--fs", "100", "--out-prefix", "x"])
        assert rc == 0

    def test_plan_file_and_fmd(self, workdir):
        (workdir / "plan.json").write_text(json.dumps({"type": "custom", "cutoffs_hz": [5, 10, 20, 25]}))
        rc = main(["analyze", "--gen", "noise", "--seed", "3", "--len", "4096", "--fs", "50",
                   "--method", "fmd-a", "--plan", "plan.json", "--order", "64",
                   "--out-prefix", "eq"])
        assert rc == 0
        diag = json.loads((workdir / "eq_diagnostics.json").read_text())
        assert diag["n_components"] == 4
        assert diag["linoep"]["max_tail_cross"] < 1e-8
        assert abs(diag["linoep"]["energy_ratio"] - 1) < 1e-8

    def test_config_file_with_flag_override(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"method": "dft", "bands": 4}))
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.5", "--config", "cfg.json",
                   "--bands", "8", "--out-prefix", "cfgd"])
        assert rc == 0
        diag = json.loads((workdir / "cfgd_diagnostics.json").read_text())
        assert diag["n_components"] == 8

    @pytest.mark.parametrize("cutoffs", ["5,10,20,30", "5,10"])
    def test_custom_plan_checked_alike_for_dft_and_fmd(self, workdir, capsys, cutoffs):
        main(["gen", "noise", "--fs", "50", "--len", "1024", "--out", "in.csv"])
        capsys.readouterr()
        errors = []
        for method in ("dft", "fmd-a"):
            rc = main(["analyze", "--input", "in.csv", "--method", method, "--cutoffs", cutoffs,
                       "--out-prefix", method])
            assert rc == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and "Nyquist" in errors[0]

    def test_all_zero_input_strict_json(self, workdir):
        (workdir / "zero.csv").write_text("# sample_rate=100\n" + "0.0\n" * 512)
        rc = main(["analyze", "--input", "zero.csv", "--method", "dft", "--bands", "10",
                   "--out-prefix", "z"])
        assert rc == 0
        diag = json.loads((workdir / "z_diagnostics.json").read_text(), parse_constant=_reject)
        assert diag["orthogonality"]["energy_ratio"] == 1.0

    @pytest.mark.parametrize("method", [["none"], ["fmd-a", "--bands", "4", "--order", "32"],
                                        ["dft", "--bands", "4"]], ids=["none", "fmd-a", "dft"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_input_fails_loudly(self, workdir, capsys, method):
        _write_huge_csv(workdir / "big.csv")
        rc = main(["analyze", "--input", "big.csv", "--method", *method, "--out-prefix", "big"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("method", [["none"], ["fmd-a", "--bands", "4", "--order", "16"],
                                        ["dft", "--bands", "4"]], ids=["none", "fmd-a", "dft"])
    def test_overflowing_input_one_error_line(self, workdir, method):
        # a fresh process, so numpy warnings would reach stderr as users see them
        _write_huge_csv(workdir / "big.csv")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "tfekit.cli", "analyze", "--input", "big.csv",
             "--method", *method, "--out-prefix", "big"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    @pytest.mark.filterwarnings("error")
    def test_overflowing_dft_input_leaves_no_tracks_file(self, workdir, capsys):
        # refused before the first band, with the same error the verifier gives
        _write_huge_csv(workdir / "big.csv")
        rc = main(["analyze", "--input", "big.csv", "--method", "dft", "--bands", "4",
                   "--out-prefix", "big"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: signal energy overflows float64; rescale the input\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["big.csv"]

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_overflowing_grid_cell_fails_loudly(self, workdir, capsys, command):
        # each sample's energy is finite; their sum in the one cell is not
        x = 1e153 * np.cos(2 * np.pi * 10 * np.arange(1000) / 100)
        (workdir / "big.csv").write_text("# sample_rate=100\n" + "".join(f"{v:.17g}\n" for v in x))
        sides = (["--method", "none"] if command == "analyze"
                 else ["--a-method", "none", "--b-method", "none"])
        rc = main([command, "--input", "big.csv", *sides, "--time-bins", "1", "--freq-bins", "1",
                   "--out-prefix", "big"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: grid cells must be finite; a cell's energy sum overflows float64\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["big.csv"]

    def test_failed_check_after_streaming_leaves_no_tracks_file(self, workdir, capsys, monkeypatch):
        import tfekit.cli as cli

        streamed = []

        def failing(decomposition):
            streamed.extend(workdir.iterdir())
            raise ValueError("forced failure")

        monkeypatch.setattr(cli, "verify_orthogonality", failing)
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--method", "dft",
                   "--bands", "4", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == "error: forced failure\n"
        # every track was written to the partial file before the check ran
        assert [p.name for p in streamed] == ["x_tracks.csv.partial"]
        assert not list(workdir.iterdir())

    @pytest.mark.parametrize("flag", ["--time-bins", "--freq-bins"])
    def test_bad_bin_count_writes_no_tracks(self, workdir, capsys, flag):
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--method", "dft",
                   "--bands", "4", flag, "0", "--out-prefix", "bad"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(workdir.glob("*_tracks.csv"))

    @pytest.mark.parametrize("method", [["none"], ["dft", "--bands", "1"]], ids=["none", "dft"])
    def test_three_samples_refused(self, workdir, capsys, method):
        (workdir / "short.csv").write_text("# sample_rate=100\n1.0\n-1.0\n0.5\n")
        rc = main(["analyze", "--input", "short.csv", "--method", *method, "--out-prefix", "s"])
        assert rc == 1
        assert "analytic signal needs at least 4 samples" in capsys.readouterr().err

    def test_dft_bank_one_inverse_transform_per_band(self, monkeypatch):
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _transform(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        args = build_parser().parse_args(["analyze", "--gen", "chirp", "--dur", "0.1",
                                          "--method", "dft", "--bands", "10"])
        signal, _, _ = _load_input(args)
        tracks = []
        grid = TFEAccumulator(len(signal), signal.sample_rate)
        diagnostics, _ = _run_analysis(signal, _settings(args, None), grid, tracks.append)
        assert len(tracks) == diagnostics["n_components"] == 10
        assert calls == {"fft": 1, "ifft": 10}

    @pytest.mark.parametrize("command", [
        ["analyze", "--method", "fmd-a", "--bands", "4"],
        ["compare", "--a-method", "dft", "--a-bands", "10", "--b-method", "fmd-a", "--b-bands", "4"],
    ], ids=["analyze", "compare"])
    def test_one_workspace_per_side(self, workdir, monkeypatch, command):
        made = []
        init = IFWorkspace.__init__

        def counted(self, n):
            made.append(n)
            init(self, n)

        monkeypatch.setattr(IFWorkspace, "__init__", counted)
        assert main([*command, "--gen", "chirp", "--dur", "0.1", "--out-prefix", "x"]) == 0
        assert made == [800] * (1 if command[0] == "analyze" else 2)

    def test_fmd_components_tracked_without_a_copy(self, monkeypatch):
        # once verified, tracking the FMD components adds the IF workspace
        # to the peak and less than one more N-sample float array: no
        # component is copied to be tracked
        n = 1 << 16
        args = build_parser().parse_args(["analyze", "--gen", "chirp", "--dur", str(n / 8000),
                                          "--method", "fmd-a", "--bands", "4"])
        signal, _, _ = _load_input(args)
        verified = []

        def verify(decomposition):
            report = verify_linoep(decomposition)
            tracemalloc.reset_peak()
            verified.append(tracemalloc.get_traced_memory()[0])
            return report

        monkeypatch.setattr("tfekit.cli.verify_linoep", verify)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workspace = IFWorkspace(n)
            workspace_bytes = tracemalloc.get_traced_memory()[0] - before
            del workspace
            diagnostics, _ = _run_analysis(signal, _settings(args, None),
                                           TFEAccumulator(n, signal.sample_rate))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diagnostics["n_components"] == 4
        assert peak - verified[0] < workspace_bytes + n * 8


class TestMethodSettings:
    @pytest.mark.parametrize("method", ["dft", "fmd-a", "fmd-b", "causal-fir"])
    def test_decomposition_carries_the_cli_method_name(self, method):
        args = build_parser().parse_args(["decompose", "--gen", "chirp", "--dur", "0.1",
                                          "--method", method, "--bands", "4"])
        signal, _, _ = _load_input(args)
        decomposition, _ = _decompose(signal, _settings(args, None))
        assert decomposition.method == method

    @pytest.mark.parametrize("method", ["none", "dft"])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_order_refused_where_it_does_nothing(self, workdir, capsys, method, how):
        bands = [] if method == "none" else ["--bands", "4"]
        if how == "flag":
            given = ["--order", "7"]
        else:
            (workdir / "cfg.json").write_text(json.dumps({"order": 256}))
            given = ["--config", "cfg.json"]
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--method", method, *bands,
                   *given, "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: method {method!r} takes no FIR order; "
            "--order applies to fmd-a, fmd-b and causal-fir\n")
        assert not list(workdir.glob("x_*"))

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_compare_refuses_order_per_side(self, workdir, capsys, side):
        rc = main(["compare", "--gen", "chirp", "--dur", "0.1", "--a-method", "dft",
                   "--a-bands", "4", "--b-method", "none", f"--{side}-order", "64",
                   "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: method ")

    @pytest.mark.parametrize("side_b", [
        ["--b-method", "none", "--b-order", "64"],
        ["--b-method", "fmd-a"],
        ["--b-method", "fmd-b", "--b-cutoffs", "500,300,4000"],
    ], ids=["order-for-none", "no-band-plan", "bad-cutoffs"])
    def test_compare_checks_side_b_before_writing(self, workdir, capsys, side_b):
        rc = main(["compare", "--gen", "chirp", "--dur", "0.1", "--a-method", "dft",
                   "--a-bands", "4", *side_b, "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(workdir.glob("x_*"))

    def test_compare_side_b_failing_at_run_time_leaves_no_file(self, workdir, capsys):
        # side b's settings are sound; its ladder needs more samples than the chirp has
        rc = main(["compare", "--gen", "chirp", "--dur", "0.05", "--a-method", "dft",
                   "--a-bands", "4", "--b-method", "fmd-a", "--b-bands", "2", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: signal of 400 samples too short for forward-backward filtering with "
            "257 taps (need > 771)\n")
        assert not list(workdir.glob("x_*"))

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b", "causal-fir"])
    def test_default_order_is_256(self, workdir, method):
        for prefix, order in (("default", []), ("explicit", ["--order", "256"])):
            assert main(["decompose", "--gen", "chirp", "--dur", "0.25", "--method", method,
                         "--bands", "4", *order, "--out-prefix", prefix]) == 0
        for i in range(1, 5):
            default = (workdir / f"default_component_{i:03d}.csv").read_bytes()
            assert default == (workdir / f"explicit_component_{i:03d}.csv").read_bytes()


class TestDecompose:
    def test_components_written_and_reconstruct(self, workdir):
        main(["gen", "chirp", "--dur", "0.5", "--out", "in.csv"])
        rc = main(["decompose", "--input", "in.csv", "--method", "dft", "--bands", "4",
                   "--out-prefix", "dec"])
        assert rc == 0
        diag = json.loads((workdir / "dec_diagnostics.json").read_text())
        parts = [load_csv(p) for p in diag["outputs"]["components"]]
        assert len(parts) == 4
        x = load_csv(workdir / "in.csv")
        rebuilt = diag["c0"] + np.sum([p.samples for p in parts], axis=0)
        assert np.abs(rebuilt - x.samples).max() <= 1e-9 * np.abs(x.samples).max()

    def test_method_required(self, workdir, capsys):
        rc = main(["decompose", "--gen", "chirp", "--out-prefix", "dec"])
        assert rc == 1
        assert "--method" in capsys.readouterr().err

    def test_no_if_settings(self, workdir):
        config = {"method": "dft", "bands": 2, "if": "conventional"}
        (workdir / "cfg.json").write_text(json.dumps(config))
        rc = main(["decompose", "--gen", "chirp", "--dur", "0.1", "--config", "cfg.json",
                   "--out-prefix", "dec"])
        assert rc == 0
        diag = json.loads((workdir / "dec_diagnostics.json").read_text())
        assert not {"if_mode", "scheme", "negative_if_fraction"} & set(diag)
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--gen", "chirp", "--method", "dft", "--bands", "2",
                  "--if", "positive"])
        assert err.value.code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unverifiable_decomposition_fails(self, workdir, capsys):
        _write_huge_csv(workdir / "big.csv")
        rc = main(["decompose", "--input", "big.csv", "--method", "fmd-a", "--bands", "4",
                   "--order", "32", "--out-prefix", "big"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_fmd_input_refused_before_writing(self, workdir, capsys):
        _write_huge_csv(workdir / "big.csv")
        rc = main(["decompose", "--input", "big.csv", "--method", "fmd-a", "--bands", "4",
                   "--order", "16", "--out-prefix", "big"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: signal energy overflows float64; rescale the input\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["big.csv"]

    @pytest.mark.parametrize("flag", ["--time-bins", "--freq-bins"])
    def test_no_bin_flags(self, workdir, flag):
        # decompose builds no grid, so it takes no grid size
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--gen", "chirp", "--dur", "0.1", "--method", "dft",
                  "--bands", "4", flag, "10"])
        assert err.value.code == 2
        assert not list(workdir.iterdir())


# fixture -> (length, sample rate) at its defaults, and whether it has true ridges
FIXTURE_SHAPES = {
    "chirp": (8000, 8000.0, True),
    "fm": (8000, 8000.0, True),
    "delta": (4000, 1000.0, True),
    "noise": (10240, 100.0, False),
    "chirp-fm-mix": (8000, 8000.0, True),
    "five-chirps": (16000, 8000.0, True),
    "chirp-delayed": (12000, 8000.0, False),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SHAPES))
def test_every_fixture(workdir, name):
    length, rate, has_ridges = FIXTURE_SHAPES[name]
    assert main(["gen", name, "--out", "f.csv"]) == 0
    x = load_csv(workdir / "f.csv")
    assert (len(x), x.sample_rate) == (length, rate)
    assert main(["compare", "--gen", name, "--a-method", "none", "--b-method", "none",
                 "--b-if", "conventional", "--out-prefix", "c"]) == 0
    report = json.loads((workdir / "c_compare.json").read_text())
    for side in report["sides"].values():
        assert side["n_samples"] == length
        assert ("ridge_error_hz" in side) == has_ridges


def test_fixture_shapes_cover_every_fixture():
    assert set(FIXTURES) == set(FIXTURE_SHAPES)


def test_fixture_flags_cover_every_parameter():
    # every fixture parameter but the rate has its flag, and every flag a fixture
    params = {key for defaults, _, _ in FIXTURES.values() for key in defaults}
    assert params - {"fs"} == set(FIXTURE_FLAGS)


@pytest.mark.parametrize("argv, flag", [
    (["gen", "chirp", "--seed", "7"], "--seed"),
    (["gen", "chirp", "--var", "3"], "--var"),
    (["gen", "noise", "--dur", "1"], "--dur"),
    (["gen", "delta", "--fs", "100", "--len", "64", "--n0", "3", "--total-dur", "2"], "--total-dur"),
    (["gen", "chirp-fm-mix", "--amp", "2"], "--amp"),
    (["analyze", "--gen", "fm", "--f0", "100", "--method", "none"], "--f0"),
    (["analyze", "--input", "in.csv", "--n0", "3"], "--n0"),
    (["analyze", "--input", "in.csv", "--fs", "50", "--f0", "9"], "--f0"),
    (["decompose", "--input", "in.csv", "--len", "64", "--method", "dft", "--bands", "2"], "--len"),
    (["compare", "--input", "in.csv", "--dur", "1", "--a-method", "none", "--b-method", "none"],
     "--dur"),
], ids=["gen-seed", "gen-var", "gen-dur", "gen-total-dur", "gen-amp", "analyze-gen", "analyze-n0",
        "analyze-f0", "decompose-len", "compare-dur"])
def test_unused_fixture_flag_refused(workdir, capsys, argv, flag):
    main(["gen", "noise", "--len", "256", "--fs", "100", "--out", "in.csv"])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert sorted(p.name for p in workdir.iterdir()) == ["in.csv"]


class TestCompare:
    def test_identical_configs_identical_outputs(self, workdir):
        args = ["compare", "--gen", "chirp", "--dur", "0.5",
                "--a-method", "dft", "--a-bands", "4",
                "--b-method", "dft", "--b-bands", "4",
                "--out-prefix", "same"]
        assert main(args) == 0
        a = (workdir / "same_a_grid.csv").read_text()
        b = (workdir / "same_b_grid.csv").read_text()
        assert a == b
        report = json.loads((workdir / "same_compare.json").read_text())
        assert report["sides"]["a"]["ridge_error_hz"] == report["sides"]["b"]["ridge_error_hz"]

    def test_zero_phase_beats_causal_on_ridges(self, workdir):
        args = ["compare", "--gen", "five-chirps", "--dur", "1",
                "--a-method", "fmd-a", "--a-bands", "10", "--a-order", "128",
                "--b-method", "causal-fir", "--b-bands", "10", "--b-order", "128",
                "--out-prefix", "fir"]
        assert main(args) == 0
        report = json.loads((workdir / "fir_compare.json").read_text())
        zero_phase = report["sides"]["a"]["ridge_error_hz"]
        causal = report["sides"]["b"]["ridge_error_hz"]
        assert causal > 3 * zero_phase

    @pytest.mark.parametrize("flag", ["--time-bins", "--freq-bins"])
    def test_bad_bin_count_refused_before_decomposing(self, workdir, capsys, monkeypatch, flag):
        import tfekit.cli as cli

        calls = []
        for name in ("dft_decompose", "fmd_decompose"):
            def counted(*args, _fn=getattr(cli, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        rc = main(["compare", "--gen", "chirp", "--dur", "0.1",
                   "--a-method", "dft", "--a-bands", "4",
                   "--b-method", "fmd-a", "--b-bands", "4", "--b-order", "16",
                   flag, "0", "--out-prefix", "bad"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []
        assert not list(workdir.iterdir())

    def test_positive_vs_conventional(self, workdir):
        args = ["compare", "--gen", "fm", "--dur", "0.5",
                "--a-method", "none", "--a-if", "positive",
                "--b-method", "none", "--b-if", "conventional",
                "--out-prefix", "ifm"]
        assert main(args) == 0
        report = json.loads((workdir / "ifm_compare.json").read_text())
        assert report["sides"]["a"]["negative_if_fraction"] == 0.0
        assert report["sides"]["b"]["negative_if_fraction"] >= 0.0


def _oracle_tracks(x, method, bands):
    """Every IF track of `method` held in one list, and the checks, on a stacked Gram copy."""
    fs = x.sample_rate
    checks = {"reconstruction_error": None, "orthogonality": None, "linoep": None}
    if method == "none":
        return [if_track(x)], checks
    if method == "dft":
        plan = BandSpec(bands=bands).plan(len(x), fs)
        d = dft_decompose(x, plan)
        spectrum = np.fft.fft(x.samples, norm="forward")
        tracks = [if_track(AnalyticSignal(one_sided(spectrum, plan[i] + 1, plan[i + 1]), fs))
                  for i in range(bands)]
    else:
        d = fmd_decompose(x, BandSpec(bands=bands).ladder(fs), 256, method)
        tracks = [if_track(Signal(c, fs)) for c in list(d.components)]
    err = np.abs(d.c0 + np.sum(list(d.components), axis=0) - x.samples).max()
    checks["reconstruction_error"] = float(err / max(np.abs(x.samples).max(), 1e-300))
    if method == "dft":
        rep = oracles.verify_orthogonality(d)
        checks["orthogonality"] = {"max_normalized_cross": rep.max_normalized_cross,
                                   "energy_ratio": rep.energy_ratio}
    elif method == "fmd-a":
        rep = verify_linoep(d)
        checks["linoep"] = {"max_tail_cross": rep.max_tail_cross, "energy_ratio": rep.energy_ratio}
    return tracks, checks


def _oracle_diagnostics(x, method, tracks, checks):
    return {
        "schema": "tfekit-diagnostics/1",
        "method": method,
        "if_mode": "positive",
        "scheme": "forward",
        "n_samples": len(x),
        "sample_rate_hz": x.sample_rate,
        "n_components": len(tracks),
        "negative_if_fraction": float(np.mean([t.negative_fraction for t in tracks])),
        **checks,
    }


def _json_bytes(document):
    return (json.dumps(document, indent=2, allow_nan=False) + "\n").encode()


def _mixture():
    defaults, build, ridges = FIXTURES["chirp-fm-mix"]
    return build(dict(defaults)), ridges(dict(defaults))


class TestStreamingMatchesListOracle:
    """The CLI streams each track into the grid and the CSV; the bytes are those of the list path."""

    @pytest.mark.parametrize("method", ["none", "dft", "fmd-a", "causal-fir"])
    def test_analyze_bytes(self, workdir, method):
        bands = [] if method == "none" else ["--bands", "12"]
        assert main(["analyze", "--gen", "chirp-fm-mix", "--method", method, *bands,
                     "--out-prefix", "cli"]) == 0
        x, _ = _mixture()
        tracks, checks = _oracle_tracks(x, method, 12)
        want = workdir / "oracle"
        want.mkdir()
        oracles.export_track_csv(tracks, want / "tracks.csv")
        oracles.export_grid_csv(oracles.build_tfe(tracks), want / "grid.csv")
        diagnostics = _oracle_diagnostics(x, method, tracks, checks)
        diagnostics["outputs"] = {"tracks_csv": "cli_tracks.csv", "grid_csv": "cli_grid.csv"}
        assert (workdir / "cli_tracks.csv").read_bytes() == (want / "tracks.csv").read_bytes()
        assert (workdir / "cli_grid.csv").read_bytes() == (want / "grid.csv").read_bytes()
        assert (workdir / "cli_diagnostics.json").read_bytes() == _json_bytes(diagnostics)

    def test_compare_bytes(self, workdir):
        assert main(["compare", "--gen", "chirp-fm-mix", "--a-method", "dft", "--a-bands", "12",
                     "--b-method", "causal-fir", "--b-bands", "6", "--out-prefix", "cli"]) == 0
        x, ridges = _mixture()
        report = {"schema": "tfekit-compare/1", "sides": {}}
        for side, method, bands in (("a", "dft", 12), ("b", "causal-fir", 6)):
            tracks, checks = _oracle_tracks(x, method, bands)
            oracles.export_grid_csv(oracles.build_tfe(tracks), workdir / f"want_{side}.csv")
            assert ((workdir / f"cli_{side}_grid.csv").read_bytes()
                    == (workdir / f"want_{side}.csv").read_bytes())
            weighted = total = 0.0
            for tr in tracks:
                dist = np.min(np.stack([np.abs(tr.frequency_hz - r) for r in ridges]), axis=0)
                weighted += float(np.dot(dist, tr.energy))
                total += float(tr.energy.sum())
            report["sides"][side] = {**_oracle_diagnostics(x, method, tracks, checks),
                                     "grid_csv": f"cli_{side}_grid.csv",
                                     "ridge_error_hz": weighted / total}
        assert (workdir / "cli_compare.json").read_bytes() == _json_bytes(report)


@pytest.mark.parametrize("argv", [
    ["analyze", "--method", "dft", "--bands", "64"],
    ["compare", "--a-method", "dft", "--a-bands", "64", "--b-method", "fmd-a", "--b-bands", "64"],
], ids=["analyze-dft", "compare-dft-fmd-a"])
def test_peak_memory_two_component_arrays(workdir, argv):
    # one (M, N) component array plus one band at a time, not M copies of each band
    m, n = 64, 16384
    tracemalloc.start()
    try:
        rc = main([*argv, "--gen", "chirp-fm-mix", "--dur", str(n / 8000), "--out-prefix", "mem"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 2 * m * n * 8, f"peak {peak / (m * n * 8):.2f} x M*N*8 bytes"
