"""End-to-end CLI runs through main()."""

import json
import os
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from streams import collect

from tfekit import (
    BandSpec,
    IFWorkspace,
    TFEAccumulator,
    dft_decompose,
    fmd_decompose,
    if_track,
    load_csv,
    load_grid_csv,
    load_track_csv,
)
from tfekit.cli import (
    FIXTURE_FLAGS,
    FIXTURES,
    _load_input,
    _resolve_bands,
    _run_analysis,
    _settings,
    build_parser,
    main,
)
from tfekit.filterbank import CHECKS
from tfekit.signals import _dot


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_huge_csv(path):
    # a 1e200-amplitude cosine: its squared envelope overflows float64
    x = 1e200 * np.cos(2 * np.pi * np.arange(512) / 16)
    path.write_text("# sample_rate=100\n" + "".join(f"{v:.17g}\n" for v in x))


def _write_near_max_csv(path):
    # a 1e308-amplitude cosine: its spectrum, its mean's sum and its energy all overflow
    x = 1e308 * np.cos(2 * np.pi * 10 * np.arange(64) / 100)
    path.write_text("# sample_rate=100\n" + "".join(f"{v:.17g}\n" for v in x))


def _child_env():
    """The environment of a fresh Python process that imports this checkout's tfekit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def test_runtime_imports_numpy_only():
    # scipy is a test-only dependency; the CLI must start without it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tfekit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_outputs_independent_of_blas_threads(tmp_path):
    # numpy's BLAS dot threads only above ~10k samples, where its sum depends
    # on the thread count; 2 s at 8 kHz, 16k samples, is past that
    argv = ["compare", "--gen", "chirp-fm-mix", "--dur", "2", "--a-method", "dft",
            "--a-bands", "10", "--b-method", "fmd-a", "--b-bands", "10", "--b-order", "64",
            "--out-prefix", "det"]
    base = {k: v for k, v in _child_env().items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    outputs = []
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        for threads in ("1", "2"):
            run = tmp_path / f"{var}-{threads}"
            run.mkdir()
            proc = subprocess.run([sys.executable, "-m", "tfekit.cli", *argv], cwd=run,
                                  capture_output=True, text=True,
                                  env={**base, var: threads}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in run.iterdir()})
    assert sorted(outputs[0]) == ["det_a_grid.csv", "det_b_grid.csv", "det_compare.json"]
    for other in outputs[1:]:
        assert other == outputs[0]
    # and the one reduction gives the same bits wherever its operands sit in memory
    x, y = np.random.default_rng(5).normal(size=(2, 20_000))
    n = x.size
    buffer = np.empty(2 * n + 8)
    bits = set()
    for offset in range(8):
        a, b = buffer[offset : offset + n], buffer[offset + n : offset + 2 * n]
        a[:], b[:] = x, y
        bits.add(_dot(a, b).hex())
    assert len(bits) == 1


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

    def test_failed_write_leaves_the_earlier_file(self, workdir, capsys, monkeypatch):
        import tfekit.cli as cli

        (workdir / "x.csv").write_text("# sample_rate=100\n0\n1\n0\n-1\n")
        before = (workdir / "x.csv").read_bytes()

        def failing(signal, path):
            Path(path).write_text("# sample_rate=100\n0.5\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "save_csv", failing)
        rc = main(["gen", "noise", "--len", "1000", "--out", "x.csv"])
        assert rc == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["x.csv"]
        assert (workdir / "x.csv").read_bytes() == before


class TestAnalyze:
    def test_dft_run(self, workdir):
        main(["gen", "chirp", "--dur", "0.5", "--out", "in.csv"])
        rc = main(["analyze", "--input", "in.csv", "--method", "dft", "--bands", "10",
                   "--out-prefix", "run"])
        assert rc == 0
        diag = json.loads((workdir / "run_diagnostics.json").read_text())
        assert diag["schema"] == "tfekit-diagnostics/1"
        assert diag["n_components"] == 10
        assert diag["reconstruction_error"] <= CHECKS["reconstruction_error"]
        assert (diag["orthogonality"]["max_normalized_cross"]
                <= CHECKS["orthogonality"]["max_normalized_cross"])
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
        assert diag["linoep"]["max_tail_cross"] <= CHECKS["linoep"]["max_tail_cross"]
        assert abs(diag["linoep"]["energy_ratio"] - 1) <= CHECKS["linoep"]["energy_ratio"]

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

    @pytest.mark.parametrize("method", [["dft"], ["fmd-a", "--order", "16"]], ids=["dft", "fmd-a"])
    def test_nan_cutoff_refused(self, workdir, capsys, method):
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.2", "--method", *method,
                   "--cutoffs", "1000,nan", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == "error: cutoffs must be finite, got nan\n"
        assert not list(workdir.iterdir())

    @pytest.mark.parametrize("method", ["dft", "fmd-a"])
    def test_nan_in_plan_file_refused(self, workdir, capsys, method):
        # json.loads takes NaN, so a plan document can hold one
        (workdir / "plan.json").write_text('{"type": "custom", "cutoffs_hz": [NaN, 4000]}')
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.2", "--method", method,
                   "--plan", "plan.json", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == "error: plan.json: cutoffs must be finite, got nan\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["plan.json"]

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

    @pytest.mark.parametrize("write, method", [
        (_write_huge_csv, ["none"]),
        (_write_huge_csv, ["fmd-a", "--bands", "4", "--order", "16"]),
        (_write_huge_csv, ["dft", "--bands", "4"]),
        (_write_near_max_csv, ["none"]),
        (_write_near_max_csv, ["none", "--if", "conventional"]),
        (_write_near_max_csv, ["fmd-a", "--bands", "4", "--order", "16"]),
        (_write_near_max_csv, ["dft", "--bands", "4"]),
    ], ids=["none", "fmd-a", "dft", "near-max-none", "near-max-none-conventional",
            "near-max-fmd-a", "near-max-dft"])
    def test_overflowing_input_one_error_line(self, workdir, write, method):
        # a fresh process, so numpy warnings would reach stderr as users see them
        write(workdir / "big.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "tfekit.cli", "analyze", "--input", "big.csv",
             "--method", *method, "--out-prefix", "big"],
            capture_output=True, text=True, env=_child_env(), timeout=60)
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

    @pytest.mark.parametrize("amplitude", [1e-300, 1e-310], ids=["tiny", "denormal"])
    @pytest.mark.parametrize("command", [
        ["analyze", "--method", "none"],
        ["analyze", "--method", "dft", "--bands", "4"],
        ["analyze", "--method", "fmd-a", "--bands", "2", "--order", "16"],
        ["compare", "--a-method", "dft", "--a-bands", "4", "--b-method", "none"],
    ], ids=["none", "dft", "fmd-a", "compare"])
    def test_underflowing_energy_fails_loudly(self, workdir, capsys, amplitude, command):
        # every sample's energy underflows to 0, so the grid would hold nothing
        x = amplitude * np.cos(2 * np.pi * 10 * np.arange(64) / 100)
        (workdir / "tiny.csv").write_text("# sample_rate=100\n" + "".join(f"{v:.17g}\n" for v in x))
        rc = main([*command, "--input", "tiny.csv", "--time-bins", "1", "--freq-bins", "1",
                   "--out-prefix", "tiny"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: signal energy underflows float64 to 0; rescale the input\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["tiny.csv"]

    @pytest.mark.parametrize("value, method", [
        (0.0, ["none"]),
        (0.0, ["dft", "--bands", "4"]),
        (0.0, ["fmd-a", "--bands", "2", "--order", "16"]),
        (3.0, ["dft", "--bands", "4"]),
        (3.0, ["fmd-a", "--bands", "2", "--order", "16"]),
    ], ids=["zero-none", "zero-dft", "zero-fmd-a", "constant-dft", "constant-fmd-a"])
    def test_nothing_to_track_is_no_underflow(self, workdir, value, method):
        # a zero signal, or a constant one's components, hold no energy to lose
        (workdir / "flat.csv").write_text("# sample_rate=100\n" + f"{value}\n" * 64)
        assert main(["analyze", "--input", "flat.csv", "--method", *method, "--time-bins", "1",
                     "--freq-bins", "1", "--out-prefix", "flat"]) == 0
        assert load_grid_csv(workdir / "flat_grid.csv").energy.tolist() == [[0.0]]

    def test_failed_check_after_streaming_leaves_no_tracks_file(self, workdir, capsys, monkeypatch):
        from tfekit import filterbank

        streamed = []

        def failing(check, c0):
            streamed.extend(workdir.iterdir())
            raise ValueError("forced failure")

        monkeypatch.setattr(filterbank._BandCheck, "finish", failing)
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

    @pytest.mark.parametrize("command", [
        ["analyze", "--method", "none"],
        ["analyze", "--method", "dft", "--bands", "1"],
        ["decompose", "--method", "dft", "--bands", "1"],
    ], ids=["none", "dft", "decompose-dft"])
    def test_three_samples_refused(self, workdir, capsys, command):
        (workdir / "short.csv").write_text("# sample_rate=100\n1.0\n-1.0\n0.5\n")
        rc = main([*command, "--input", "short.csv", "--out-prefix", "s"])
        assert rc == 1
        assert "analytic signal needs at least 4 samples" in capsys.readouterr().err
        assert [p.name for p in workdir.iterdir()] == ["short.csv"]

    def test_dft_bank_one_real_inverse_pair_per_band(self, monkeypatch):
        # one forward transform for the whole bank; per band, the component's
        # real inverse and its quadrature's, and the real transform that
        # measures its leakage
        calls = {"fft": 0, "rfft": 0, "ifft": 0, "irfft": 0}
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
        settings = _settings(args, None)
        diagnostics, _ = _run_analysis(signal, settings, _resolve_bands(signal, settings), grid,
                                       tracks.append)
        assert len(tracks) == diagnostics["n_components"] == 10
        assert calls == {"fft": 1, "rfft": 10, "ifft": 0, "irfft": 20}

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
        # each FMD component is tracked in place as the ladder hands it on:
        # the IF workspace is made before the ladder runs, so tracking any
        # component, the first too, adds less than one N-sample float array
        # to the memory held when it is handed on, and none is copied
        import tfekit.cli as cli

        n = 1 << 16
        args = build_parser().parse_args(["analyze", "--gen", "chirp", "--dur", str(n / 8000),
                                          "--method", "fmd-a", "--bands", "4"])
        signal, _, _ = _load_input(args)
        added = []

        def measured(consumer):
            def handed_on(component, band):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                consumer(component, band)
                added.append(tracemalloc.get_traced_memory()[1] - held)
            return handed_on

        monkeypatch.setattr(cli, "fmd_decompose", lambda x, cutoffs, consumer, **kwargs:
                            fmd_decompose(x, cutoffs, measured(consumer), **kwargs))
        tracemalloc.start()
        try:
            settings = _settings(args, None)
            diagnostics, _ = _run_analysis(signal, settings, _resolve_bands(signal, settings),
                                           TFEAccumulator(n, signal.sample_rate))
        finally:
            tracemalloc.stop()
        assert diagnostics["n_components"] == len(added) == 4
        assert max(added) < n * 8, [a / (n * 8) for a in added]

    def test_dft_bands_tracked_in_the_workspace(self, monkeypatch):
        # each DFT band's quadrature is made in the IF workspace, made before
        # the bank runs, so tracking any band, the first too, adds less than
        # one N-sample float array to the memory held when it is handed on
        import tfekit.cli as cli

        n = 1 << 16
        args = build_parser().parse_args(["analyze", "--gen", "chirp", "--dur", str(n / 8000),
                                          "--method", "dft", "--bands", "4"])
        signal, _, _ = _load_input(args)
        added = []

        def measured(consumer):
            def handed_on(component, band):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                consumer(component, band)
                added.append(tracemalloc.get_traced_memory()[1] - held)
            return handed_on

        monkeypatch.setattr(cli, "dft_decompose", lambda x, bounds, consumer, **kwargs:
                            dft_decompose(x, bounds, measured(consumer), **kwargs))
        tracemalloc.start()
        try:
            settings = _settings(args, None)
            diagnostics, _ = _run_analysis(signal, settings, _resolve_bands(signal, settings),
                                           TFEAccumulator(n, signal.sample_rate))
        finally:
            tracemalloc.stop()
        assert diagnostics["n_components"] == len(added) == 4
        assert max(added) < n * 8, [a / (n * 8) for a in added]


class TestMethodSettings:
    @pytest.mark.parametrize("method", ["dft", "fmd-a", "fmd-b", "causal-fir"])
    def test_decomposition_carries_the_cli_method_name(self, monkeypatch, method):
        # the FIR ladder runs under its --method name and hands on, bit for
        # bit, the components the library hands on under that name; the
        # DFT bank runs no ladder and reports the orthogonality checks
        import tfekit.cli as cli

        methods = []
        monkeypatch.setattr(cli, "fmd_decompose",
                            lambda *args, **kwargs: methods.append(kwargs["method"])
                            or fmd_decompose(*args, **kwargs))
        args = build_parser().parse_args(["decompose", "--gen", "chirp", "--dur", "0.1",
                                          "--method", method, "--bands", "4"])
        signal, _, _ = _load_input(args)
        settings = _settings(args, None)
        handed = []
        c0, report = _resolve_bands(signal, settings)(
            lambda component, band: handed.append(component.copy()))
        checks = report.diagnostics()
        assert len(handed) == 4
        if method == "dft":
            assert methods == [] and checks["orthogonality"] is not None
        else:
            assert methods == [method]
            cutoffs = BandSpec.from_settings(4).ladder(signal.sample_rate)
            made, rows = collect(fmd_decompose, signal, cutoffs, method=method)
            assert c0 == made.c0
            assert np.array(handed).tobytes() == rows.tobytes()
            assert (checks["linoep"] is None) == (method == "causal-fir")

    def test_method_none_resolves_to_no_decomposition(self):
        args = build_parser().parse_args(["analyze", "--gen", "chirp", "--dur", "0.1",
                                          "--method", "none"])
        signal, _, _ = _load_input(args)
        assert _resolve_bands(signal, _settings(args, None)) is None

    @pytest.mark.parametrize("method", ["fmd-a", "causal-fir"])
    def test_fir_decomposition_runs_at_the_order_given(self, monkeypatch, method):
        # the ladder runs at --order, and its components are those the
        # library makes at that order, not at the default 256
        import tfekit.cli as cli

        orders = []
        monkeypatch.setattr(cli, "fmd_decompose",
                            lambda *args, **kwargs: orders.append(kwargs.get("order"))
                            or fmd_decompose(*args, **kwargs))
        args = build_parser().parse_args(["decompose", "--gen", "chirp", "--dur", "0.1",
                                          "--method", method, "--bands", "4", "--order", "64"])
        signal, _, _ = _load_input(args)
        handed = []
        c0, _ = _resolve_bands(signal, _settings(args, None))(
            lambda component, band: handed.append(component.copy()))
        assert orders == [64]
        cutoffs = BandSpec.from_settings(4).ladder(signal.sample_rate)
        made, rows = collect(fmd_decompose, signal, cutoffs, order=64, method=method)
        assert c0 == made.c0
        assert np.array(handed).tobytes() == rows.tobytes()
        _, default = collect(fmd_decompose, signal, cutoffs, method=method)
        assert default.tobytes() != rows.tobytes()

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

    def test_compare_checks_the_fir_order_before_either_side_runs(self, workdir, capsys,
                                                                  monkeypatch):
        import tfekit.cli as cli

        tracked = []
        monkeypatch.setattr(cli, "if_track", lambda *args: tracked.append(args) or if_track(*args))
        rc = main(["compare", "--gen", "chirp", "--dur", "1", "--a-method", "dft",
                   "--a-bands", "50", "--b-method", "fmd-a", "--b-bands", "2", "--b-order", "7",
                   "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == "error: order must be even and >= 16, got 7\n"
        assert not tracked
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


class TestConfigFiles:
    """A config file or band-plan document is checked as the flags are, before anything runs."""

    @pytest.mark.parametrize("config, plan, message", [
        ({"method": "dft", "bands": 4.7}, None, "cfg.json: bands must be an integer, got 4.7"),
        ({"method": "dft", "bands": True}, None, "cfg.json: bands must be an integer, got True"),
        ({"method": "dft", "plan": "plan.json"}, {"type": "uniform", "bands": 2.9},
         "plan.json: bands must be a positive integer, got 2.9"),
        ({"method": "dft", "cutoffs": [1000, True, 4000]}, None,
         "cfg.json: cutoffs must be a list of numbers, got [1000, True, 4000]"),
        ({"method": "fmd-a", "bands": 2, "order": 16.0}, None,
         "cfg.json: order must be an integer, got 16.0"),
        ({"method": "dft", "cutoffs": "1000,abc"}, None,
         "cfg.json: cutoffs must be a list of numbers, got '1000,abc'"),
    ], ids=["fractional-bands", "bool-bands", "fractional-plan-bands", "bool-cutoff",
            "float-order", "cutoff-string-not-numbers"])
    def test_numbers_refused_where_the_flags_refuse_them(self, workdir, capsys, config, plan,
                                                         message):
        (workdir / "cfg.json").write_text(json.dumps(config))
        if plan is not None:
            (workdir / "plan.json").write_text(json.dumps(plan))
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--config", "cfg.json",
                   "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(workdir.glob("x_*"))

    @pytest.mark.parametrize("config, message", [
        ({"method": "dft", "plan": 0},
         "band plan document must be an object with type 'uniform' or 'custom'"),
        ({"method": "dft", "plan": []},
         "band plan document must be an object with type 'uniform' or 'custom'"),
        ({"method": "dft", "cutoffs": []}, "need at least one cutoff"),
    ], ids=["plan-zero", "plan-empty-list", "cutoffs-empty-list"])
    def test_falsy_band_setting_refused_naming_the_file(self, workdir, capsys, config, message):
        # a band setting that is set but falsy is a bad band plan, not a missing one
        (workdir / "cfg.json").write_text(json.dumps(config))
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--config", "cfg.json",
                   "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cfg.json: {message}\n"
        assert not list(workdir.glob("x_*"))

    def test_band_plan_file_errors_name_the_file(self, workdir, capsys):
        (workdir / "p.json").write_text(json.dumps({"type": "custom", "cutoffs_hz": [1000, True]}))
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--method", "fmd-a",
                   "--plan", "p.json", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: p.json: cutoffs must be a list of numbers, got [1000, True]\n")
        assert not list(workdir.glob("x_*"))

    def test_config_band_count_errors_name_the_file(self, workdir, capsys):
        (workdir / "cfg.json").write_text(json.dumps({"method": "dft", "bands": 0}))
        rc = main(["decompose", "--gen", "chirp", "--dur", "0.1", "--config", "cfg.json",
                   "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: cfg.json: bands must be a positive integer, got 0\n")
        assert not list(workdir.glob("x_*"))

    @pytest.mark.parametrize("argv, files, message", [
        (["--method", "dft", "--plan", "q.json"],
         {"q.json": {"type": "custom", "cutoffs_hz": [1000, 3000]}},
         "q.json: last cutoff must equal Nyquist (4000.0 Hz), got 3000.0"),
        (["--config", "cfg.json"], {"cfg.json": {"method": "dft", "cutoffs": [1000, 3000]}},
         "cfg.json: last cutoff must equal Nyquist (4000.0 Hz), got 3000.0"),
        (["--config", "cfg.json"], {"cfg.json": {"method": "dft", "bands": 4000}},
         "cfg.json: n_bands must be in [1, 400] for length 800, got 4000"),
        (["--config", "cfg.json"], {"cfg.json": {"method": "dft", "plan": 5}},
         "cfg.json: band plan document must be an object with type 'uniform' or 'custom'"),
        (["--config", "cfg.json"], {"cfg.json": {"method": "fmd-a", "plan": "q.json"},
                                    "q.json": {"type": "custom", "cutoffs_hz": [1000, 3000]}},
         "q.json: last cutoff must equal Nyquist (4000.0 Hz), got 3000.0"),
        (["--method", "dft", "--cutoffs", "1000,3000"], {},
         "last cutoff must equal Nyquist (4000.0 Hz), got 3000.0"),
        (["--config", "cfg.json", "--bands", "4000"], {"cfg.json": {"method": "dft", "bands": 4}},
         "n_bands must be in [1, 400] for length 800, got 4000"),
        (["--method", "dft", "--cutoffs", "1000,abc"], {},
         "cutoffs must be a list of numbers, got '1000,abc'"),
    ], ids=["plan-file-cutoffs", "config-cutoffs", "config-bands", "config-plan-number",
            "config-names-plan-file", "flag-cutoffs", "flag-over-config-bands",
            "flag-cutoffs-not-numbers"])
    def test_band_value_errors_name_the_file(self, workdir, capsys, argv, files, message):
        # checked once the signal's length and rate are known; a flag's error names no file
        for name, document in files.items():
            (workdir / name).write_text(json.dumps(document))
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", *argv, "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in workdir.iterdir()) == sorted(files)

    def test_compare_band_value_error_names_the_side_config(self, workdir, capsys):
        (workdir / "b.json").write_text(json.dumps({"method": "dft", "bands": 4000}))
        rc = main(["compare", "--gen", "chirp", "--dur", "0.1", "--a-method", "none",
                   "--config-b", "b.json", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: b.json: n_bands must be in [1, 400] for length 800, got 4000\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["b.json"]

    @pytest.mark.parametrize("flag", ["--config", "--plan"])
    def test_malformed_json_names_the_file(self, workdir, capsys, flag):
        (workdir / "bad.json").write_text('{method: "dft"}')
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--method", "dft",
                   flag, "bad.json", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bad.json: Expecting property name")

    @pytest.mark.parametrize("config, message", [
        ([], "config must be a JSON object"),
        ({"method": "dft", "bands": 4, "band": 4, "shceme": "central"},
         "unknown config keys ['band', 'shceme']"),
    ], ids=["not-an-object", "unknown-keys"])
    def test_config_shape_refused_naming_the_file(self, workdir, capsys, config, message):
        (workdir / "cfg.json").write_text(json.dumps(config))
        rc = main(["analyze", "--gen", "chirp", "--dur", "0.1", "--config", "cfg.json",
                   "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cfg.json: {message}\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["cfg.json"]

    def test_choices_lower_cased_as_the_flags_are(self, workdir):
        config = {"method": "DFT", "bands": 4, "scheme": "Central", "if": "POSITIVE"}
        (workdir / "cfg.json").write_text(json.dumps(config))
        assert main(["analyze", "--gen", "chirp", "--dur", "0.1", "--config", "cfg.json",
                     "--out-prefix", "x"]) == 0
        diag = json.loads((workdir / "x_diagnostics.json").read_text())
        assert (diag["method"], diag["scheme"], diag["if_mode"]) == ("dft", "central", "positive")

    @pytest.mark.parametrize("key, value, choices", [
        ("method", "fft", "none, dft, fmd-a, fmd-b, causal-fir"),
        ("scheme", "upwind", "forward, backward, central"),
        ("if", "sideways", "positive, conventional"),
        ("if", 1, "positive, conventional"),
    ], ids=["method", "scheme", "if", "if-not-a-string"])
    def test_compare_checks_config_b_before_side_a_runs(self, workdir, capsys, monkeypatch,
                                                        key, value, choices):
        import tfekit.cli as cli

        tracked = []
        monkeypatch.setattr(cli, "if_track", lambda *args: tracked.append(args) or if_track(*args))
        (workdir / "b.json").write_text(json.dumps({"method": "none", key: value}))
        rc = main(["compare", "--gen", "chirp", "--dur", "0.1", "--a-method", "dft",
                   "--a-bands", "4", "--config-b", "b.json", "--out-prefix", "x"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: b.json: {key} must be one of {choices}; got {value!r}\n")
        assert not tracked
        assert not list(workdir.glob("x_*"))


def _write_tone_wav(path):
    # 800 samples of a 1 kHz tone, mono 16-bit at 8000 Hz
    ints = np.round(16000 * np.cos(2 * np.pi * 1000 * np.arange(800) / 8000)).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(ints.tobytes())


class TestInput:
    @pytest.mark.parametrize("flags, rate", [([], 8000.0), (["--fs", "4000"], 4000.0)],
                             ids=["header-rate", "fs-override"])
    def test_wav_input(self, workdir, flags, rate):
        _write_tone_wav("s.wav")
        assert main(["analyze", "--input", "s.wav", *flags, "--out-prefix", "x"]) == 0
        diag = json.loads((workdir / "x_diagnostics.json").read_text())
        assert (diag["n_samples"], diag["sample_rate_hz"]) == (800, rate)

    @pytest.mark.parametrize("fs", ["0", "-5"])
    def test_wav_rate_refused_names_the_file(self, workdir, capsys, fs):
        _write_tone_wav("s.wav")
        assert main(["analyze", "--input", "s.wav", "--fs", fs, "--out-prefix", "x"]) == 1
        assert capsys.readouterr().err == (
            f"error: s.wav: sample_rate must be a positive number, got {float(fs)}\n")
        assert [p.name for p in workdir.iterdir()] == ["s.wav"]

    @pytest.mark.parametrize("argv, message", [
        (["--input", "in.csv", "--gen", "chirp"], "give either --input or --gen, not both"),
        ([], "no input: give --input FILE or --gen FIXTURE"),
    ], ids=["both", "neither"])
    @pytest.mark.parametrize("command", ["analyze", "decompose", "compare"])
    def test_one_input_required(self, workdir, capsys, command, argv, message):
        (workdir / "in.csv").write_text("# sample_rate=100\n1.0\n-1.0\n0.5\n0.25\n")
        assert main([command, *argv, "--out-prefix", "x"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["in.csv"]


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
        rel = np.abs(rebuilt - x.samples).max() / np.abs(x.samples).max()
        assert rel <= CHECKS["reconstruction_error"]

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


# every float flag of the fixtures, with the first fixture that takes it, and the rate with each
FLOAT_FLAGS = [(next(name for name, (defaults, _, _) in FIXTURES.items() if key in defaults), flag)
               for key, (flag, kind, _) in FIXTURE_FLAGS.items() if kind is float]
FLOAT_FLAGS += [(name, "--fs") for name in FIXTURES]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("fixture, flag", FLOAT_FLAGS, ids=[f"{n}{f}" for n, f in FLOAT_FLAGS])
@pytest.mark.parametrize("command", ["gen", "analyze"])
def test_non_finite_float_flag_refused(workdir, capsys, command, fixture, flag, value):
    # flag=value: argparse would read a bare -inf as an option
    argv = {"gen": ["gen", fixture, f"{flag}={value}", "--out", "f.csv"],
            "analyze": ["analyze", "--gen", fixture, f"{flag}={value}", "--method", "none",
                        "--out-prefix", "x"]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(workdir.iterdir())


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

    def test_each_side_resolves_its_plan_once(self, workdir, monkeypatch):
        # each --plan file is read once, by the check made before either side runs
        specs = []
        from_settings = BandSpec.from_settings.__func__

        def counted(cls, *args, **kwargs):
            specs.append(from_settings(cls, *args, **kwargs))
            return specs[-1]

        monkeypatch.setattr(BandSpec, "from_settings", classmethod(counted))
        (workdir / "a.json").write_text(json.dumps({"type": "uniform", "bands": 4}))
        (workdir / "b.json").write_text(json.dumps({"type": "custom", "cutoffs_hz": [2000, 4000]}))
        assert main(["compare", "--gen", "chirp", "--dur", "0.1",
                     "--a-method", "dft", "--a-plan", "a.json",
                     "--b-method", "fmd-a", "--b-plan", "b.json", "--b-order", "16",
                     "--out-prefix", "x"]) == 0
        assert specs == [BandSpec(bands=4), BandSpec(cutoffs_hz=(2000.0, 4000.0))]

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

    @pytest.mark.parametrize("amplitude", [1e153, 1e152], ids=["energy-sum", "weighted-sum"])
    def test_overflowing_ridge_figure_refused(self, workdir, capsys, amplitude):
        # no grid cell overflows; the ridge figure's sums over all samples do:
        # side a's energies at 1e153, and at 1e152 side b's energies weighted
        # by their distance to the ridge, some 15 Hz on average for 4 DFT bands
        rc = main(["compare", "--gen", "chirp", "--amp", str(amplitude), "--a-method", "none",
                   "--b-method", "dft", "--b-bands", "4", "--out-prefix", "c1"])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: signal energy overflows float64; rescale the input\n")
        assert not list(workdir.iterdir())

    def test_out_of_memory_is_one_error_line(self, workdir):
        # a billion-sample signal needs 8 GB for its samples alone; the
        # address-space limit is set in the child process, never in the
        # test process, so the allocation fails before any page is touched
        pytest.importorskip("resource")
        child = ("import resource, sys\n"
                 "from tfekit.cli import main\n"
                 "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard))\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", child, "compare", "--gen", "noise", "--len", "1000000000",
             "--fs", "100", "--a-method", "dft", "--a-bands", "32000", "--b-method", "none",
             "--out-prefix", "oom"],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: Unable to allocate"), proc.stderr
        assert "Traceback" not in proc.stderr
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


def _json_bytes(document):
    return (json.dumps(document, indent=2, allow_nan=False) + "\n").encode()


def _mixture(**params):
    defaults, build, ridges = FIXTURES["chirp-fm-mix"]
    params = {**defaults, **params}
    return build(params), ridges(params)


class TestStreamingMatchesListOracle:
    """The CLI streams each track into the grid and the CSV; the bytes are those of the list path."""

    # the default settings at 8000 samples for every method; then an odd N,
    # 4001 samples, with the backward and central schemes and both IF modes;
    # then 20001 samples, past one 16384-sample deposit block, whose last
    # deposit block and last 2048-row CSV block are both partial; then
    # M = N/2, 32 one-bin bands of 64 samples
    @pytest.mark.parametrize("method, dur, scheme, mode, m", [
        *(pytest.param(m, 1.0, "forward", "positive", 12, id=m)
          for m in ("none", "dft", "fmd-a", "fmd-b", "causal-fir")),
        *(pytest.param(m, 0.500125, scheme, mode, 12, id=f"{m}-odd-{scheme}-{mode}")
          for m in ("none", "dft", "fmd-b", "causal-fir")
          for scheme, mode in (("backward", "conventional"), ("central", "positive"))),
        *(pytest.param(m, 2.500125, "forward", "positive", 12, id=f"{m}-20001")
          for m in ("dft", "fmd-a")),
        pytest.param("dft", 0.008, "forward", "positive", 32, id="dft-64-half-n-bands"),
    ])
    def test_analyze_bytes(self, workdir, method, dur, scheme, mode, m):
        bands = [] if method == "none" else ["--bands", str(m)]
        assert main(["analyze", "--gen", "chirp-fm-mix", "--dur", str(dur), "--method", method,
                     *bands, "--scheme", scheme, "--if", mode, "--out-prefix", "cli"]) == 0
        x, _ = _mixture(dur=dur)
        tracks, checks = oracles.analysis_tracks(x, method, m, scheme, mode)
        want = workdir / "oracle"
        want.mkdir()
        oracles.export_track_csv(tracks, want / "tracks.csv")
        oracles.export_grid_csv(oracles.build_tfe(tracks), want / "grid.csv")
        diagnostics = oracles.analysis_diagnostics(x, method, tracks, checks, scheme, mode)
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
            tracks, checks = oracles.analysis_tracks(x, method, bands)
            oracles.export_grid_csv(oracles.build_tfe(tracks), workdir / f"want_{side}.csv")
            assert ((workdir / f"cli_{side}_grid.csv").read_bytes()
                    == (workdir / f"want_{side}.csv").read_bytes())
            weighted = total = 0.0
            for tr in tracks:
                dist = np.min(np.stack([np.abs(tr.frequency_hz - r) for r in ridges]), axis=0)
                weighted += _dot(dist, tr.energy)
                total += float(tr.energy.sum())
            report["sides"][side] = {**oracles.analysis_diagnostics(x, method, tracks, checks),
                                     "grid_csv": f"cli_{side}_grid.csv",
                                     "ridge_error_hz": weighted / total}
        assert (workdir / "cli_compare.json").read_bytes() == _json_bytes(report)


@pytest.mark.parametrize("argv", [
    ["analyze", "--method", "dft", "--bands", "64"],
    ["compare", "--a-method", "dft", "--a-bands", "64", "--b-method", "fmd-a", "--b-bands", "64"],
], ids=["analyze-dft", "compare-dft-fmd-a"])
def test_peak_memory_two_component_arrays(workdir, argv):
    # one band at a time, not M copies of each band: neither the DFT bank nor
    # the FIR ladder holds an (M, N) array (the tests below pin that closer)
    m, n = 64, 16384
    tracemalloc.start()
    try:
        rc = main([*argv, "--gen", "chirp-fm-mix", "--dur", str(n / 8000), "--out-prefix", "mem"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 2 * m * n * 8, f"peak {peak / (m * n * 8):.2f} x M*N*8 bytes"


@pytest.mark.parametrize("argv", [
    ["analyze", "--method", "dft", "--bands", "{m}"],
    ["compare", "--a-method", "dft", "--a-bands", "{m}", "--b-method", "none"],
    ["decompose", "--method", "dft", "--bands", "{m}"],
], ids=["analyze", "compare", "decompose"])
def test_half_as_many_bands_as_samples(workdir, argv):
    # aim 3's edge, M = N/2: every band one bin wide, every check passing
    n = 256
    argv = [a.format(m=n // 2) for a in argv]
    assert main([*argv, "--gen", "noise", "--len", str(n), "--out-prefix", "edge"]) == 0
    if argv[0] == "compare":
        diag = json.loads((workdir / "edge_compare.json").read_text())["sides"]["a"]
    else:
        diag = json.loads((workdir / "edge_diagnostics.json").read_text())
    assert diag["n_components"] == n // 2
    assert diag["reconstruction_error"] <= CHECKS["reconstruction_error"]
    tolerances = CHECKS["orthogonality"]
    assert diag["orthogonality"]["max_normalized_cross"] <= tolerances["max_normalized_cross"]
    assert abs(diag["orthogonality"]["energy_ratio"] - 1) <= tolerances["energy_ratio"]
    if argv[0] == "decompose":
        parts = [load_csv(p).samples for p in diag["outputs"]["components"]]
        args = build_parser().parse_args(["decompose", "--gen", "noise", "--len", str(n)])
        x = _load_input(args)[0]
        rebuilt = diag["c0"] + np.sum(parts, axis=0)
        assert np.abs(rebuilt - x.samples).max() <= CHECKS["reconstruction_error"]


@pytest.mark.parametrize("command", [
    ["analyze", "--method", "dft", "--bands", "{m}", "--freq-bins", "8"],
    ["compare", "--a-method", "dft", "--a-bands", "{m}", "--b-method", "none"],
    ["decompose", "--method", "dft", "--bands", "{m}"],
], ids=["analyze", "compare", "decompose"])
def test_dft_peak_memory_does_not_grow_with_bands(workdir, monkeypatch, command):
    # the bank is checked band by band: 64 times the bands add less than one
    # N-float array and 1 kB a band (paths, per-band figures) to the peak,
    # where one (M, N) component array would add 504 N-float arrays
    import tfekit.cli as cli

    # the tracks and component files would grow with M; their writers are stubbed out,
    # the component writer making an empty file for the command to rename into place
    monkeypatch.setattr(cli, "TrackCsvWriter", lambda fh: SimpleNamespace(write=len))
    monkeypatch.setattr(cli, "save_csv", lambda signal, path: Path(path).touch())
    n = 16384
    peaks = []
    for m in (8, 8, 512):  # the first run imports and caches what later runs reuse
        argv = [a.format(m=m) for a in command]
        tracemalloc.start()
        try:
            rc = main([*argv, "--gen", "noise", "--len", str(n), "--out-prefix", f"m{m}"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        peaks.append(peak)
    growth = peaks[2] - peaks[1]
    assert growth < 8 * n + 1024 * 504, f"{growth / (8 * n):.2f} N-float arrays"


@pytest.mark.parametrize("command", [
    ["analyze", "--method", "fmd-a", "--bands", "{m}", "--freq-bins", "8"],
    ["compare", "--a-method", "fmd-b", "--a-bands", "{m}", "--b-method", "none"],
    ["decompose", "--method", "causal-fir", "--bands", "{m}"],
], ids=["analyze", "compare", "decompose"])
def test_fmd_peak_memory_does_not_grow_with_bands(workdir, monkeypatch, command):
    # the FIR ladder is checked stage by stage: its peak above the input is
    # the same, within one N-float array, at 4 and at 32 bands, where one
    # (M, N) component array would add 28 N-float arrays
    import tfekit.cli as cli

    # the tracks and component files would grow with M; their writers are stubbed out,
    # the component writer making an empty file for the command to rename into place
    monkeypatch.setattr(cli, "TrackCsvWriter", lambda fh: SimpleNamespace(write=len))
    monkeypatch.setattr(cli, "save_csv", lambda signal, path: Path(path).touch())
    n = 16384
    peaks = []
    for m in (4, 4, 32):  # the first run imports and caches what later runs reuse
        argv = [a.format(m=m) for a in command]
        tracemalloc.start()
        try:
            rc = main([*argv, "--gen", "noise", "--len", str(n), "--out-prefix", f"m{m}"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        peaks.append(peak)
    growth = peaks[2] - peaks[1]
    assert abs(growth) < 8 * n, f"{growth / (8 * n):.2f} N-float arrays"


def test_decompose_failure_after_two_stages_leaves_no_component(workdir, capsys, monkeypatch):
    # decompose stages each FMD component as the ladder makes it; a failure
    # at the third stage's check removes the two already staged
    from tfekit import fmd

    seen = []
    add = fmd._TailCheck.add

    def failing(check, *args):
        if len(check._energies) == 2:
            seen.extend(sorted(p.name for p in workdir.iterdir()))
            raise ValueError("forced failure")
        add(check, *args)

    monkeypatch.setattr(fmd._TailCheck, "add", failing)
    rc = main(["decompose", "--gen", "chirp", "--dur", "0.5", "--method", "fmd-a",
               "--bands", "4", "--out-prefix", "x"])
    assert rc == 1
    assert capsys.readouterr().err == "error: forced failure\n"
    assert seen == ["x_component_001.csv.partial", "x_component_002.csv.partial"]
    assert not list(workdir.iterdir())


@pytest.mark.parametrize("command, last", [
    (["analyze", "--method", "dft", "--bands", "4"], "x_diagnostics.json"),
    (["decompose", "--method", "dft", "--bands", "4"], "x_diagnostics.json"),
    (["compare", "--a-method", "dft", "--a-bands", "4", "--b-method", "none"], "x_compare.json"),
], ids=["analyze", "decompose", "compare"])
def test_failed_last_write_leaves_no_output(workdir, capsys, command, last):
    # a directory where the last output goes: every output was written, to
    # its .partial file, and none may stay behind when the last one fails
    (workdir / last).mkdir()
    rc = main([*command, "--gen", "chirp", "--dur", "0.1", "--out-prefix", "x"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [p.name for p in workdir.iterdir()] == [last]


def test_tracer_counts_the_fir_stages(tmp_path):
    # the traced benchmark's CI guard reads the FIR stages from the spans of
    # cli.fmd_decompose (the length of its second positional argument), and
    # needs spans for the CSV ingest and the analytic signal
    root = Path(__file__).resolve().parents[1]
    env = _child_env()
    proc = subprocess.run([sys.executable, "-m", "tfekit.cli", "gen", "chirp", "--dur", "0.5",
                           "--out", "in.csv"], cwd=tmp_path, capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), "spans.json", "fir",
         "compare", "--input", "in.csv", "--a-method", "fmd-a", "--a-bands", "4",
         "--b-method", "causal-fir", "--b-bands", "4", "--out-prefix", "t"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert [s["stages"] for s in spans if s["name"] == "fmd.fmd_decompose"] == [3, 3]
    assert sum(s.get("stages", 0) for s in spans) == 6
    names = {s["name"] for s in spans}
    assert {"io.load_csv", "analytic.analytic_signal"} <= names


def test_traced_layers_in_process(workdir, monkeypatch):
    # perfbench/tracer.py's own Tracer and LAYERS wrapped around main(): the
    # FIR stages counted from cli.fmd_decompose's cutoffs, 9 a side at 10
    # bands, the ingest and analytic-signal spans, and a DFT side's span
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert main(["gen", "chirp", "--dur", "0.5", "--out", "in.csv"]) == 0

    def traced(*sides):
        spans = tracer.Tracer("test")
        with monkeypatch.context() as patched:
            for owner, attr, name, extra in tracer.LAYERS:
                fn = getattr(owner, attr, None)
                if fn is not None:
                    patched.setattr(owner, attr, spans.wrap(name, fn, extra))
            assert main(["compare", "--input", "in.csv", *sides, "--out-prefix", "t"]) == 0
        return spans.spans

    fir = traced("--a-method", "fmd-a", "--a-bands", "10", "--a-order", "16",
                 "--b-method", "causal-fir", "--b-bands", "10", "--b-order", "16")
    assert sum(s.get("stages", 0) for s in fir) == 18
    assert {"io.load_csv", "analytic.analytic_signal"} <= {s["name"] for s in fir}
    dft = traced("--a-method", "dft", "--a-bands", "10",
                 "--b-method", "fmd-a", "--b-bands", "10", "--b-order", "16")
    assert [s["name"] for s in dft].count("filterbank.dft_decompose") == 1
