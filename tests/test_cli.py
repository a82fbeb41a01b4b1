"""End-to-end CLI runs through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfekit import load_csv, load_grid_csv, load_track_csv
from tfekit.cli import FIXTURES, main


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

    def test_positive_vs_conventional(self, workdir):
        args = ["compare", "--gen", "fm", "--dur", "0.5",
                "--a-method", "none", "--a-if", "positive",
                "--b-method", "none", "--b-if", "conventional",
                "--out-prefix", "ifm"]
        assert main(args) == 0
        report = json.loads((workdir / "ifm_compare.json").read_text())
        assert report["sides"]["a"]["negative_if_fraction"] == 0.0
        assert report["sides"]["b"]["negative_if_fraction"] >= 0.0
