"""The repository's tools: the code line counter and the output digest comparison."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_keep_code_that_shares_a_line_with_a_docstring(tmp_path):
    # counted: the one-line function, the class line, x = 1 and the three
    # lines of the multi-line string; left out: blank and comment-only
    # lines and the lines holding nothing but a docstring
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Module docstring."""\n'
        "\n"
        "# a comment only\n"
        'def f(): """doc"""\n'
        "class A:\n"
        '    """Class docstring,\n'
        "\n"
        '    over three lines."""\n'
        "    x = 1  # a comment after code\n"
        '    s = """a\n'
        "multi-line\n"
        'string"""\n'
        "\n"
        "    def g(self):\n"
        "        '''Ünïcode docstring.'''\n"
        "        return 'é'; '''not a docstring'''\n")
    assert _tool("code_lines").code_lines(path) == 8


COMMANDS = [
    ["gen", "chirp", "--dur", "0.1", "--out", "c.csv"],
    ["decompose", "--input", "c.csv", "--method", "dft", "--bands", "4", "--out-prefix", "d"],
]


def test_same_outputs_of_one_tree(tmp_path, capsys):
    tool = _tool("same_outputs")
    assert tool.same_outputs(ROOT / "src", ROOT / "src", COMMANDS, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    names = ["c.csv", *(f"d_component_00{i}.csv" for i in range(1, 5)), "d_diagnostics.json"]
    assert [line.split()[:2] for line in lines[:-1]] == [["same", name] for name in names]
    assert lines[-1] == "6 of 6 outputs the same"


def test_same_outputs_names_a_changed_output(tmp_path, capsys):
    # a copy of the tree whose diagnostics name another schema
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "tfekit" / "cli.py"
    cli.write_text(cli.read_text().replace('"tfekit-diagnostics/1"', '"tfekit-diagnostics/0"'))
    tool = _tool("same_outputs")
    assert not tool.same_outputs(ROOT / "src", other, COMMANDS, tmp_path / "runs")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines if not line.startswith("same")] == [
        ["DIFFERS", "d_diagnostics.json"], ["5", "of"]]


def test_same_outputs_names_a_changed_message(tmp_path, capsys):
    # a copy of the tree whose signal CSV reader words a bad sample otherwise:
    # the failing command writes no file, so only its stderr tells the trees apart
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    io = other / "tfekit" / "io.py"
    io.write_text(io.read_text().replace(": not a number: ", ": not a sample: "))
    tool = _tool("same_outputs")
    command = ["analyze", "--input", "bad.csv", "--out-prefix", "x"]
    assert not tool.same_outputs(ROOT / "src", other, [command], tmp_path / "runs")
    assert capsys.readouterr().out.splitlines() == [
        f"stderr DIFFERS  tfekit {' '.join(command)}", "0 of 0 outputs the same"]
