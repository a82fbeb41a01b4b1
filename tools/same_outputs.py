"""Run one command list against two tfekit source trees and compare every output's sha256.

Each tree runs the commands of COMMANDS in order, as
``python -m tfekit.cli ARGS`` with PYTHONPATH set to that tree, in a
temporary directory of its own that first holds FILES. Every file a tree's
commands leave in its directory is an output. One line is printed per
output: ``same`` or ``DIFFERS`` and the two digests' first 16 hex digits,
or ``missing`` and the side that lacks it. A command whose exit status
differs between the trees is printed too. The last line counts the
outputs that are the same.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC
Exits 0 when every output and every exit status is the same, 1 otherwise.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# written into each tree's directory before the commands run
FILES = {
    "plan.json": '{"type": "custom", "cutoffs_hz": [500, 1000, 2000, 4000]}\n',
    "odd_plan.json": '{"type": "uniform", "bands": 5}\n',
}

# tfekit arguments, run in order: the gen commands write the inputs of the
# later ones. Every method, odd (odd.csv, 4097 samples) and even N, the three
# schemes, both IF modes, causal-fir at order 1000, a --cutoffs and a --plan
# band plan, both fixtures with two or more true ridges in compare, and one
# command that fails
COMMANDS = [
    ["gen", "chirp-fm-mix", "--out", "mix.csv"],
    ["gen", "noise", "--len", "4097", "--fs", "100", "--seed", "3", "--out", "odd.csv"],
    ["gen", "five-chirps", "--dur", "1.0", "--out", "five.csv"],
    ["gen", "fm", "--dur", "0.5", "--out", "fm.csv"],
    ["gen", "delta", "--out", "delta.csv"],
    ["gen", "chirp-delayed", "--out", "delayed.csv"],
    ["analyze", "--input", "mix.csv", "--method", "none", "--out-prefix", "a_none"],
    ["analyze", "--input", "mix.csv", "--method", "dft", "--bands", "12", "--out-prefix", "a_dft"],
    ["analyze", "--input", "mix.csv", "--method", "fmd-a", "--bands", "6",
     "--out-prefix", "a_fmda"],
    ["analyze", "--input", "mix.csv", "--method", "fmd-b", "--bands", "6",
     "--out-prefix", "a_fmdb"],
    ["analyze", "--input", "mix.csv", "--method", "causal-fir", "--bands", "6",
     "--out-prefix", "a_fir"],
    ["analyze", "--input", "mix.csv", "--method", "none", "--if", "conventional",
     "--scheme", "central", "--out-prefix", "a_conv"],
    ["analyze", "--input", "mix.csv", "--method", "dft", "--cutoffs", "500,1000,2000,4000",
     "--scheme", "backward", "--out-prefix", "a_cutoffs"],
    ["analyze", "--input", "mix.csv", "--method", "fmd-a", "--plan", "plan.json",
     "--order", "128", "--out-prefix", "a_plan"],
    ["analyze", "--input", "odd.csv", "--method", "dft", "--bands", "7", "--scheme", "backward",
     "--out-prefix", "a_odd_dft"],
    ["analyze", "--input", "odd.csv", "--method", "fmd-b", "--bands", "3", "--order", "64",
     "--scheme", "central", "--if", "conventional", "--out-prefix", "a_odd_fmdb"],
    ["analyze", "--input", "delta.csv", "--method", "dft", "--bands", "4", "--time-bins", "40",
     "--freq-bins", "25", "--out-prefix", "a_delta"],
    ["decompose", "--input", "mix.csv", "--method", "dft", "--bands", "5", "--out-prefix", "d_dft"],
    ["decompose", "--input", "mix.csv", "--method", "fmd-a", "--bands", "4",
     "--out-prefix", "d_fmda"],
    ["decompose", "--input", "mix.csv", "--method", "fmd-b", "--bands", "4",
     "--out-prefix", "d_fmdb"],
    ["decompose", "--input", "mix.csv", "--method", "causal-fir", "--bands", "4",
     "--order", "1000", "--out-prefix", "d_fir1000"],
    ["decompose", "--input", "odd.csv", "--method", "dft", "--plan", "odd_plan.json",
     "--out-prefix", "d_odd_dft"],
    ["decompose", "--input", "odd.csv", "--method", "fmd-a", "--cutoffs", "10,25,50",
     "--order", "64", "--out-prefix", "d_odd_fmda"],
    ["compare", "--gen", "chirp-fm-mix", "--a-method", "dft", "--a-bands", "12",
     "--b-method", "fmd-a", "--b-bands", "6", "--out-prefix", "c_mix"],
    ["compare", "--gen", "five-chirps", "--dur", "1.0", "--a-method", "fmd-b", "--a-bands", "8",
     "--b-method", "causal-fir", "--b-bands", "8", "--b-order", "1000", "--out-prefix", "c_five"],
    ["compare", "--input", "fm.csv", "--a-method", "none", "--b-method", "none",
     "--b-if", "conventional", "--b-scheme", "backward", "--out-prefix", "c_fm"],
    ["compare", "--input", "delayed.csv", "--a-method", "dft", "--a-cutoffs", "1000,4000",
     "--b-method", "fmd-b", "--b-plan", "plan.json", "--b-order", "64",
     "--time-bins", "60", "--freq-bins", "40", "--out-prefix", "c_delayed"],
    ["analyze", "--input", "mix.csv", "--method", "none", "--bands", "4", "--out-prefix", "a_bad"],
]


def run_commands(src: Path, workdir: Path, commands) -> list[int]:
    """Run each command with `src` on PYTHONPATH in `workdir`, after FILES; the exit statuses."""
    workdir.mkdir(parents=True)
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    return [subprocess.run([sys.executable, "-m", "tfekit.cli", *args], cwd=workdir, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            for args in commands]


def digests(workdir: Path) -> dict[str, str]:
    """The sha256 of every file in `workdir` but FILES, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p.name not in FILES}


def same_outputs(parent_src, change_src, commands, root: Path) -> bool:
    """Run `commands` for both trees, in root/parent and root/change; print and compare."""
    statuses, sides = {}, {}
    for side, src in (("parent", parent_src), ("change", change_src)):
        statuses[side] = run_commands(src, root / side, commands)
        sides[side] = digests(root / side)
    same = True
    for args, before, after in zip(commands, statuses["parent"], statuses["change"]):
        if before != after:
            print(f"exit {before} -> {after}  tfekit {' '.join(args)}")
            same = False
    matched = 0
    for name in sorted(sides["parent"].keys() | sides["change"].keys()):
        before, after = sides["parent"].get(name), sides["change"].get(name)
        if before is None or after is None:
            print(f"missing  {name}  (no {'parent' if before is None else 'change'} output)")
            same = False
        elif before == after:
            print(f"same     {name}  {before[:16]}")
            matched += 1
        else:
            print(f"DIFFERS  {name}  {before[:16]} -> {after[:16]}")
            same = False
    print(f"{matched} of {len(sides['parent'].keys() | sides['change'].keys())} outputs the same")
    return same


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as root:
        return 0 if same_outputs(argv[0], argv[1], COMMANDS, Path(root)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
