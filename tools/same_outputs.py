"""Run one command list against two tfekit source trees and compare every output's sha256.

Each tree runs the commands of COMMANDS in order, as
``python -m tfekit.cli ARGS`` with PYTHONPATH set to that tree, in a
temporary directory of its own that first holds FILES. Every file a tree's
commands leave in its directory is an output. One line is printed per
output: ``same`` or ``DIFFERS`` and the two digests' first 16 hex digits,
or ``missing`` and the side that lacks it. A command whose exit status,
or whose printed stdout or stderr bytes, differ between the trees is
printed too. The last line counts the outputs that are the same.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC
Exits 0 when every output, every exit status and every command's printed
bytes are the same, 1 otherwise.
"""

import hashlib
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
import wave
from pathlib import Path


def _tone_wav() -> bytes:
    """A mono 16-bit WAV at 8000 Hz: 800 samples of a 1 kHz tone."""
    samples = [round(16000 * math.cos(2 * math.pi * n / 8)) for n in range(800)]
    out = io.BytesIO()
    with wave.open(out, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(struct.pack(f"<{len(samples)}h", *samples))
    return out.getvalue()


# written into each tree's directory before the commands run; scanned.csv
# takes the line scan of the signal CSV reader (a second comment line, CRLF
# line ends, a sample only float() reads) and bad.csv names its bad line
FILES = {
    "plan.json": '{"type": "custom", "cutoffs_hz": [500, 1000, 2000, 4000]}\n',
    "odd_plan.json": '{"type": "uniform", "bands": 5}\n',
    "scanned.csv": "".join(f"{line}\r\n" for line in
                           ["# sample_rate=100", "# a note", "1_0", *range(-20, 20, 3)]),
    "bad.csv": "# sample_rate=100\n1.0\n-2.0\n3.0x\n",
    "tone.wav": _tone_wav(),
}

# tfekit arguments, run in order: the gen commands write the inputs of the
# later ones. Every method, odd (odd.csv, 4097 samples) and even N, an input
# past one 16384-sample block (long.csv, 20001 samples), the three schemes,
# both IF modes, causal-fir at order 1000, a --cutoffs and a --plan band
# plan, both fixtures with two or more true ridges in compare, a signal CSV
# the line scan reads, a WAV with its rate overridden, and three commands
# that fail
COMMANDS = [
    ["gen", "chirp-fm-mix", "--out", "mix.csv"],
    ["gen", "chirp", "--dur", "2.500125", "--out", "long.csv"],
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
    ["analyze", "--input", "scanned.csv", "--method", "dft", "--bands", "3",
     "--out-prefix", "a_scanned"],
    ["analyze", "--input", "mix.csv", "--method", "none", "--bands", "4", "--out-prefix", "a_bad"],
    ["analyze", "--input", "bad.csv", "--out-prefix", "a_bad_line"],
    ["analyze", "--input", "long.csv", "--method", "dft", "--bands", "8", "--out-prefix", "a_long"],
    ["analyze", "--input", "tone.wav", "--fs", "4000", "--method", "dft", "--bands", "4",
     "--out-prefix", "a_wav"],
    ["analyze", "--input", "tone.wav", "--fs", "0", "--out-prefix", "a_wav_fs0"],
]


def run_commands(src: Path, workdir: Path, commands) -> list[tuple[int, bytes, bytes]]:
    """Run each command with `src` on PYTHONPATH in `workdir`, after FILES.

    The exit status, stdout bytes and stderr bytes of each command.
    """
    workdir.mkdir(parents=True)
    for name, data in FILES.items():
        (workdir / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    runs = (subprocess.run([sys.executable, "-m", "tfekit.cli", *args], cwd=workdir, env=env,
                           capture_output=True) for args in commands)
    return [(run.returncode, run.stdout, run.stderr) for run in runs]


def digests(workdir: Path) -> dict[str, str]:
    """The sha256 of every file in `workdir` but FILES, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p.name not in FILES}


def same_outputs(parent_src, change_src, commands, root: Path) -> bool:
    """Run `commands` for both trees, in root/parent and root/change; print and compare."""
    runs, sides = {}, {}
    for side, src in (("parent", parent_src), ("change", change_src)):
        runs[side] = run_commands(src, root / side, commands)
        sides[side] = digests(root / side)
    same = True
    for args, before, after in zip(commands, runs["parent"], runs["change"]):
        command = f"tfekit {' '.join(args)}"
        if before[0] != after[0]:
            print(f"exit {before[0]} -> {after[0]}  {command}")
        for stream, old, new in zip(("stdout", "stderr"), before[1:], after[1:]):
            if old != new:
                print(f"{stream} DIFFERS  {command}")
        same = same and before == after
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
