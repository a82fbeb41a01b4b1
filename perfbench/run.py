"""Benchmark of the tfekit command line: end-to-end and per-layer figures.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn from this one process. A run first runs the self-test of the output
checks at small N, then writes the workload's seeded input CSV and repeats
rounds until they have taken S seconds of wall time in all. With --trace 0
a round is one run of reference.py, which gauges the host's speed (see
REFERENCE_S), then one invocation of the workload in a fresh process, then
SETUP_PROBES fresh starts that only import the CLI and parse the workload's
arguments; with --trace 1 it is one invocation under tracer.py. The first
invocation's outputs get every check, and every later one must write the
same bytes. The last line printed is one JSON object: {"correct",
"attempted", "failed", "metrics"}, with the end-to-end metrics of
BENCHMARK.json for --trace 0 and its per-layer metrics for --trace 1, each
the median over the run's rounds, the times of --trace 0 scaled to the
reference host speed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread in the BLAS/OpenMP pools, here and in every child (children
# inherit the environment). With the default two-thread OpenBLAS pool the
# first Gram product in verify_orthogonality of a fresh process stalls for
# ~1 s in about one start in four to ten. Set before numpy is imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from checks import CheckFailed, check_outputs, output_files, self_test  # noqa: E402
from workloads import WORKLOADS, Workload, mixture, write_signal_csv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACES = HERE / "_traces"

SETUP_PROBES = 3
# The shared host's speed drifts by up to ±20% over minutes (README, "Noise"),
# more than a run lasts. So each round first times reference.py, a fixed
# program in a fresh process, and wall_s, cpu_s and setup_s are reported at
# the host speed at which its median takes REFERENCE_S: each run's median
# is scaled by REFERENCE_S / (the run's median reference time). REFERENCE_S
# is about the reference's median on the host this was written on, so the
# figures read close to seconds there.
REFERENCE = [sys.executable, str(HERE / "reference.py")]
REFERENCE_S = 0.45
CHILD_TIMEOUT_S = 60
SELF_TEST = Workload("self-test", 4096, "analyze", (("dft", 10),))
PROBE = "import sys; from tfekit.cli import build_parser; build_parser().parse_args(sys.argv[1:])"


class Spawner:
    """Runs children through spawner.py, so each reports its own peak RSS."""

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        """Run argv in a fresh process; return (status, wall_s, cpu_s, peak_rss_mb, stderr).

        The child caches bytecode, as an installed package has it, so the
        first invocation of a checkout compiles tfekit once.
        """
        stderr = WORK / "child.stderr"
        request = {"argv": argv, "env": self.env, "stderr": str(stderr),
                   "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["status"], reply["wall_s"], reply["cpu_s"],
                reply["peak_rss_kib"] * 1024 / 1e6, stderr.read_text().strip())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli_argv(argv):
    return [sys.executable, "-m", "tfekit.cli", *argv]


def digest(paths):
    h = hashlib.blake2b()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def layer_figures(spans, names):
    """Per-layer figures of one traced invocation; a layer without spans reads 0."""
    figures = dict.fromkeys(names, 0.0)
    sizes = {"io.load_csv": "io.input_mb", "tfe.export_track_csv": "tfe.track_csv_mb",
             "tfe.export_grid_csv": "tfe.grid_csv_mb"}
    (root,) = [i for i, span in enumerate(spans) if span["name"] == "cli.main"]
    main_s = spans[root]["end"] - spans[root]["start"]
    children_s = 0.0
    for span in spans:
        seconds = span["end"] - span["start"]
        if span["parent"] == root:
            children_s += seconds
        if span["name"] in sizes:
            figures[sizes[span["name"]]] += span["bytes"] / 1e6
        if span["name"] != "cli.main":
            figures[f"{span['name']}_s"] = figures.get(f"{span['name']}_s", 0.0) + seconds
    figures["instfreq.tracks"] = sum(s["name"] == "instfreq.if_track" for s in spans)
    figures["fmd.stages"] = sum(s.get("stages", 0) for s in spans)
    figures["filterbank.reconstruct_calls"] = sum(s["name"] == "filterbank.reconstruct" for s in spans)
    figures["cli.main_s"] = main_s
    figures["cli.self_s"] = main_s - children_s
    return figures


def run_self_test(spawner, seed, problems):
    """Check that each deliberately broken output fails the checks."""
    x = mixture(SELF_TEST.n, seed)
    input_csv = WORK / "self-test.csv"
    prefix = WORK / "self-test"
    write_signal_csv(x, input_csv)
    status, *_, message = spawner.run(cli_argv(SELF_TEST.argv(input_csv, prefix)))
    if status != 0:
        problems.append(f"self-test invocation exited {status}: {message}")
        return
    try:
        problems.extend(f"self-test: {p}" for p in self_test(SELF_TEST, x, prefix))
    except CheckFailed as exc:
        problems.append(f"self-test: unbroken outputs failed: {exc}")


def measure(spawner, workload, seed, seconds, trace, layer_names, problems):
    """One run of one workload; returns (attempted, failed, figures, invocations)."""
    x = mixture(workload.n, seed)
    input_csv = WORK / f"{workload.name}.csv"
    prefix = WORK / workload.name
    write_signal_csv(x, input_csv)
    argv = workload.argv(input_csv, prefix)
    outputs = output_files(workload, prefix)
    spans_path = WORK / f"{workload.name}-spans.json"
    command = ([sys.executable, str(HERE / "tracer.py"), str(spans_path), workload.name, *argv]
               if trace else cli_argv(argv))

    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "output_mb": [], "setup_s": []}
    references = []
    layers, spans = [], []
    checked = None
    attempted = failed = 0
    window = 0.0  # wall time of the rounds; checks and digests are not counted
    while window < seconds:
        for path in outputs:
            path.unlink(missing_ok=True)
        if not trace:
            status, wall, *_, message = spawner.run(REFERENCE)
            if status != 0:
                raise SystemExit(f"reference.py exited {status}: {message}")
            references.append(wall)
            window += wall
        status, wall, cpu, rss, message = spawner.run(command)
        window += wall
        attempted += 1
        if status != 0:
            failed += 1
            print(f"{workload.name}: invocation exited {status}: {message}", file=sys.stderr)
        else:
            if checked is None:
                try:
                    check_outputs(workload, x, prefix)
                except CheckFailed as exc:
                    problems.append(f"{workload.name}: {exc}")
                checked = digest(outputs)
            elif digest(outputs) != checked:
                problems.append(f"{workload.name}: an invocation wrote other bytes "
                                "than the checked one")
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(cpu)
            samples["peak_rss_mb"].append(rss)
            samples["output_mb"].append(sum(p.stat().st_size for p in outputs) / 1e6)
            if trace:
                invocation = json.loads(spans_path.read_text())
                layers.append(layer_figures(invocation, layer_names))
                spans.extend(dict(span, invocation=attempted) for span in invocation)
        if trace:
            continue
        for _ in range(SETUP_PROBES):
            status, wall, *_, message = spawner.run([sys.executable, "-c", PROBE, *argv])
            window += wall
            attempted += 1
            if status != 0:
                failed += 1
                print(f"{workload.name}: set-up probe exited {status}: {message}", file=sys.stderr)
            else:
                samples["setup_s"].append(wall)
    if not samples["wall_s"] or not (trace or samples["setup_s"]):
        raise SystemExit(f"{workload.name}: no invocation succeeded")

    if trace:
        TRACES.mkdir(exist_ok=True)
        (TRACES / f"{workload.name}-seed{seed}.json").write_text(json.dumps(spans))
        figures = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
        figures["wall_s"] = statistics.median(samples["wall_s"])
        return attempted, failed, figures, len(layers)
    figures = {name: statistics.median(values) for name, values in samples.items()}
    figures["reference_s"] = statistics.median(references)
    scale = REFERENCE_S / figures["reference_s"]
    for name in ("wall_s", "cpu_s", "setup_s"):
        figures[f"raw_{name}"] = figures[name]
        figures[name] *= scale
    figures["band_samples_per_s"] = workload.band_samples / figures["wall_s"]
    return attempted, failed, figures, len(samples["wall_s"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through the finally below, which ends the spawner.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "tfekit" / "cli.py").is_file():
        sys.exit(f"error: no tfekit sources at {SRC}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    per_layer_names = [m["name"] for m in spec["per_layer"]]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    problems = []
    attempted = failed = 0
    metrics = {}
    WORK.mkdir(parents=True, exist_ok=True)
    spawner = Spawner()
    try:
        run_self_test(spawner, args.seed, problems)
        for name in names:
            ran, lost, figures, n = measure(spawner, WORKLOADS[name], args.seed, args.seconds,
                                            bool(args.trace), per_layer_names, problems)
            attempted += ran
            failed += lost
            print(f"{name}: {ran} operations, {lost} failed, medians of {n} invocations")
            if not args.trace:
                print(f"  as timed: wall {figures['raw_wall_s']:.4g} s, cpu {figures['raw_cpu_s']:.4g} s, "
                      f"set-up {figures['raw_setup_s']:.4g} s; reference.py "
                      f"{figures['reference_s']:.4g} s, so times below are scaled by "
                      f"{REFERENCE_S / figures['reference_s']:.4g}")
            for m in metric_specs:
                print(f"  {m['name']:34s} {figures[m['name']]:>16.6g} {m['unit']}")
                key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
                metrics[key] = {"value": figures[m["name"]], "unit": m["unit"]}
    finally:
        spawner.close()
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
