"""Command-line front end: generate fixtures, analyze, decompose, compare.

Subcommands
-----------
gen        write a synthetic fixture to a signal CSV
analyze    IF/TFE analysis of a signal, optionally after decomposition
decompose  split a signal into band components and write them out
compare    run two analysis configs on one input and report side by side

Configuration may come from flags and/or a JSON file (flags win).
"""

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import IFWorkspace
from .filterbank import CHECKS, BandSpec, dft_decompose
from .fmd import METHODS, _check_order, fmd_decompose
from .instfreq import MODES, SCHEMES, if_track
from .io import load_csv, load_wav, save_csv
from .signals import (
    Signal,
    _dot,
    chirp_true_if,
    delay_pad,
    fm_true_if,
    gen_chirp,
    gen_delta,
    gen_fm,
    gen_noise,
    mix,
)
from .tfe import TFEAccumulator, TrackCsvWriter, export_grid_csv

DIAGNOSTICS_SCHEMA = "tfekit-diagnostics/1"
COMPARE_SCHEMA = "tfekit-compare/1"

FIVE_CHIRP_BANDS = [(500, 1500), (1000, 2000), (1500, 2500), (2000, 3000), (2500, 3500)]


def _chirp(p):
    return gen_chirp(p["f0"], p["f1"], p["dur"], p["fs"], p.get("amp", 1.0))


def _fm(p):
    return gen_fm(p["fc"], p["dev"], p["fm"], p["dur"], p["fs"])


def _chirp_ridges(p):
    return [chirp_true_if(p["f0"], p["f1"], p["dur"], p["fs"])]


def _fm_ridges(p):
    return [fm_true_if(p["fc"], p["dev"], p["fm"], p["dur"], p["fs"])]


def _delayed_pair(p):
    base = _chirp(p)
    return mix([delay_pad(base, 0.0, p["total_dur"]), delay_pad(base, p["delay"], p["total_dur"])])


# name -> (default parameters, builder, ground-truth IF ridges or None);
# builders and ridge functions take the parameter dict with any flags applied
FIXTURES = {
    "chirp": (
        dict(f0=1000.0, f1=2000.0, dur=1.0, fs=8000.0, amp=1.0),
        _chirp,
        _chirp_ridges,
    ),
    "fm": (
        dict(fc=780.0, dev=200.0, fm=10.0, dur=1.0, fs=8000.0),
        _fm,
        _fm_ridges,
    ),
    "delta": (
        dict(n0=1999, length=4000, fs=1000.0),
        lambda p: gen_delta(p["n0"], p["length"], p["fs"]),
        lambda p: [np.full(p["length"], p["fs"] / 4)],
    ),
    "noise": (
        dict(seed=0, mean=0.0, var=1.0, length=10240, fs=100.0),
        lambda p: gen_noise(p["seed"], p["length"], p["fs"], p["mean"], p["var"]),
        None,
    ),
    "chirp-fm-mix": (
        dict(f0=1000.0, f1=2000.0, fc=780.0, dev=200.0, fm=10.0, dur=1.0, fs=8000.0),
        lambda p: mix([_chirp(p), _fm(p)]),
        lambda p: _chirp_ridges(p) + _fm_ridges(p),
    ),
    "five-chirps": (
        dict(dur=2.0, fs=8000.0),
        lambda p: mix([gen_chirp(f0, f1, p["dur"], p["fs"]) for f0, f1 in FIVE_CHIRP_BANDS]),
        lambda p: [chirp_true_if(f0, f1, p["dur"], p["fs"]) for f0, f1 in FIVE_CHIRP_BANDS],
    ),
    "chirp-delayed": (
        dict(f0=500.0, f1=1500.0, dur=1.0, delay=0.5, total_dur=1.5, fs=8000.0),
        _delayed_pair,
        None,
    ),
}


# fixture parameter -> (flag, type, help); a flag applies only to the
# fixtures whose defaults name its parameter, and never with --input
FIXTURE_FLAGS = {
    "f0": ("--f0", float, "chirp start frequency, Hz"),
    "f1": ("--f1", float, "chirp end frequency, Hz"),
    "fc": ("--fc", float, "FM carrier frequency, Hz"),
    "dev": ("--dev", float, "FM frequency deviation, Hz"),
    "fm": ("--fm", float, "FM modulating frequency, Hz"),
    "dur": ("--dur", float, "duration, s"),
    "amp": ("--amp", float, "amplitude"),
    "n0": ("--n0", int, "impulse sample index"),
    "length": ("--len", int, "length in samples"),
    "seed": ("--seed", int, "noise seed"),
    "mean": ("--mean", float, "noise mean"),
    "var": ("--var", float, "noise variance"),
    "delay": ("--delay", float, "delay of the second copy, s"),
    "total_dur": ("--total-dur", float, "padded frame length, s"),
}


def _refuse_fixture_flags(args, allowed, target: str) -> None:
    """Raise on the first fixture flag given whose parameter is not in `allowed`."""
    for key, (flag, _, _) in FIXTURE_FLAGS.items():
        if key not in allowed and getattr(args, key) is not None:
            raise ValueError(f"{flag} does not apply to {target}")


def _build_fixture(name: str, args) -> tuple[Signal, dict]:
    """Build a named fixture from its defaults overridden by the flags given."""
    defaults, build, _ = FIXTURES[name]
    _refuse_fixture_flags(args, defaults, f"fixture {name!r}")
    params = dict(defaults)
    for key in params:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return build(params), params


def _add_fixture_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("fixture parameters")
    for key, (flag, kind, helptext) in FIXTURE_FLAGS.items():
        g.add_argument(flag, dest=key, type=kind, help=helptext)


# the settings that take one of a few words, lower-cased, as flags and in config files alike
CHOICES = {"method": ("none", "dft", *METHODS), "scheme": SCHEMES, "if": MODES}


def _add_analysis_flags(
    parser: argparse.ArgumentParser, prefix: str = "", if_flags: bool = True
) -> None:
    g = parser.add_argument_group(f"analysis settings{' (' + prefix.rstrip('-') + ')' if prefix else ''}")
    g.add_argument(f"--{prefix}method", type=str.lower, choices=CHOICES["method"])
    g.add_argument(f"--{prefix}bands", type=int, help="uniform band count")
    g.add_argument(f"--{prefix}cutoffs", help="comma-separated band cutoffs in Hz, last at Nyquist")
    g.add_argument(f"--{prefix}plan", help="band plan JSON file")
    g.add_argument(f"--{prefix}order", type=int,
                   help="FIR order for fmd/causal methods (default 256)")
    if if_flags:
        g.add_argument(f"--{prefix}scheme", type=str.lower, choices=CHOICES["scheme"])
        g.add_argument(f"--{prefix}if", type=str.lower, choices=CHOICES["if"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfekit",
        description="Positive instantaneous frequency and zero-phase filter-bank TFE analysis",
    )
    parser.add_argument("--version", action="version", version=f"tfekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic fixture to CSV")
    p_gen.add_argument("fixture", choices=FIXTURES)
    p_gen.add_argument("--fs", type=float, help="sample rate, Hz")
    _add_fixture_flags(p_gen)
    p_gen.add_argument("--out", help="output CSV path (default <fixture>.csv)")

    for name, helptext in [
        ("analyze", "IF/TFE analysis with optional decomposition"),
        ("decompose", "split a signal into band components"),
        ("compare", "run two configs on one input"),
    ]:
        p = sub.add_parser(name, help=helptext)
        src = p.add_argument_group("input")
        src.add_argument("--input", help="signal file (.csv or .wav)")
        src.add_argument("--gen", dest="fixture", choices=FIXTURES,
                         help="generate this fixture instead of reading a file")
        src.add_argument("--fs", type=float, help="sample rate, Hz (file override / fixture rate)")
        _add_fixture_flags(p)
        p.add_argument("--out-prefix", default="tfekit", help="prefix for output files")
        if name == "compare":
            p.add_argument("--config-a", help="JSON config for side A")
            p.add_argument("--config-b", help="JSON config for side B")
            _add_analysis_flags(p, "a-")
            _add_analysis_flags(p, "b-")
        else:
            p.add_argument("--config", help="JSON config file; flags win on conflict")
            _add_analysis_flags(p, if_flags=name == "analyze")
        if name != "decompose":
            p.add_argument("--time-bins", type=int, default=400)
            p.add_argument("--freq-bins", type=int, default=250)
    return parser


def _load_input(args) -> tuple[Signal, str | None, dict | None]:
    """Resolve the input signal; returns (signal, fixture name, fixture params)."""
    if args.input and args.fixture:
        raise ValueError("give either --input or --gen, not both")
    if args.input:
        _refuse_fixture_flags(args, (), "--input")
        path = Path(args.input)
        if path.suffix.lower() == ".wav":
            signal = load_wav(path)
            if args.fs is not None and args.fs != signal.sample_rate:
                signal = Signal(signal.samples, args.fs)
        else:
            signal = load_csv(path, sample_rate=args.fs)
        return signal, None, None
    if args.fixture:
        signal, params = _build_fixture(args.fixture, args)
        return signal, args.fixture, params
    raise ValueError("no input: give --input FILE or --gen FIXTURE")


def _settings(args, config_path: str | None, prefix: str = "") -> dict:
    """Merge a JSON config file with command-line flags (flags win).

    Each setting's flag has the argparse dest `prefix + key`. The file's
    choices and integers are checked as the flags' are; its errors name it.
    The entry "band_file" names the file that holds the band setting, for
    errors found once the signal is known: a band plan file, or the config
    file when the setting came from it; None when it came from a flag.
    """
    settings = {"method": "none", "bands": None, "cutoffs": None, "plan": None, "order": None,
                "scheme": "forward", "if": "positive"}
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
            if not isinstance(loaded, dict):
                raise ValueError("config must be a JSON object")
            unknown = set(loaded) - set(settings)
            if unknown:
                raise ValueError(f"unknown config keys {sorted(unknown)}")
            for key, value in loaded.items():
                if key in CHOICES:
                    loaded[key] = value.lower() if isinstance(value, str) else value
                    if loaded[key] not in CHOICES[key]:
                        raise ValueError(f"{key} must be one of {', '.join(CHOICES[key])}; "
                                         f"got {value!r}")
                elif key in ("bands", "order") and value is not None and type(value) is not int:
                    raise ValueError(f"{key} must be an integer, got {value!r}")
            # as the band plan checks them, here naming the file; a plan
            # file's path is read later, and its errors name that file
            for key in ("bands", "cutoffs", "plan"):
                if key != "plan" or not isinstance(loaded.get(key), str):
                    BandSpec.from_settings(**{key: loaded.get(key)})
        except ValueError as exc:  # malformed JSON included
            raise ValueError(f"{config_path}: {exc}") from None
        settings.update(loaded)
    flagged = set()
    for key in settings:
        value = getattr(args, prefix + key, None)
        if value is not None:
            settings[key] = value
            flagged.add(key)
    plan = settings["plan"]
    if isinstance(plan, str) and plan:
        settings["band_file"] = plan
    elif not flagged & {"bands", "cutoffs", "plan"}:
        settings["band_file"] = config_path
    else:
        settings["band_file"] = None
    return settings


def _resolve_bands(signal: Signal, settings: dict):
    """Check the settings against the signal and resolve their band plan.

    Returns None for method 'none', the bin boundaries for 'dft' and the FIR
    cutoff ladder for the other methods; raises ValueError on any setting
    that does not fit, before anything is computed.
    """
    method = settings["method"]
    spec = BandSpec.from_settings(settings["bands"], settings["cutoffs"], settings["plan"])
    if method == "none" and spec is not None:
        raise ValueError("method 'none' forbids a band plan; pick a decomposition method")
    if method != "none" and spec is None:
        raise ValueError(f"method {method!r} needs a band plan (--bands, --cutoffs or --plan)")
    if method in ("none", "dft") and settings["order"] is not None:
        raise ValueError(f"method {method!r} takes no FIR order; --order applies to "
                         "fmd-a, fmd-b and causal-fir")
    if method == "none":
        return None
    if method != "dft" and settings["order"] is not None:
        _check_order(settings["order"])
    try:
        if method == "dft":
            return spec.plan(len(signal), signal.sample_rate)
        return spec.ladder(signal.sample_rate)
    except ValueError as exc:
        if settings["band_file"] is None:
            raise
        raise ValueError(f"{settings['band_file']}: {exc}") from None


def _decompose(signal: Signal, settings: dict, bands, consumer,
               workspace: IFWorkspace | None = None) -> tuple[float | None, dict]:
    """Decompose on `bands`, as :func:`_resolve_bands` gives them; verify and hand on each component.

    `consumer(component, band)` gets each component's samples, in order,
    and a function that gives the Signal or AnalyticSignal to track it,
    the same object however often it is called before the consumer
    returns. Method 'none' has one component, the signal itself; the banks
    hand theirs on through :func:`dft_decompose` and :func:`fmd_decompose`,
    in one reused array, after the running check has taken each in, inside
    `workspace`, the consumer's IF workspace. Returns c0 (None for method
    'none') and the checks' part of the diagnostics, every figure None for
    method 'none'.
    """
    method = settings["method"]
    if method == "none":
        consumer(signal.samples, lambda: signal)
        return None, dict.fromkeys(CHECKS)
    if method == "dft":
        c0, report = dft_decompose(signal, bands, consumer, workspace)
    else:
        order = {} if settings["order"] is None else {"order": settings["order"]}
        # perfbench/tracer.py counts the FIR stages from the cutoffs, the second positional argument
        c0, report = fmd_decompose(signal, bands, consumer, **order, method=method,
                                   workspace=workspace)
    return c0, report.diagnostics()


def _run_analysis(signal: Signal, settings: dict, bands, grid: TFEAccumulator, write=None,
                  ridges=None) -> tuple[dict, float | None]:
    """Decompose and verify, handing each component's IF track to one sink as it is made.

    `bands` is as for :func:`_decompose`. The sink deposits the track into
    `grid`, appends its rows through `write` when one is given, and adds the
    track to the per-track figures; no list of tracks is kept. Every track
    is made in one IFWorkspace, so `write` gets a track that holds only
    until the next one; an FIR ladder makes its stages in the same
    workspace between tracks. Each component is tracked as
    :func:`_decompose` hands it on. Returns the diagnostics and, given
    true `ridges`, the energy-weighted mean distance (Hz) between track
    samples and the nearest ridge, summed in track order.
    """
    scheme, if_mode = settings["scheme"], settings["if"]
    negative_fractions = []
    weighted = total_energy = 0.0
    tracked = False  # whether a component with a non-zero sample was tracked
    workspace = IFWorkspace(len(signal))
    if ridges is not None:
        # a track's distance to the nearest ridge, and to the ridge at hand
        dist, gap = np.empty(len(signal)), np.empty(len(signal))

    def sink(component, band):
        nonlocal weighted, total_energy, tracked
        tracked = tracked or bool(component.any())
        track = if_track(band(), scheme, if_mode, workspace)
        grid.add(track)
        if write is not None:
            write(track)
        negative_fractions.append(track.negative_fraction)
        if ridges is not None:
            np.abs(np.subtract(track.frequency_hz, ridges[0], out=dist), out=dist)
            for ridge in ridges[1:]:
                np.abs(np.subtract(track.frequency_hz, ridge, out=gap), out=gap)
                np.minimum(dist, gap, out=dist)
            weighted += _dot(dist, track.energy)
            with np.errstate(over="ignore"):  # an inf sum is refused below
                total_energy += float(track.energy.sum())

    _, checks = _decompose(signal, settings, bands, sink, workspace)
    if tracked and not grid.energy.any():
        raise ValueError("signal energy underflows float64 to 0; rescale the input")
    # the ridge figure's sums, over all samples, can overflow where no grid cell's does
    if not (np.isfinite(weighted) and np.isfinite(total_energy)):
        raise ValueError("signal energy overflows float64; rescale the input")
    diagnostics = {
        "schema": DIAGNOSTICS_SCHEMA,
        "method": settings["method"],
        "if_mode": if_mode,
        "scheme": scheme,
        "n_samples": len(signal),
        "sample_rate_hz": signal.sample_rate,
        "n_components": len(negative_fractions),
        # the tracks share one length, so the mean of their fractions is the fraction of all samples
        "negative_if_fraction": float(np.mean(negative_fractions)),
        **checks,
    }
    if ridges is None:
        return diagnostics, None
    return diagnostics, weighted / total_energy if total_energy > 0 else 0.0


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, allow_nan=False) + "\n")


@contextlib.contextmanager
def _staged():
    """Stage a command's outputs, so that a failed command leaves none behind.

    Yields `stage(path)`, which returns ``<path>.partial`` to write the
    output to. When the block ends, every staged file is renamed into
    place; if the block or a rename raises, every staged file is removed,
    any already renamed too.
    """
    staged, renamed = [], []  # (partial, path) pairs; the paths renamed into place

    def stage(path: Path) -> Path:
        staged.append((Path(f"{path}.partial"), path))
        return staged[-1][0]

    try:
        yield stage
        for partial, path in staged:
            os.replace(partial, path)
            renamed.append(path)
    except BaseException:
        for path in [partial for partial, _ in staged] + renamed:
            path.unlink(missing_ok=True)
        raise


def cmd_gen(args) -> int:
    signal, _ = _build_fixture(args.fixture, args)
    out = Path(args.out) if args.out else Path(f"{args.fixture}.csv")
    with _staged() as stage:
        save_csv(signal, stage(out))
    print(f"wrote {out} ({len(signal)} samples at {signal.sample_rate:g} Hz)")
    return 0


def cmd_analyze(args) -> int:
    signal, _, _ = _load_input(args)
    settings = _settings(args, args.config)
    grid = TFEAccumulator(len(signal), signal.sample_rate, args.time_bins, args.freq_bins)
    bands = _resolve_bands(signal, settings)
    prefix = args.out_prefix
    track_path = Path(f"{prefix}_tracks.csv")
    grid_path = Path(f"{prefix}_grid.csv")
    diag_path = Path(f"{prefix}_diagnostics.json")
    with _staged() as stage:
        with open(stage(track_path), "w") as fh:
            diagnostics, _ = _run_analysis(signal, settings, bands, grid, TrackCsvWriter(fh).write)
        export_grid_csv(grid.grid(), stage(grid_path))
        diagnostics["outputs"] = {"tracks_csv": str(track_path), "grid_csv": str(grid_path)}
        _write_json(stage(diag_path), diagnostics)
    for path in (track_path, grid_path, diag_path):
        print(f"wrote {path}")
    return 0


def cmd_decompose(args) -> int:
    signal, _, _ = _load_input(args)
    settings = _settings(args, args.config)
    if settings["method"] == "none":
        raise ValueError("decompose needs --method dft|fmd-a|fmd-b|causal-fir")
    bands = _resolve_bands(signal, settings)
    prefix = args.out_prefix
    written = []
    diag_path = Path(f"{prefix}_diagnostics.json")
    with _staged() as stage:

        def write(component, _):
            path = Path(f"{prefix}_component_{len(written) + 1:03d}.csv")
            written.append(path)
            save_csv(Signal._view(component, signal.sample_rate), stage(path))

        # each component is written as it is handed on
        c0, checks = _decompose(signal, settings, bands, write)
        _write_json(stage(diag_path), {
            "schema": DIAGNOSTICS_SCHEMA,
            "method": settings["method"],
            "n_samples": len(signal),
            "sample_rate_hz": signal.sample_rate,
            "n_components": len(written),
            **checks,
            "c0": c0,
            "outputs": {"components": [str(p) for p in written]},
        })
    print(f"wrote {len(written)} components and {diag_path}")
    return 0


def cmd_compare(args) -> int:
    signal, fixture, params = _load_input(args)
    ridge_fn = FIXTURES[fixture][2] if fixture is not None else None
    ridges = ridge_fn(params) if ridge_fn is not None else None
    report = {"schema": COMPARE_SCHEMA, "sides": {}}
    sides = {side: _settings(args, getattr(args, f"config_{side}"), prefix=f"{side}_")
             for side in ("a", "b")}
    # either side's settings error, before side a writes anything
    plans = {side: _resolve_bands(signal, settings) for side, settings in sides.items()}
    grid_paths = {side: Path(f"{args.out_prefix}_{side}_grid.csv") for side in sides}
    report_path = Path(f"{args.out_prefix}_compare.json")
    with _staged() as stage:
        for side, settings in sides.items():
            # checks the bin counts before side a is decomposed
            grid = TFEAccumulator(len(signal), signal.sample_rate, args.time_bins, args.freq_bins)
            diagnostics, ridge_error = _run_analysis(signal, settings, plans[side], grid,
                                                     ridges=ridges)
            export_grid_csv(grid.grid(), stage(grid_paths[side]))
            entry = {**diagnostics, "grid_csv": str(grid_paths[side])}
            if ridges is not None:
                entry["ridge_error_hz"] = ridge_error
            report["sides"][side] = entry
        _write_json(stage(report_path), report)
    for path in (*grid_paths.values(), report_path):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {
            "gen": cmd_gen,
            "analyze": cmd_analyze,
            "decompose": cmd_decompose,
            "compare": cmd_compare,
        }[args.command]
        return handler(args)
    except (ValueError, OSError, IndexError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
