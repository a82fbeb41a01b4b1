"""Output checks for the benchmark workloads.

Every check compares an output of ``tfekit`` with a quantity the benchmark
computes itself from the input samples, or with a property the method must
have. Nothing is compared with a stored copy of earlier output. The tracks
and grid CSVs are read with the parsers below, not with tfekit's own
loaders, so a fault shared by a tfekit writer and its reader still shows.
"""

import json
from pathlib import Path

import numpy as np

from workloads import FREQ_BINS, FS, TIME_BINS, chirp_if, fm_if

TRACK_HEADER = "time_s,frequency_hz,energy"

# Tolerances of tests/test_acceptance.py (criteria 6 and 7).
RECONSTRUCTION_TOL = 1e-9
DFT_CROSS_TOL = 1e-10
DFT_ENERGY_TOL = 1e-10
FMD_TAIL_TOL = 1e-8
FMD_ENERGY_TOL = 1e-8

# The DFT-side output energy meets its closed form to ~2e-16 relative; a
# single grid cell scaled by 1 + 1e-6 moves the total by >= 1e-11 relative
# (the largest of 400 x 250 cells holds >= 1e-5 of the energy).
DFT_OUTPUT_ENERGY_TOL = 1e-12
# The FMD-side grid total misses 2||x - mean||^2 by ~2e-9 relative: the FIR
# components carry a little energy at DC and Nyquist, which the analytic
# signal does not double.
FMD_OUTPUT_ENERGY_TOL = 1e-6
# Ridge check: share of grid energy near the closed-form IF laws. Measured
# at 0.967-0.995 on the zero-phase grids the workloads write, and at 0.12-0.58
# on the same grids reversed in time or shifted by 13 frequency bins.
RIDGE_HZ = 50.0
RIDGE_MIN_SHARE = 0.9


class CheckFailed(Exception):
    """An output broke a check; the message names the file and the check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _reject_constant(token):
    raise CheckFailed(f"non-finite JSON constant {token}")


def read_json_strict(path):
    """Parse a JSON file, refusing the NaN/Infinity extensions."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path}: not valid JSON: {exc}") from None
    except CheckFailed as exc:
        raise CheckFailed(f"{path}: {exc}") from None


def _floats(tokens, path):
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        raise CheckFailed(f"{path}: a field is not a number") from None


def read_tracks(path):
    """Read a tracks CSV as (time_s, frequency_hz, energy) arrays."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
    _require(header == TRACK_HEADER, f"{path}: header {header!r}, want {TRACK_HEADER!r}")
    n_rows = body.count("\n")
    fields = _floats(body.replace(",", "\n").split(), path)
    _require(fields.size == 3 * n_rows, f"{path}: rows do not all hold three fields")
    rows = fields.reshape(n_rows, 3)
    return rows[:, 0], rows[:, 1], rows[:, 2]


def read_grid(path):
    """Read a grid CSV as (time_edges, freq_edges, energy)."""
    lines = Path(path).read_text().splitlines()
    _require(len(lines) >= 3 and lines[0].startswith(","), f"{path}: not a grid CSV")
    freq_edges = _floats(lines[0].split(",")[1:], path)
    body = [line.split(",") for line in lines[1:-1]]
    _require(all(len(row) == freq_edges.size for row in body),
             f"{path}: a body row does not hold one time edge and {freq_edges.size - 1} cells")
    time_edges = _floats([row[0] for row in body] + [lines[-1]], path)
    energy = _floats([row[1:] for row in body], path)
    return time_edges, freq_edges, energy


def expected_dft_energy(x):
    """Analytic-signal energy of a full DFT band split of x.

    2(||x||^2 - |X_0|^2/N) - |X_{N/2}|^2/N with X = numpy.fft.fft(x): every
    bin but DC is doubled by the one-sided spectrum, except the Nyquist bin
    of an even length.
    """
    n = x.size
    spectrum = np.fft.fft(x)
    energy = 2 * (float(x @ x) - abs(spectrum[0]) ** 2 / n)
    if n % 2 == 0:
        energy -= abs(spectrum[n // 2]) ** 2 / n
    return energy


def expected_fmd_energy(x):
    """2||x - mean(x)||^2: FMD components split the mean-free energy exactly."""
    centred = x - x.mean()
    return 2 * float(centred @ centred)


def _check_energy(total, x, method, what, path):
    if method == "dft":
        expected, tol = expected_dft_energy(x), DFT_OUTPUT_ENERGY_TOL
    else:
        expected, tol = expected_fmd_energy(x), FMD_OUTPUT_ENERGY_TOL
    rel = abs(total - expected) / expected
    _require(rel <= tol, f"{path}: {what} {total!r} is {rel:.3e} from {expected!r} "
                         f"(relative tolerance {tol:g})")


def check_tracks(path, x, method, n_components):
    """Row count, times n/Fs, IF in [0, Fs/2] and the energy identity."""
    times, freqs, energy = read_tracks(path)
    n = x.size
    _require(times.size == n * n_components,
             f"{path}: {times.size} rows, want N x M = {n} x {n_components}")
    _require(np.array_equal(times, np.tile(np.arange(n) / FS, n_components)),
             f"{path}: the times are not n/Fs for n = 0..N-1 in each track")
    _require(bool(np.all((freqs >= 0) & (freqs <= FS / 2))),
             f"{path}: a frequency lies outside [0, {FS / 2:g}] Hz")
    _check_energy(float(energy.sum()), x, method, "track energy", path)


def _ridge_share(time_edges, freq_edges, energy, duration, bands):
    """Share of grid energy in cells near the chirp and FM-tone IF laws.

    A cell is near a law when its frequency span comes within RIDGE_HZ of
    the law's values over the cell's time span widened on each side by
    1/B, the time resolution of a band B = Fs/(2M) wide.
    """
    smear = 2 * bands / FS
    s = np.linspace(0.0, 1.0, 65)
    lo_t, hi_t = time_edges[:-1, None] - smear, time_edges[1:, None] + smear
    t = np.clip(lo_t + (hi_t - lo_t) * s, 0.0, duration)
    near = np.zeros(energy.shape, dtype=bool)
    for law in (chirp_if(t, duration), fm_if(t)):
        lo = law.min(axis=1)[:, None] - RIDGE_HZ
        hi = law.max(axis=1)[:, None] + RIDGE_HZ
        near |= (freq_edges[None, 1:] >= lo) & (freq_edges[None, :-1] <= hi)
    return float(energy[near].sum() / energy.sum())


def check_grid(path, x, method, bands):
    """Grid axes, the energy identity for the method, and the energy ridge.

    The ridge is not checked on a causal-fir grid: single-pass filtering
    displaces features, so its components mix the two tones and their IF
    leaves the laws (the paper's cautionary contrast; ~0.3 of its energy
    lies near them).
    """
    time_edges, freq_edges, energy = read_grid(path)
    n = x.size
    _require(energy.shape == (TIME_BINS, FREQ_BINS),
             f"{path}: grid shape {energy.shape}, want {(TIME_BINS, FREQ_BINS)}")
    _require(np.allclose(time_edges, np.linspace(0, n / FS, TIME_BINS + 1), rtol=1e-15, atol=0)
             and np.allclose(freq_edges, np.linspace(0, FS / 2, FREQ_BINS + 1), rtol=1e-15, atol=0),
             f"{path}: bin edges do not split [0, N/Fs] x [0, Fs/2] evenly")
    _require(bool(np.all(energy >= 0)), f"{path}: a cell holds negative energy")
    _check_energy(float(energy.sum()), x, method, "grid energy", path)
    if method == "causal-fir":
        return
    share = _ridge_share(time_edges, freq_edges, energy, n / FS, bands)
    _require(share >= RIDGE_MIN_SHARE,
             f"{path}: only {share:.4f} of the energy lies within {RIDGE_HZ:g} Hz of the "
             f"chirp and FM-tone IF laws (need {RIDGE_MIN_SHARE})")


def _at_most(report, key, tol, where, offset=0.0):
    value = report.get(key) if isinstance(report, dict) else None
    _require(isinstance(value, (int, float)) and abs(value - offset) <= tol,
             f"{where}: {key} {value!r} is not within {tol:g} of {offset:g}")


def check_diagnostics(diag, path, n, method, n_components):
    """One side's diagnostics against the acceptance-test tolerances."""
    where = f"{path} ({method})"
    for key, want in (("method", method), ("n_samples", n), ("n_components", n_components),
                      ("negative_if_fraction", 0)):
        _require(diag.get(key) == want, f"{where}: {key} {diag.get(key)!r}, want {want!r}")
    _at_most(diag, "reconstruction_error", RECONSTRUCTION_TOL, where)
    if method == "dft":
        _at_most(diag.get("orthogonality"), "max_normalized_cross", DFT_CROSS_TOL, where)
        _at_most(diag.get("orthogonality"), "energy_ratio", DFT_ENERGY_TOL, where, offset=1.0)
    elif method in ("fmd-a", "fmd-b"):
        _at_most(diag.get("linoep"), "max_tail_cross", FMD_TAIL_TOL, where)
        _at_most(diag.get("linoep"), "energy_ratio", FMD_ENERGY_TOL, where, offset=1.0)


def output_files(workload, prefix):
    """Every file the workload's command writes."""
    if workload.command == "analyze":
        suffixes = ["_tracks.csv", "_grid.csv", "_diagnostics.json"]
    else:
        suffixes = ["_a_grid.csv", "_b_grid.csv", "_compare.json"]
    return [Path(f"{prefix}{suffix}") for suffix in suffixes]


def check_outputs(workload, x, prefix):
    """Run every check on the outputs one invocation of the workload wrote."""
    if workload.command == "analyze":
        (method, bands), = workload.sides
        tracks, grid, diag_path = output_files(workload, prefix)
        check_diagnostics(read_json_strict(diag_path), diag_path, x.size, method, bands)
        check_tracks(tracks, x, method, bands)
        check_grid(grid, x, method, bands)
        return
    *grids, report_path = output_files(workload, prefix)
    report = read_json_strict(report_path)
    sides = report.get("sides") if isinstance(report, dict) else None
    _require(isinstance(sides, dict) and set(sides) == {"a", "b"},
             f"{report_path}: want sides a and b")
    for side, grid, (method, bands) in zip("ab", grids, workload.sides):
        check_diagnostics(sides[side], f"{report_path} side {side}", x.size, method, bands)
        check_grid(grid, x, method, bands)


def _write_grid(path, time_edges, freq_edges, energy):
    lines = ["," + ",".join(f"{v:.17g}" for v in freq_edges)]
    lines += [f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row)
              for t, row in zip(time_edges, energy)]
    lines.append(f"{time_edges[-1]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _negative_first_frequency(path):
    header, first, rest = Path(path).read_text().split("\n", 2)
    t, _, e = first.split(",")
    Path(path).write_text(f"{header}\n{t},-1,{e}\n{rest}")


def _scale_largest_cell(path):
    time_edges, freq_edges, energy = read_grid(path)
    energy.flat[np.argmax(energy)] *= 1 + 1e-6
    _write_grid(path, time_edges, freq_edges, energy)


def _reverse_time(path):
    time_edges, freq_edges, energy = read_grid(path)
    _write_grid(path, time_edges, freq_edges, energy[::-1])


def _nan_reconstruction_error(path):
    diag = read_json_strict(path)
    diag["reconstruction_error"] = float("nan")
    Path(path).write_text(json.dumps(diag))


def self_test(workload, x, prefix):
    """Break one output at a time and confirm the checks catch each break.

    The workload's outputs at prefix must pass check_outputs first; each
    break is made in place and the original bytes are put back after it.
    Returns a list of problems, empty when every break was caught.
    """
    check_outputs(workload, x, prefix)
    tracks, grid, diag = output_files(workload, prefix)
    breaks = [
        ("one negative frequency", tracks, _negative_first_frequency, "outside [0"),
        ("one grid cell scaled by 1 + 1e-6", grid, _scale_largest_cell, "grid energy"),
        ("the grid's time axis reversed", grid, _reverse_time, "IF laws"),
        ("NaN in the diagnostics", diag, _nan_reconstruction_error, "non-finite JSON constant"),
    ]
    problems = []
    for what, path, corrupt, expected in breaks:
        original = path.read_bytes()
        corrupt(path)
        try:
            check_outputs(workload, x, prefix)
            problems.append(f"{what}: the checks passed it")
        except CheckFailed as exc:
            if expected not in str(exc):
                problems.append(f"{what}: failed for another reason: {exc}")
        finally:
            path.write_bytes(original)
    return problems
