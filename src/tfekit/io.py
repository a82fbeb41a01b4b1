"""Reading and writing signals on disk.

CSV format: an optional header line ``# sample_rate=<Hz>`` followed by one
sample per line in decimal notation (17 significant digits on write, so a
round trip is exact). numpy's C reader decides the files tfekit writes,
whose only ``#`` is a first-line header's; the line scan reads every other
file to the same result, comment lines anywhere included. WAV ingestion is
limited to mono 16-bit PCM; samples are normalized to [-1, 1). Either
reader names the file when a :class:`Signal` refuses what it read.
"""

import re
import wave
import warnings
from pathlib import Path

import numpy as np

from ._csvtext import RowText
from .signals import Signal

__all__ = ["save_csv", "load_csv", "load_wav"]


def save_csv(x: Signal, path) -> None:
    """Write a signal to CSV with its sample-rate header.

    Samples are formatted as ``'%.17g'`` and written a block at a time, so
    memory stays bounded whatever the signal's length.
    """
    rows = RowText(1, len(x))
    samples = x.samples.reshape(-1, 1)
    with open(path, "w") as fh:
        fh.write(f"# sample_rate={x.sample_rate:.17g}\n")
        for start in range(0, len(x), rows.rows):
            fh.write(rows.text(samples[start : start + rows.rows]))


def load_csv(path, sample_rate: float | None = None) -> Signal:
    """Read a signal CSV.

    Parameters
    ----------
    path : path-like
        File to read.
    sample_rate : float, optional
        Overrides the file's ``# sample_rate=`` header. Required when the
        file has no header.

    A line is a comment when its first non-blank character is ``#``; the
    last ``# sample_rate=`` header wins wherever it is. Every other
    non-blank line holds one number as ``float()`` reads it.
    """
    path = Path(path)
    parsed = _parse_fast(path)
    header_rate, values = parsed if parsed is not None else _parse_lines(path)
    rate = sample_rate if sample_rate is not None else header_rate
    if rate is None:
        raise ValueError(
            f"{path}: no '# sample_rate=' header and no sample rate given; "
            "pass one explicitly (CLI: --fs)"
        )
    if not values.size:
        raise ValueError(f"{path}: no samples found")
    return _signal(path, values, rate)


def _signal(path: Path, samples: np.ndarray, rate: float) -> Signal:
    """The Signal a reader read from `path`; a refusal of its contents names the file."""
    try:
        return Signal(samples, rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# Bytes that the line scan's str.splitlines or str.strip treat otherwise
# than numpy's reader or bytes.strip do: line breaks besides "\n" and "\r",
# and ASCII blanks that bytes.strip keeps
_LINE_SCAN_BYTES = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_fast(path: Path):
    """(header rate, samples) through numpy's C reader, or None where it cannot decide.

    It decides the files tfekit writes: plain ASCII, with no ``#`` past the
    first byte, so at most a first-line ``# sample_rate=`` header, and one
    number numpy's reader accepts on every other line, whatever the line
    ends. Any other file goes to :func:`_parse_lines`, which names the bad
    line or reads what ``float()`` accepts and that reader does not
    (``1_0``, say).
    """
    data = path.read_bytes()
    if (not data.isascii() or data.find(b"#", 1) >= 0
            or any(byte in data for byte in _LINE_SCAN_BYTES)):
        return None
    # the first line, to a "\n" or a lone "\r", when it opens with '#'
    header = re.match(rb"#[^\r\n]*", data)
    try:
        header_rate = _header_rate(header[0].strip().decode()) if header else None
        with warnings.catch_warnings():  # an empty body is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy reads the path again, from the page cache: handed the
            # bytes above as a BytesIO it takes 0.1 s longer at 512k samples
            table = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 1:  # two numbers on every line
        return None
    return header_rate, table[:, 0]


def _parse_lines(path: Path):
    """(header rate, samples) read line by line, raising ValueError on a bad line.

    The line-numbered scan that names a bad header value or sample.
    """
    lines = list(map(str.strip, path.read_text().splitlines()))
    kept = [line for line in lines if line and line[0] != "#"]
    # the comment lines are few: scan for them only up to the last one
    comments = len(lines) - len(kept) - lines.count("")
    header_rate = None
    for lineno, line in enumerate(lines, start=1):
        if not comments:
            break
        if line[:1] == "#":
            comments -= 1
            try:
                rate = _header_rate(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if rate is not None:
                header_rate = rate
    try:
        # numpy parses each string as float() does, in one call
        values = np.array(kept, dtype=np.float64)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            if line and line[0] != "#":
                try:
                    float(line)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
        raise
    return header_rate, values


def _header_rate(line: str) -> float | None:
    """The rate of a stripped comment line ``# sample_rate=<Hz>``; None for another comment.

    Raises ValueError naming the value when ``float()`` cannot read it.
    """
    key, _, val = line.lstrip("# ").partition("=")
    if key.strip() != "sample_rate":
        return None
    try:
        return float(val)
    except ValueError:
        raise ValueError(f"bad sample_rate value {val!r}") from None


def load_wav(path, sample_rate: float | None = None) -> Signal:
    """Read a mono 16-bit PCM WAV file, normalizing samples to [-1, 1).

    `sample_rate`, when given, overrides the file's frame rate.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise ValueError(f"{path}: only mono WAV supported, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise ValueError(
                    f"{path}: unsupported encoding ({8 * w.getsampwidth()}-bit); need 16-bit PCM"
                )
            if w.getcomptype() != "NONE":
                raise ValueError(f"{path}: compressed WAV ({w.getcomptype()}) not supported")
            rate = float(w.getframerate()) if sample_rate is None else sample_rate
            frames = w.readframes(w.getnframes())
    except wave.Error as exc:
        raise ValueError(f"{path}: malformed WAV file: {exc}") from exc
    ints = np.frombuffer(frames, dtype="<i2")
    return _signal(path, ints / 32768.0, rate)
