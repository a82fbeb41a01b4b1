"""Reading and writing signals on disk.

CSV format: an optional header line ``# sample_rate=<Hz>`` followed by one
sample per line in decimal notation (17 significant digits on write, so a
round trip is exact). WAV ingestion is limited to mono 16-bit PCM; samples
are normalized to [-1, 1).
"""

import wave
from pathlib import Path

import numpy as np

from .signals import Signal

__all__ = ["save_csv", "load_csv", "load_wav"]

# samples formatted per write by save_csv
SAVE_BLOCK = 8192


def save_csv(x: Signal, path) -> None:
    """Write a signal to CSV with its sample-rate header.

    Samples are formatted and written a block at a time, so memory stays
    bounded whatever the signal's length.
    """
    with open(path, "w") as fh:
        fh.write(f"# sample_rate={x.sample_rate:.17g}\n")
        for start in range(0, len(x), SAVE_BLOCK):
            block = x.samples[start : start + SAVE_BLOCK].tolist()
            fh.write(("%.17g\n" * len(block)) % tuple(block))


def load_csv(path, sample_rate: float | None = None) -> Signal:
    """Read a signal CSV.

    Parameters
    ----------
    path : path-like
        File to read.
    sample_rate : float, optional
        Overrides the file's ``# sample_rate=`` header. Required when the
        file has no header.
    """
    path = Path(path)
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
            key, _, val = line.lstrip("# ").partition("=")
            if key.strip() == "sample_rate":
                try:
                    header_rate = float(val)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad sample_rate value {val!r}") from None
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
    rate = sample_rate if sample_rate is not None else header_rate
    if rate is None:
        raise ValueError(
            f"{path}: no '# sample_rate=' header and no sample rate given; "
            "pass one explicitly (CLI: --fs)"
        )
    if not values.size:
        raise ValueError(f"{path}: no samples found")
    return Signal(values, rate)


def load_wav(path) -> Signal:
    """Read a mono 16-bit PCM WAV file, normalizing samples to [-1, 1)."""
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
            rate = float(w.getframerate())
            frames = w.readframes(w.getnframes())
    except wave.Error as exc:
        raise ValueError(f"{path}: malformed WAV file: {exc}") from exc
    ints = np.frombuffer(frames, dtype="<i2")
    return Signal(ints / 32768.0, rate)
