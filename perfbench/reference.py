"""A fixed program whose time gauges the shared host's speed of the moment.

Usage: python3 perfbench/reference.py

run.py runs it in a fresh process before each invocation of a workload and
scales the times it reports by its median (see REFERENCE_S there). It does
the kinds of work a tfekit invocation does, with none of tfekit's code, so
a change to tfekit leaves its time alone: start an interpreter and import
numpy, format 100k pairs of floats as CSV lines, fill 96 MB of fresh
memory, and run FFTs on a 64k-sample array. It takes ~0.45 s. Its input is
fixed, whatever the run's seed.
"""

import numpy as np

x = np.random.default_rng(0).standard_normal(200_000)
lines = [f"{a:.17g},{b:.17g}" for a, b in zip(x[:100_000].tolist(), x[100_000:].tolist())]
text = "\n".join(lines)
fresh = np.empty(12_000_000)
fresh[:] = 1.0
spectrum = np.fft.fft(x[: 1 << 16])
for _ in range(8):
    spectrum = np.fft.ifft(np.fft.fft(spectrum))
