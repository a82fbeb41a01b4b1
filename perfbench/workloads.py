"""The benchmark's input signal and its three CLI workloads.

The input is the paper's Example-1 mixture at 8 kHz, stretched to N
samples: a linear chirp sweeping 1000 -> 2000 Hz over the whole record plus
a 780 Hz FM tone with 200 Hz deviation at a 10 Hz modulation rate, plus
Gaussian noise of standard deviation NOISE_STD drawn from the run's seed.
The closed-form IF laws below are what the ridge check holds the grids to.
"""

from dataclasses import dataclass

import numpy as np

FS = 8000.0
CHIRP_F0, CHIRP_F1 = 1000.0, 2000.0
FM_FC, FM_DEV, FM_RATE = 780.0, 200.0, 10.0
NOISE_STD = 1e-3
# The CLI's default grid size; the workloads leave it unset.
TIME_BINS, FREQ_BINS = 400, 250


def chirp_if(t, duration):
    return CHIRP_F0 + (CHIRP_F1 - CHIRP_F0) * t / duration


def fm_if(t):
    return FM_FC + FM_DEV * np.cos(2 * np.pi * FM_RATE * t)


def mixture(n, seed):
    """The Example-1 mixture at N samples with seeded noise."""
    t = np.arange(n) / FS
    duration = n / FS
    chirp = np.cos(2 * np.pi * (CHIRP_F0 * t + (CHIRP_F1 - CHIRP_F0) / (2 * duration) * t * t))
    fm = np.cos(2 * np.pi * FM_FC * t + (FM_DEV / FM_RATE) * np.sin(2 * np.pi * FM_RATE * t))
    noise = NOISE_STD * np.random.default_rng(seed).standard_normal(n)
    return chirp + fm + noise


def write_signal_csv(x, path):
    """Write samples in tfekit's signal CSV format (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(f"# sample_rate={FS:.17g}\n")
        fh.write("\n".join(f"{v:.17g}" for v in x.tolist()))
        fh.write("\n")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation on an N-sample mixture.

    sides holds (method, bands) for analyze's one side or compare's sides a
    and b, in that order.
    """

    name: str
    n: int
    command: str
    sides: tuple

    def argv(self, input_csv, prefix):
        args = [self.command, "--input", str(input_csv), "--out-prefix", str(prefix)]
        if self.command == "analyze":
            (method, bands), = self.sides
            return args + ["--method", method, "--bands", str(bands)]
        for side, (method, bands) in zip("ab", self.sides):
            args += [f"--{side}-method", method, f"--{side}-bands", str(bands)]
        return args

    @property
    def band_samples(self):
        """Input samples times band components analysed, over all sides."""
        return self.n * sum(bands for _, bands in self.sides)


WORKLOADS = {
    w.name: w
    for w in (
        # ~90% of the run is writing the 47 MB tracks CSV: output-stage changes show here.
        Workload("analyze-dft-8k", 8_000, "analyze", (("dft", 100),)),
        # Two small grids; ~70% is dft_decompose, if_track and verify_orthogonality.
        Workload("compare-dft-fmd-64k", 64_000, "compare", (("dft", 100), ("fmd-a", 10))),
        # Zero-phase vs causal FIR on a long record: ingest and the FIR ladder, no DFT bank.
        Workload("compare-fir-512k", 512_000, "compare", (("fmd-a", 10), ("causal-fir", 10))),
    )
}
