"""Why the filtering has to be zero-phase.

A causal linear-phase FIR delays everything by order/2 samples. That
shift drags waveform features away from where they happened, and in an
iterative decomposition the delays stack up stage after stage, so the
time-frequency picture smears. Forward-backward filtering cancels the
phase response entirely and keeps every feature in place.
"""

import numpy as np

from tfekit import (
    BandSpec,
    Signal,
    causal_filter,
    chirp_true_if,
    design_fir,
    fmd_decompose,
    gen_chirp,
    if_track,
    mix,
    zero_phase_filter,
)

fs = 8000.0

print("=== 1. a passband tone keeps / loses its alignment ===")
h = design_fir("lowpass", 1000.0, 128, fs)
tone = gen_chirp(25, 25, 1.0, fs)
for name, out in [("zero-phase", zero_phase_filter(tone, h)),
                  ("causal", causal_filter(tone, h))]:
    lag = int(np.correlate(out.samples, tone.samples, "full").argmax()) - (len(tone) - 1)
    print(f"{name:>10}: cross-correlation peak at lag {lag} samples")

print()
print("=== 2. ridge error after decomposing five parallel chirps ===")
bands = [(500, 1500), (1000, 2000), (1500, 2500), (2000, 3000), (2500, 3500)]
x = mix([gen_chirp(f0, f1, 1.0, fs) for f0, f1 in bands])
ridges = [chirp_true_if(f0, f1, 1.0, fs) for f0, f1 in bands]


def ridge_error(decomposition):
    weighted = total = 0.0
    for component in decomposition.components:
        tr = if_track(Signal(component, fs))
        dist = np.min([np.abs(tr.frequency_hz - r) for r in ridges], axis=0)
        weighted += float(dist @ tr.energy)
        total += float(tr.energy.sum())
    return weighted / total


cutoffs = BandSpec(bands=10).ladder(fs)
zero_phase = fmd_decompose(x, cutoffs, order=128, method="fmd-a")
causal = fmd_decompose(x, cutoffs, order=128, method="causal-fir")
e_zp = ridge_error(zero_phase)
e_ca = ridge_error(causal)
print(f"zero-phase ladder: energy-weighted ridge error {e_zp:6.1f} Hz")
print(f"causal ladder:     energy-weighted ridge error {e_ca:6.1f} Hz"
      f"  ({e_ca / e_zp:.0f}x worse)")
print("the causal delays accumulate stage by stage, displacing late components the most")
