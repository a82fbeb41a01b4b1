"""tfekit: always-positive instantaneous frequency and zero-phase
filter-bank decomposition for time-frequency-energy analysis.

The pipeline: build the analytic signal, take the increments of its
four-quadrant phase, fold negative increments back into [0, pi]
rad/sample, and pair the resulting per-sample frequency with the squared
envelope. Signals can first be split into bands, either by zero-phase
spectral masking (orthogonal components) or by an iterative zero-phase
FIR ladder (energy-preserving, tail-orthogonal components).
"""

from .analytic import AnalyticSignal, IFWorkspace, analytic_signal
from .filterbank import (
    BandSpec,
    Decomposition,
    OrthogonalityReport,
    dft_decompose,
)
from .fmd import (
    FirFilter,
    LinoepReport,
    causal_filter,
    design_fir,
    fmd_decompose,
    zero_phase_filter,
)
from .instfreq import DiffScheme, IFTrack, conventional_if, if_track, phase_diff, positive_if
from .io import load_csv, load_wav, save_csv
from .signals import (
    NoiseSpec,
    Signal,
    chirp_true_if,
    delay_pad,
    fm_true_if,
    gen_chirp,
    gen_delta,
    gen_fm,
    gen_noise,
    mix,
)
from .tfe import (
    TFEAccumulator,
    TFEGrid,
    TrackCsvWriter,
    export_grid_csv,
    load_grid_csv,
    load_track_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSignal",
    "BandSpec",
    "Decomposition",
    "DiffScheme",
    "FirFilter",
    "IFTrack",
    "IFWorkspace",
    "LinoepReport",
    "NoiseSpec",
    "OrthogonalityReport",
    "Signal",
    "TFEAccumulator",
    "TFEGrid",
    "TrackCsvWriter",
    "analytic_signal",
    "causal_filter",
    "chirp_true_if",
    "conventional_if",
    "delay_pad",
    "design_fir",
    "dft_decompose",
    "export_grid_csv",
    "fm_true_if",
    "fmd_decompose",
    "gen_chirp",
    "gen_delta",
    "gen_fm",
    "gen_noise",
    "if_track",
    "load_csv",
    "load_grid_csv",
    "load_track_csv",
    "load_wav",
    "mix",
    "phase_diff",
    "positive_if",
    "save_csv",
    "zero_phase_filter",
]
