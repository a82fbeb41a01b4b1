"""tfekit: always-positive instantaneous frequency and zero-phase
filter-bank decomposition for time-frequency-energy analysis.

The pipeline: build the analytic signal, take the increments of its
four-quadrant phase, fold negative increments back into [0, pi]
rad/sample, and pair the resulting per-sample frequency with the squared
envelope. Signals can first be split into bands, either by zero-phase
spectral masking (orthogonal components) or by an iterative zero-phase
FIR ladder (energy-preserving, tail-orthogonal components).
"""

from . import analytic, filterbank, fmd, instfreq, io, signals, tfe
from .analytic import *
from .filterbank import *
from .fmd import *
from .instfreq import *
from .io import *
from .signals import *
from .tfe import *

__version__ = "0.1.0"

__all__ = sorted(analytic.__all__ + filterbank.__all__ + fmd.__all__ + instfreq.__all__
                 + io.__all__ + signals.__all__ + tfe.__all__)
