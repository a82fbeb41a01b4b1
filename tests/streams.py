"""What tfekit's decompositions hand their consumers, kept for tests that compare it."""

import numpy as np

from tfekit import AnalyticSignal, dft_decompose


def drop(component, band) -> None:
    """A consumer that keeps nothing."""


def collect(decompose, x, bands, *args, **kwargs):
    """The Decomposition of ``decompose(x, bands, consumer, ...)`` and an (M, N) array of its rows.

    `decompose` is :func:`tfekit.dft_decompose` or :func:`tfekit.fmd_decompose`;
    row i is a copy of the i-th component handed on.
    """
    rows = []
    d = decompose(x, bands, lambda component, _: rows.append(component.copy()), *args, **kwargs)
    return d, np.array(rows)


def kept_bands(x, boundaries) -> list:
    """Each DFT band's AnalyticSignal, copied out of the views that dft_decompose hands on."""
    bands = []

    def keep(_, band):
        a = band()
        bands.append(AnalyticSignal(a.real.copy(), a.imag.copy(), a.sample_rate))

    dft_decompose(x, boundaries, keep)
    return bands
