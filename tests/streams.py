"""DFT bands kept past the consumer of :func:`tfekit.dft_decompose`, for tests that compare them."""

from tfekit import AnalyticSignal, dft_decompose


def kept_bands(x, boundaries) -> list:
    """Each band's AnalyticSignal, copied out of the views the stream form hands on."""
    bands = []

    def keep(_, band):
        a = band()
        bands.append(AnalyticSignal(a.real.copy(), a.imag.copy(), a.sample_rate))

    dft_decompose(x, boundaries, keep)
    return bands
