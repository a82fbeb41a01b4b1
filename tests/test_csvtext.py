"""The vectorized CSV number text against Python's '%.17g', byte for byte."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfekit._csvtext import BLOCK, RowText

DBL_MAX = np.finfo(np.float64).max
DBL_MIN = np.finfo(np.float64).tiny


def _formatted(values, n_cols=1):
    cells = np.asarray(values, dtype=np.float64).reshape(-1, n_cols)
    rows = RowText(n_cols)
    return "".join(rows.text(cells[start : start + rows.rows])
                   for start in range(0, len(cells), rows.rows))


def _expected(values, n_cols=1):
    cells = ["%.17g" % v for v in np.asarray(values, dtype=np.float64).ravel().tolist()]
    return "".join(",".join(cells[i : i + n_cols]) + "\n" for i in range(0, len(cells), n_cols))


def _assert_matches(values, n_cols=1):
    got, want = _formatted(values, n_cols), _expected(values, n_cols)
    if got != want:  # name the first cell that differs, not the whole block
        for g, w, v in zip(got.replace("\n", ",").split(","),
                           want.replace("\n", ",").split(","), np.ravel(values)):
            assert g == w, f"{float(v)!r}: got {g!r}, want {w!r}"
    assert got == want


def _powers_of_ten():
    # the double nearest each 10**k and both its neighbours
    nearest = np.array([float(f"1e{k}") for k in range(-308, 309)])
    return np.concatenate([nearest, np.nextafter(nearest, 0), np.nextafter(nearest, np.inf)])


def _exact_ties():
    # m / 2**j whose exact decimal expansion has 18 significant digits, the
    # last a 5: '%.17g' has to round half to even
    ties = []
    for j in range(2, 26):
        lo = -(-10**17 // 5**j) | 1
        hi = min((10**18 - 1) // 5**j, 2**53 - 1)
        for m in (lo, lo + 2, (lo + hi) // 2 | 1, hi - (hi % 2 == 0)):
            if lo <= m <= hi:
                ties.append(m / 2**j)
    return ties


FIXED = np.concatenate([
    _powers_of_ten(),
    [0.0, 5e-324, 2.2250738585072009e-308, DBL_MIN, DBL_MAX, np.inf, np.nan,
     2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e-300, 1e300, 1e-270, 1e290,
     # both sides of the switch to exponent form
     1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1), 1e-4, np.nextafter(1e-4, 0),
     np.nextafter(1e-4, 1), 9.9999999999999999e16, np.nextafter(1e17, 0), 1e17,
     np.nextafter(1e17, np.inf), 1e16, np.nextafter(1e16, 0),
     0.1, 0.5, 1.0, 12.0, 100.0, 0.000125, 1234.5678],
    _exact_ties(),
])
FIXED = np.concatenate([FIXED, -FIXED])


class TestFixedTable:
    @pytest.mark.parametrize("n_cols", [1, 3, 7])
    def test_matches_python(self, n_cols):
        values = FIXED[: len(FIXED) // n_cols * n_cols]
        _assert_matches(values, n_cols)

    def test_ties_are_exact(self):
        for v in _exact_ties():
            num, den = Fraction(v).as_integer_ratio()  # den is 2**j: j decimals
            digits = str(num * 5 ** (den.bit_length() - 1))
            assert len(digits) == 18 and digits.endswith("5"), v

    def test_table_reaches_the_decade_carry(self):
        # doubles below a power of ten whose 17 digits round up to it
        carries = [v for v in FIXED.tolist() if 1e-270 < v < 1e290
                   and ("%.17g" % v).split("e")[0].strip("0.") == "1"
                   and Fraction(v) < Fraction("%.17g" % v)]
        assert len(carries) >= 5


@st.composite
def _raw_doubles(draw):
    bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    return np.array(bits, dtype=np.uint64).view(np.float64)


@st.composite
def _ties(draw):
    j = draw(st.integers(2, 25))
    lo = -(-10**17 // 5**j)
    hi = min((10**18 - 1) // 5**j, 2**53 - 1)
    m = draw(st.integers(lo, hi)) | 1
    return draw(st.sampled_from([1, -1])) * (m if m <= hi else m - 2) / 2**j


class TestProperty:
    @settings(max_examples=300, deadline=None)
    @given(_raw_doubles(), st.integers(1, 4))
    def test_raw_bit_patterns(self, values, n_cols):
        _assert_matches(values[: len(values) // n_cols * n_cols], n_cols)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=60))
    def test_any_float(self, values):
        _assert_matches(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ties(), min_size=1, max_size=20))
    def test_exact_ties(self, values):
        _assert_matches(values)


class TestBlocks:
    @pytest.mark.parametrize("n_cols", [1, 3, 251, BLOCK + 5])
    def test_rows_per_block(self, n_cols):
        rows = RowText(n_cols)
        assert rows.rows == max(1, BLOCK // n_cols)
        assert rows.block.shape == (rows.rows, n_cols)
        assert RowText(n_cols, 1).rows == 1

    def test_wider_block_refused(self):
        rows = RowText(3)
        with pytest.raises(ValueError, match="does not fit"):
            rows.text(np.zeros((rows.rows + 1, 3)))
        with pytest.raises(ValueError, match="does not fit"):
            rows.text(np.zeros((2, 4)))

    def test_reused_workspace_forgets_the_last_block(self):
        rows = RowText(2)
        first = [[-1e-300, np.nan], [1e300, -0.0]]
        assert rows.text(np.array(first)) == _expected(first, 2)
        assert rows.text(np.array([[0.5, 2.0]])) == "0.5,2\n"
        assert rows.text(np.empty((0, 2))) == ""


def test_tables_built_on_first_use():
    # importing the CLI builds no table; the first formatter does
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import tfekit.cli, tfekit._csvtext as c; print(c._tables.cache_info().currsize); "
            "c.RowText(3); print(c._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": src, "PATH": ""}).stdout.split()
    assert out == ["0", "1"]
