"""Python's ``'%.17g'`` text for blocks of float64 cells, computed with numpy.

Every CSV number tfekit writes is ``'%.17g' % value``: 17 significant
digits, which read back bit for bit. One Python call per value costs
0.5-1 us, because CPython's correctly rounded dtoa takes its bignum path
beyond 14 digits. :class:`RowText` makes the same bytes for a block of
cells at a time in four steps:

1. Digits. The 17 correctly rounded digits of |x| are ``D = round(|x| *
   10**(16 - k))`` with ``k = floor(log10|x|)``. The product is formed in
   double-double arithmetic (Dekker's split, with ``10**p`` tabulated as a
   hi + lo pair), so it is good to about 1e-14 of D's last place. A ``k``
   that ``log10`` misjudges by one is corrected, and a D that rounds up to
   ``10**17`` carries into the next decade.
2. Digit text. D's digits come from a table of the four ASCII digits of
   0..9999, two groups to a little-endian uint64 word.
3. Layout. A cell is a record of four uint64 words: the sign and the
   ``0.000`` prefix, right-aligned in the first; then the digits with the
   ``.`` spliced in (bytes below the dot from the digits, bytes above it
   from the digits shifted up one byte) and the ``e±XX`` exponent. A shape
   code per cell (sign, notation and exponent, digit count) names the
   record's bytes.
4. Join. The separator goes into each record's last byte, the shape codes
   pick the records' byte masks from a table, and one boolean compress of
   the records, read cell by cell, gives the text. A cell the fast path
   cannot settle exactly goes to Python's ``'%.17g'``: D's fraction within
   1e-6 of a rounding tie, a subnormal or a magnitude outside the table's
   range, an infinity or a NaN. Zeros stay on the fast path.

:meth:`RowText.records` runs steps 1-3 and :func:`join` step 4, so a
caller may join records made at different times, such as a column that
every block of a file shares. Each step writes into arrays the caller
keeps: fresh block-sized temporaries would be mapped and faulted in anew
on every call.
"""

import codecs
from functools import cache

import numpy as np

# cells formatted per call; the workspace holds about 135 bytes a cell
BLOCK = 4096

# |x| in [_LO, _HI) takes the fast path, as do zeros: there 10**(16 - k)
# and its lo part stay normal, and Dekker's split of x cannot overflow
_LO = 1e-270
_HI = 1e290
_P_MIN = 16 - 291  # the power table's exponents, with room for k's correction
_P_MAX = 16 + 271
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_TIE_BAND = 1e-6

# A cell's shape code is (sign * _KINDS + kind) * 18 + digit count, where
# kind is k + 4 for fixed notation (k in -4..16), then exponent notation
# with two and with three exponent digits. The last code is a fallback
# cell, which keeps only its separator.
_KINDS = 23
_CODES = 2 * _KINDS * 18 + 1
_SLOW = _CODES - 1
_K_MIN = -300  # the exponent word table covers k in -300..300


def _words(text: list[bytes], end: int) -> np.ndarray:
    """uint64 words, one per text, with the text's last byte at byte `end` - 1."""
    raw = b"".join(bytes(end - len(s)) + s + bytes(8 - end) for s in text)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


@cache
def _tables():
    """The lookup tables, built on first use (about 3 ms)."""
    t = {}
    # 10**p as hi + lo; Python's int-to-float conversion and int true
    # division round correctly
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            exact = 10**p
            h = float(exact)
            hi.append(h)
            lo.append(float(exact - int(h)))
        else:
            q = 10**-p
            h = 1 / q
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * q) / (den * q))
    t["hi"] = hi = np.array(hi)
    s = _SPLIT * hi
    t["upper"] = upper = s - (s - hi)
    t["lower"] = hi - upper
    t["lo"] = np.array(lo)

    # the four ASCII digits of 0..9999, the first in the lowest byte
    values = np.arange(10000, dtype=np.int32)
    chars = np.stack([values // 10 ** (3 - c) % 10 for c in range(4)], axis=1).astype(np.uint8)
    t["digits4"] = (chars + np.uint8(ord("0"))).view("<u4").ravel().astype(np.uint64)
    # for the 4-digit groups of D (and its last digit), D's digit count up
    # to the group's last non-zero digit; 0 for a zero group
    last = np.zeros(10000, dtype=np.int8)
    for c in range(4):
        last[chars[:, c] != 0] = c + 1
    t["significant"] = [np.where(last > 0, last + 4 * g, 0).astype(np.int8) for g in range(4)]
    t["significant"].append(np.where(values[:10] > 0, 17, 0).astype(np.int8))

    code = np.arange(_CODES - 1)
    nd = code % 18
    kind = code // 18 % _KINDS
    sign = code // (18 * _KINDS)
    k = kind - 4
    fixed = kind <= 20
    below_one = fixed & (k < 0)
    # the "0." and zeros of fixed notation below 1, after any sign
    zeros = np.where(below_one, -k - 1, 0)
    heads = [b"-" * sg + (b"0." + b"0" * z if b1 else b"")
             for sg, z, b1 in zip(sign.tolist(), zeros.tolist(), below_one.tolist())]
    head = np.array([len(h) for h in heads])
    # the digit position the "." is spliced in at; 24 for none
    whole = np.where(fixed, k + 1, 1)
    at = np.where(~below_one & (nd > whole), whole, 24)
    digits = np.where(below_one, nd, np.maximum(nd, whole) + (at < 24))
    tail = np.where(fixed, 0, np.where(kind == 21, 4, 5))

    def digit_words(fill):
        # (codes, 24) bytes -> the three digit words of each code, one row
        # per word; the fallback code's words are all zero
        words = np.append(fill.astype(np.uint8).view("<u8"), np.zeros((1, 3), np.uint64), axis=0)
        return words.T.copy()

    byte = np.arange(24)
    t["low"] = digit_words(np.where((byte < at[:, None]) & (byte < 18), 0xFF, 0))
    t["high"] = digit_words(np.where((byte > at[:, None]) & (byte < 18), 0xFF, 0))
    t["dot"] = digit_words(np.where(byte == at[:, None], ord("."), 0))
    t["prefix"] = np.append(_words(heads, 8), np.uint64(0))
    column = np.arange(32)
    mask = (((column >= 8 - head[:, None]) & (column < 8))
            | ((column >= 8) & (column < 8 + digits[:, None]))
            | ((column >= 31 - tail[:, None]) & (column < 31))
            | (column == 31))
    slow = column[None] == 31  # the fallback cell's separator alone
    t["mask"] = np.append(mask, slow, axis=0).view(np.uint64)
    t["length"] = np.append(head + digits + tail + 1, 1)

    # e±XX or e±XXX, ending at byte 6 of the last record word
    t["exponent"] = _words([b"e%+03d" % e for e in range(_K_MIN, -_K_MIN + 1)], 7)
    return t


class RowText:
    """``'%.17g'`` CSV text of rows of `n_cols` float64 cells.

    :meth:`text` takes up to :attr:`rows` rows at a time: as many as fit in
    BLOCK cells (at least one), or `rows` when that is fewer. :attr:`block`
    is a buffer of that many rows that callers may fill and pass in. Cells
    are joined by ',' and each row ends with '\\n'. :meth:`text` is
    :meth:`records` then :func:`join`.
    """

    def __init__(self, n_cols: int, rows: int | None = None):
        _tables()  # built before the workspace, so the two do not add up
        self.rows = max(1, min(BLOCK // n_cols, BLOCK if rows is None else rows))
        self.block = np.empty((self.rows, n_cols))
        self._n_cols = n_cols
        self._cells = n = self.rows * n_cols
        # The digit words (step 2 on) reuse the floats of step 1, the
        # records (the end of step 3) reuse the integers of step 2, and the
        # byte masks of step 4 reuse the digit words.
        self._float = np.empty((8, n))
        self._uint = self._float.view(np.uint64)
        self._int = np.empty((7, n), dtype=np.int64)
        self._flag = np.empty((5, n), dtype=bool)
        self._count = np.empty((2, n), dtype=np.int8)

    def text(self, block: np.ndarray) -> str:
        """The text of `block`, an (r, n_cols) float64 array with r <= :attr:`rows`."""
        if block.ndim != 2 or block.shape[1] != self._n_cols or len(block) > self.rows:
            raise ValueError(f"block of shape {block.shape} does not fit {self.rows} rows "
                             f"of {self._n_cols} cells")
        x = block.reshape(-1)
        if x.size == 0:
            return ""
        records, code = self.records(x)
        return join(records.reshape(*block.shape, 4), code, self.mask(x.size), x.take)

    def mask(self, cells: int) -> np.ndarray:
        """A (cells, 4) uint64 buffer for :func:`join`'s byte masks.

        It holds up to 2 * rows * n_cols cells, in workspace that
        :meth:`records` leaves free when it returns.
        """
        return self._uint.reshape(-1)[: 4 * cells].reshape(cells, 4)

    def records(self, x: np.ndarray, out: np.ndarray | None = None):
        """Steps 1-3 for `x`, a 1-D float64 array of at most rows * n_cols cells.

        Returns the cells' records, (x.size, 4) uint64 in the workspace or
        `out` when given (any uint64 array of shape (..., 4) with x.size
        records, which may be strided), and their shape codes, _SLOW for a
        fallback cell. The codes live in the workspace: the next call
        overwrites them. A record's last byte, its separator, is left for
        :func:`join`.
        """
        n = x.size
        t = _tables()
        # (take buffers `out` unless its mode is "clip" or "wrap")
        a, s, au, al, p, e, v, b = (f[:n] for f in self._float)
        k, idx, low4, d, q, rem = (i[:n] for i in self._int[:6])
        fast, zero, slow, flag, sign = (m[:n] for m in self._flag)
        nd, count = (c[:n] for c in self._count)

        # step 1: D and k
        np.abs(x, out=a)
        np.greater_equal(a, _LO, out=fast)
        np.less(a, _HI, out=flag)
        fast &= flag
        np.equal(a, 0.0, out=zero)
        np.logical_not(fast, out=slow)
        np.copyto(a, 1.0, where=slow)  # a stand-in for zeros and fallback cells
        slow ^= zero
        np.log10(a, out=v)
        np.floor(v, out=v)
        np.copyto(k, v, casting="unsafe")
        np.multiply(a, _SPLIT, out=s)
        np.subtract(s, a, out=au)
        np.subtract(s, au, out=au)
        np.subtract(a, au, out=al)
        for attempt in range(2):
            np.subtract(16 - _P_MIN, k, out=idx)
            t["hi"].take(idx, out=b, mode="clip")
            np.multiply(a, b, out=p)
            # Dekker: e = ((au*bu - p) + au*bl + al*bu) + al*bl, then + a*lo
            t["upper"].take(idx, out=b, mode="clip")
            t["lower"].take(idx, out=s, mode="clip")
            np.multiply(au, b, out=e)
            e -= p
            np.multiply(au, s, out=v)
            e += v
            np.multiply(al, b, out=v)
            e += v
            np.multiply(al, s, out=v)
            e += v
            t["lo"].take(idx, out=b, mode="clip")
            np.multiply(a, b, out=v)
            e += v
            # log10 can misjudge k by one next to a power of ten: redo the
            # block with those cells' k corrected. Within a quarter of D's
            # last place below 1e16, or above 1e17, both exponents give the
            # same digits (through the decade carry below), so the margins
            # keep rounding from flipping k back.
            np.subtract(p, 1e16, out=v)
            v += e
            np.less(v, -0.025, out=flag)
            np.subtract(p, 1e17, out=v)
            v += e
            np.greater_equal(v, 0.25, out=sign)
            if attempt or not (flag.any() or sign.any()):
                break
            k -= flag
            k += sign
        # p >= 1e16 > 2**53 is a whole number, so e alone decides the rounding
        np.floor(e, out=v)
        np.subtract(e, v, out=s)  # e's fraction
        np.subtract(s, 0.5, out=au)
        np.abs(au, out=au)
        np.less(au, _TIE_BAND, out=flag)
        slow |= flag
        np.copyto(d, p, casting="unsafe")
        np.copyto(q, v, casting="unsafe")
        d += q
        np.greater(s, 0.5, out=flag)
        d += flag
        # 99999999999999999.5 and above round up to the next decade
        np.equal(d, 10**17, out=flag)
        if flag.any():
            d[flag] = 10**16
            k += flag
        np.copyto(d, 0, where=zero)
        np.copyto(k, 0, where=zero)

        # step 2: the digit words d0..d7, d8..d15 and d16, and D's digit
        # count up to its last non-zero digit
        digits = self._uint[:3, :n]
        shifted = self._uint[3:6, :n]
        word = self._uint[6, :n]
        # (numpy divides by a constant fast, but its remainder is slow)
        np.floor_divide(d, 10**9, out=q)  # d0..d7
        np.multiply(q, 10**9, out=rem)
        np.subtract(d, rem, out=rem)
        np.floor_divide(rem, 10, out=d)  # d8..d15
        np.multiply(d, 10, out=low4)
        rem -= low4  # d16
        significant = t["significant"]
        np.add(rem, ord("0"), out=digits[2], casting="unsafe")
        significant[4].take(rem, out=nd, mode="clip")
        for w, eight in enumerate((q, d)):
            np.floor_divide(eight, 10**4, out=idx)
            np.multiply(idx, 10**4, out=low4)
            np.subtract(eight, low4, out=low4)
            t["digits4"].take(idx, out=digits[w], mode="clip")
            t["digits4"].take(low4, out=word, mode="clip")
            word <<= np.uint64(32)
            digits[w] |= word
            for g, group in enumerate((idx, low4), start=2 * w):
                significant[g].take(group, out=count, mode="clip")
                np.maximum(nd, count, out=nd)

        # step 3: the shape code, the records and their mask
        code = idx
        np.add(k, 4, out=code)
        np.less(k, -4, out=flag)
        np.greater(k, 16, out=sign)
        flag |= sign
        np.abs(k, out=low4)
        np.greater_equal(low4, 100, out=sign)
        np.add(sign, 21, out=code, where=flag, casting="unsafe")
        np.signbit(x, out=sign)
        np.multiply(sign, _KINDS, out=low4)
        code += low4
        code *= 18
        code += nd
        np.copyto(code, _SLOW, where=slow)

        np.left_shift(digits, np.uint64(8), out=shifted)
        for w in (1, 2):
            np.right_shift(digits[w - 1], np.uint64(56), out=word)
            shifted[w] |= word
        # below the "." the digits, above it the shifted digits, at it the "."
        spliced = digits
        for w in range(3):
            t["high"][w].take(code, out=word, mode="clip")
            shifted[w] &= word
            t["low"][w].take(code, out=word, mode="clip")
            spliced[w] &= word
            spliced[w] |= shifted[w]
            t["dot"][w].take(code, out=word, mode="clip")
            spliced[w] |= word
        np.subtract(k, _K_MIN, out=low4)
        t["exponent"].take(low4, out=word, mode="clip")
        spliced[2] |= word
        t["prefix"].take(code, out=word, mode="clip")
        if out is None:
            start = 3 * self._cells  # the memory of d, q, rem and the spare row
            out = self._int.reshape(-1)[start : start + 4 * n].view(np.uint64).reshape(n, 4)
        cells = out.shape[:-1]
        out[..., 0] = word.reshape(cells)
        out[..., 1:] = spliced.T.reshape(*cells, 3)
        return out, code


def join(records: np.ndarray, codes: np.ndarray, mask: np.ndarray, value) -> str:
    """Step 4: the text of `records`, (rows, n_cols, 4) uint64 from :meth:`RowText.records`.

    `codes` holds the records' shape codes in row order, and `mask` is an
    (rows * n_cols, 4) uint64 buffer for their byte masks. Cells are
    joined by ',' and each row ends with '\\n'; `value(cells)` gives the
    float64 values of the fallback cells, by their index in row order.
    """
    t = _tables()
    separators = records.view(np.uint8)[..., 31]
    separators[:, :-1] = ord(",")
    separators[:, -1] = ord("\n")
    t["mask"].take(codes, axis=0, out=mask, mode="clip")
    text = codecs.ascii_decode(records.reshape(-1, 4).view(np.uint8)[mask.view(bool)])[0]
    cells = np.flatnonzero(codes == _SLOW)
    if not cells.size:
        return text

    # Python's text for the fallback cells, ahead of their separators
    ends = np.cumsum(t["length"][codes])
    pieces, at = [], 0
    for i, v in zip(cells.tolist(), value(cells).tolist()):
        start = int(ends[i]) - 1
        pieces.append(text[at:start])
        pieces.append("%.17g" % v)
        at = start
    pieces.append(text[at:])
    return "".join(pieces)
