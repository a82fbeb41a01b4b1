"""Signal file round trips and format errors."""

import importlib.util
import struct
import wave
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfekit.io
from tfekit import Signal, gen_chirp, load_csv, load_wav, save_csv
from tfekit._csvtext import BLOCK

GOLDEN_SIGNALS = {
    "odd-length": Signal(np.random.default_rng(1).normal(size=101), 12345.678),
    "even-length": Signal(np.random.default_rng(2).normal(size=100), 8000.0),
    "block-boundaries": Signal(np.random.default_rng(3).normal(size=2 * BLOCK + 1), 100.0),
    "block-minus-one": Signal(np.random.default_rng(4).normal(size=BLOCK - 1), 100.0),
    "one-block": Signal(np.random.default_rng(5).normal(size=BLOCK), 100.0),
    "edge-values": Signal([0.0, 5e-324, 1e300, -1e300, 50.0, 1.0, -0.0, 0.1], 100.0),
    "negative-subnormal-and-extremes": Signal(
        [-1.5, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308, 1e-300, -1e-300,
         1e300, -1e300, -0.001, -123456789.125, -1e-5, -9.9999999999999995e-5], 100.0),
}


class TestCsv:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SIGNALS))
    def test_bytes_match_oracle(self, tmp_path, case):
        x = GOLDEN_SIGNALS[case]
        save_csv(x, tmp_path / "got.csv")
        oracles.save_csv(x, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        x = gen_chirp(10, 10, 1.0, 100)  # 100-sample tone
        path = tmp_path / "tone.csv"
        save_csv(x, path)
        y = load_csv(path)
        assert y.sample_rate == 100.0
        assert np.abs(y.samples - x.samples).max() < 1e-9

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        x = Signal(rng.normal(size=257), 12345.678)
        path = tmp_path / "r.csv"
        save_csv(x, path)
        y = load_csv(path)
        assert np.array_equal(y.samples, x.samples)
        assert y.sample_rate == x.sample_rate

    def test_missing_rate_requires_override(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        with pytest.raises(ValueError, match="sample_rate"):
            load_csv(path)
        y = load_csv(path, sample_rate=50.0)
        assert y.sample_rate == 50.0
        assert list(y.samples) == [1.0, 2.0, 3.0]

    def test_override_wins_over_header(self, tmp_path):
        path = tmp_path / "h.csv"
        save_csv(Signal(np.arange(4.0), 100.0), path)
        assert load_csv(path, sample_rate=200.0).sample_rate == 200.0

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# sample_rate=100\n1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            load_csv(path)

    def test_bad_token_names_its_line(self, tmp_path):
        path = tmp_path / "tok.csv"
        path.write_text("# sample_rate=100\n\n1.0\n# note\n2.0\n3.0x\n4.0\nbad\n")
        with pytest.raises(ValueError, match=r"tok\.csv:6: not a number: '3\.0x'"):
            load_csv(path)

    def test_two_values_on_one_line_rejected(self, tmp_path):
        # on one line numpy's reader fails; on every line it reads a two-column table
        for name, body, lineno in (("pair.csv", "1.0\n1.0 2.0\n3.0\n", 3),
                                   ("two.csv", "1.0 2.0\n3.0 4.0\n", 2)):
            path = tmp_path / name
            path.write_text("# sample_rate=100\n" + body)
            with pytest.raises(ValueError) as err:
                load_csv(path)
            assert str(err.value) == f"{path}:{lineno}: not a number: '1.0 2.0'"

    def test_bad_sample_rate_value(self, tmp_path):
        path = tmp_path / "rate.csv"
        path.write_text("1.0\n# sample_rate=fast\n2.0\n")
        with pytest.raises(ValueError, match=r"rate\.csv:2: bad sample_rate value 'fast'"):
            load_csv(path)

    def test_header_mid_file_blank_lines_and_padding(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_text("\n  1.5\n\t-2e-3  \n\n# sample_rate=250\n   \n 0.1\n# comment\n7\n")
        y = load_csv(path)
        assert y.sample_rate == 250.0
        assert y.samples.tolist() == [1.5, -2e-3, 0.1, 7.0]

    def test_last_header_wins_wherever_it_is(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text("# sample_rate=100\n1.0\n# note=x\n2.0\n  # sample_rate = 300\n")
        y = load_csv(path)
        assert y.sample_rate == 300.0
        assert y.samples.tolist() == [1.0, 2.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# sample_rate=100\n")
        with pytest.raises(ValueError, match="no samples"):
            load_csv(path)

    # numpy's reader decides the first three, the line scan the other two
    @pytest.mark.parametrize("text, message", [
        ("# sample_rate=100\n1.0\n", "need at least 2 samples, got 1"),
        ("# sample_rate=100\n1.0\nnan\n", "samples must be finite (no NaN/Inf)"),
        ("# sample_rate=-5\n1.0\n2.0\n", "sample_rate must be a positive number, got -5.0"),
        ("1.0\n# sample_rate=-5\n2.0\n", "sample_rate must be a positive number, got -5.0"),
        ("# sample_rate=100\n# note\n1_0\n", "need at least 2 samples, got 1"),
    ], ids=["one-sample", "nan", "negative-rate", "negative-rate-late", "one-sample-scanned"])
    def test_refused_contents_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "refused.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {message}"


def _refuse(path):
    raise AssertionError(f"{path} went to the line scan")


def _benchmark_writer():
    """The signal CSV writer the benchmark makes its inputs with."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.write_signal_csv


class TestCsvReaderGate:
    """numpy's reader decides the files tfekit and its benchmark write; the line scan the rest."""

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
    def test_saved_files_take_numpys_reader(self, tmp_path, monkeypatch, newline):
        monkeypatch.setattr("tfekit.io._parse_lines", _refuse)
        x = GOLDEN_SIGNALS["negative-subnormal-and-extremes"]
        path = tmp_path / "saved.csv"
        save_csv(x, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        y = load_csv(path)
        assert (y.samples.tobytes(), y.sample_rate) == (x.samples.tobytes(), x.sample_rate)

    def test_benchmark_inputs_take_numpys_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tfekit.io._parse_lines", _refuse)
        samples = np.random.default_rng(6).normal(size=1001)
        path = tmp_path / "bench.csv"
        _benchmark_writer()(samples, path)
        y = load_csv(path)
        assert y.samples.tobytes() == samples.tobytes()
        assert y.sample_rate == 8000.0

    @pytest.mark.parametrize("text", [
        "# sample_rate=100\n1.0\n# note\n2.0\n",
        "\n# sample_rate=100\n1.0\n2.0\n",
    ], ids=["comment-on-line-3", "blank-before-header"])
    def test_other_comments_take_the_line_scan(self, tmp_path, text):
        path = tmp_path / "scanned.csv"
        path.write_text(text)
        assert tfekit.io._parse_fast(path) is None
        y, want = load_csv(path), oracles.load_csv(path)
        assert (y.samples.tobytes(), y.sample_rate) == (want.samples.tobytes(), want.sample_rate)


# Lines numpy's C reader and float() may treat differently, or that no
# reader accepts: special values, underscores, a second field, a trailing
# comment, other line breaks and blanks, non-ASCII digits.
ODD_TOKENS = [
    "nan", "-nan", "NaN", "inf", "-Infinity", "+inf", "1e400", "-1e400", "1e-400", "5e-324",
    "1_0", "1__0", "_1", "1_", "1.5_5e1_0", "1.0 2.0", "1.0\t2.0", "1.0 # note", "1.0#", "1,2",
    "0x10", "+.5", "5.", ".", "-", "1d5", "nan(1)", "\u0661\u0662", "1.0\f2.0", "\x0b3",
    "4\x1f", "\x1c", "7\x00", "\u00e9", "\u20071", "1\u20282", "\x85",
]
COMMENTS = ["#", "# note", "# note=x", "#sample_rate", "## sample_rate=7", "# sample_rate = 300",
            "#\tsample_rate=9", "# sample_rate=fast", "# sample_rate=", "# sample_rate=-5",
            "# sample_rate=nan", "# sample_rate=1_000", "# a # b"]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
TOKENS = st.one_of(
    FINITE.map("{:.17g}".format),
    FINITE.map(repr),
    FINITE.map("{:.3e}".format),
    st.integers(-10**6, 10**6).map(str),
    st.floats(1e-3, 1e6).map(lambda v: f"# sample_rate={v!r}"),
    st.sampled_from(ODD_TOKENS + COMMENTS + [""]),
)
PAD = st.text(alphabet=" \t", max_size=2)
LINES = st.lists(st.tuples(PAD, TOKENS, PAD).map("".join), max_size=12)


def _outcome(load, path, rate):
    try:
        x = load(path, sample_rate=rate)
    except ValueError as exc:
        return "error", str(exc)
    return x.samples.tobytes(), x.sample_rate


class TestCsvIngestMatchesLineOracle:
    @settings(max_examples=300, deadline=None)
    @given(lines=LINES, newline=st.sampled_from(["\n", "\r\n", "\r"]),
           final=st.booleans(), rate=st.sampled_from([None, 250.0]))
    def test_same_bits_or_same_message(self, tmp_path_factory, lines, newline, final, rate):
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes((newline.join(lines) + (newline if final else "")).encode())
        assert _outcome(load_csv, path, rate) == _outcome(oracles.load_csv, path, rate)

    # the line scan reads the first three, which the C reader refuses or
    # the gate keeps from it; a '#' past the first byte sends the next three
    # to the line scan; the C reader decides the last five whatever their
    # line ends, but for the lone-CR '#sample_rate', whose bad first-line
    # header the line scan names
    @pytest.mark.parametrize("text", [
        "# sample_rate=100\n1_0\n2\n",
        "# sample_rate=100\n1.0\f2.0\n",
        "# sample_rate=100\n\u0661\n",
        "1.0\n# sample_rate=100\n  # note\n\n2.0\r\n3.0",
        "# sample_rate=100\n# sample_rate=200\n",
        "  # sample_rate=100\n1\n2\n",
        "",
        "# sample_rate=100\r\n1\r\n2\r\n",
        "# sample_rate=100\r1\r2\r",
        "#sample_rate\r1\r2\r",
        "# note\n1\n",
    ])
    def test_fixed_cases(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        assert _outcome(load_csv, path, None) == _outcome(oracles.load_csv, path, None)


def _write_wav(path, ints, rate, channels=1, width=2):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(rate)
        if width == 2:
            w.writeframes(struct.pack(f"<{len(ints)}h", *ints))
        else:
            w.writeframes(bytes((v + 128) % 256 for v in ints))


class TestWav:
    def test_pcm16_ingestion(self, tmp_path):
        # independent writer: raw struct-packed ints through the stdlib
        ints = [0, 16384, -16384, 32767, -32768, 12345]
        path = tmp_path / "x.wav"
        _write_wav(path, ints, 50)
        x = load_wav(path)
        assert x.sample_rate == 50.0
        assert np.array_equal(x.samples, np.array(ints) / 32768.0)
        assert x.samples.max() < 1.0
        assert x.samples.min() >= -1.0

    def test_sample_rate_overrides_the_file(self, tmp_path):
        ints = [0, 16384, -16384, 32767, -32768, 12345]
        path = tmp_path / "x.wav"
        _write_wav(path, ints, 50)
        x = load_wav(path, sample_rate=8000.0)
        assert x.sample_rate == 8000.0
        assert np.array_equal(x.samples, np.array(ints) / 32768.0)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        _write_wav(path, [0, 0, 1, 1], 50, channels=2)
        with pytest.raises(ValueError, match="mono"):
            load_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "b8.wav"
        _write_wav(path, [0, 1, 2, 3], 50, width=1)
        with pytest.raises(ValueError, match="16-bit"):
            load_wav(path)

    def test_refused_contents_name_the_file(self, tmp_path):
        path = tmp_path / "one.wav"
        _write_wav(path, [100], 50)
        with pytest.raises(ValueError) as err:
            load_wav(path)
        assert str(err.value) == f"{path}: need at least 2 samples, got 1"

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not a RIFF file at all..")
        with pytest.raises(ValueError, match="malformed"):
            load_wav(path)
