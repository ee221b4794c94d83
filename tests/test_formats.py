import os
import re
import stat
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ledleak.formats import (
    atomic_open,
    hexline_to_octets,
    octets_to_hexline,
    read_trace,
    trace_writer,
    write_events,
    write_trace,
)
from ledleak.signals import LogicEventStream, OpticalTrace
from oracles import octets_to_hexline_join, read_events_loop, read_trace_loop


def drop_header_key(path, key: str) -> None:
    header, rest = path.read_text().split("\n", 1)
    kept = " ".join(t for t in header.split(" ") if not t.startswith(key + "="))
    path.write_text(kept + "\n" + rest)


class TestTraceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        tr = OpticalTrace(1_000_000.0, rng.normal(0.5, 0.1, 500), origin_time=0.25)
        path = tmp_path / "t.optrace"
        write_trace(path, tr)
        back = read_trace(path)
        assert back.sample_rate == tr.sample_rate
        assert back.origin_time == tr.origin_time
        assert np.array_equal(back.samples, tr.samples)

    def test_header_format(self, tmp_path):
        path = tmp_path / "t.optrace"
        write_trace(path, OpticalTrace(9600.0, np.array([0.5])))
        first = path.read_text().splitlines()[0]
        assert first.startswith("# optrace v1 sample_rate_hz=")
        assert "origin_s=" in first

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.optrace"
        path.write_text("# nottrace v1\n0.5\n")
        with pytest.raises(ValueError):
            read_trace(path)

    @pytest.mark.parametrize("key", ["sample_rate_hz", "origin_s"])
    def test_missing_header_key_named(self, tmp_path, key):
        path = tmp_path / "t.optrace"
        write_trace(path, OpticalTrace(100.0, np.array([0.5])))
        drop_header_key(path, key)
        with pytest.raises(ValueError, match=key):
            read_trace(path)

    def test_infinite_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "t.optrace"
        path.write_text("# optrace v1 sample_rate_hz=inf origin_s=0.0\n0.5\n")
        with pytest.raises(ValueError, match="sample_rate"):
            read_trace(path)

    def test_empty_trace_round_trip(self, tmp_path):
        path = tmp_path / "e.optrace"
        write_trace(path, OpticalTrace(100.0, np.empty(0)))
        assert read_trace(path).n_samples == 0

    def test_repeated_writes_byte_identical(self, tmp_path):
        tr = OpticalTrace(48e3, np.linspace(0, 1, 64))
        a, b = tmp_path / "a", tmp_path / "b"
        write_trace(a, tr)
        write_trace(b, tr)
        assert a.read_bytes() == b.read_bytes()

    def test_blocks_join_into_one_line_per_sample(self, tmp_path):
        samples = np.random.default_rng(2).normal(0.5, 0.1, 2 * 65536 + 3)
        path = tmp_path / "t.optrace"
        write_trace(path, OpticalTrace(1e6, samples, origin_time=0.5))
        header = "# optrace v1 sample_rate_hz=1000000.0 origin_s=0.5\n"
        assert path.read_text() == header + "".join(repr(v) + "\n" for v in samples.tolist())

    def test_no_temp_files_left(self, tmp_path):
        write_trace(tmp_path / "x.optrace", OpticalTrace(1.0, np.zeros(3)))
        assert [p.name for p in tmp_path.iterdir()] == ["x.optrace"]


class TestEventFiles:
    def test_round_trip(self, tmp_path):
        ev = LogicEventStream(1, (0.0, 1e-4, 2.5e-4), 1e-3)
        path = tmp_path / "e.optevents"
        write_events(path, ev)
        assert read_events_loop(path) == ev

    def test_header_format(self, tmp_path):
        path = tmp_path / "e.optevents"
        write_events(path, LogicEventStream(0, (), 2.0))
        first = path.read_text().splitlines()[0]
        assert first.startswith("# optevents v1 initial=0 duration_s=")

    def test_bytes_written(self, tmp_path):
        path = tmp_path / "e.optevents"
        write_events(path, LogicEventStream(1, (0.5, 1.0, 1.2345678901234567), 2.0))
        assert path.read_bytes() == (b"# optevents v1 initial=1 duration_s=2.0\n"
                                     b"0.5\n1.0\n1.2345678901234567\n")

    def test_no_temp_files_left(self, tmp_path):
        write_events(tmp_path / "e.optevents", LogicEventStream(0, (0.25,), 1.0))
        assert [p.name for p in tmp_path.iterdir()] == ["e.optevents"]


class TestHeaderErrors:
    """Header errors name the file, and a value that does not parse names
    its key and the value."""

    @pytest.mark.parametrize("reader, header, message", [
        (read_trace, "# optrace v1 sample_rate_hz=x origin_s=0.0",
         "header sample_rate_hz: expected float, got 'x'"),
        (read_trace, "# optrace v1 sample_rate_hz=1000.0 origin_s=0..5",
         "header origin_s: expected float, got '0..5'"),
        (read_trace, "# optrace v1 sample_rate_hz=1_000 origin_s=0.0",
         "header sample_rate_hz: expected float, got '1_000'"),
        (read_trace, "# optrace v2 sample_rate_hz=1000.0 origin_s=0.0",
         "not a '# optrace v1' file"),
        (read_trace, "# optrace v1 origin_s=0.0", "'# optrace v1' header lacks sample_rate_hz="),
        (read_trace, "# optrace v1 sample_rate_hz=1000.0", "'# optrace v1' header lacks origin_s="),
        # Every key is looked for before any value is parsed.
        (read_trace, "# optrace v1 sample_rate_hz=x", "'# optrace v1' header lacks origin_s="),
        (read_trace, "# optrace v1 sample_rate_hz= origin_s=0.0",
         "header sample_rate_hz: expected float, got ''"),
        (read_trace, "# optrace v1 sample_rate_hz=\u0661 origin_s=0.0",  # Arabic-Indic one
         "header sample_rate_hz: expected float, got '\u0661'"),
        # The ground truth ``synth`` writes beside its trace is not a trace.
        (read_trace, "# optevents v1 initial=0 duration_s=1.0", "not a '# optrace v1' file"),
        # Values that parse but that the trace refuses.
        (read_trace, "# optrace v1 sample_rate_hz=0 origin_s=0.0",
         "sample_rate must be positive and finite, got 0.0"),
        (read_trace, "# optrace v1 sample_rate_hz=-1e3 origin_s=0.0",
         "sample_rate must be positive and finite, got -1000.0"),
        (read_trace, "# optrace v1 sample_rate_hz=inf origin_s=0.0",
         "sample_rate must be positive and finite, got inf"),
        (read_trace, "# optrace v1 sample_rate_hz=1000.0 origin_s=inf",
         "origin_time must be finite, got inf"),
        (read_trace, "# optrace v1 sample_rate_hz=1000.0 origin_s=nan",
         "origin_time must be finite, got nan"),
    ])
    def test_names_file_and_key(self, tmp_path, reader, header, message):
        path = tmp_path / "f.txt"
        path.write_text(header + "\n0.25\n")
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == f"{path}: {message}"

    def test_header_checked_before_body(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# optrace v1 sample_rate_hz=x origin_s=0.0\nnot a number\n")
        with pytest.raises(ValueError, match="sample_rate_hz"):
            read_trace(path)


TRACE_HEADER = b"# optrace v1 sample_rate_hz=1000.0 origin_s=0.0\n"

#: Doubles at the edges of the format: signed zeros, the smallest subnormal,
#: the largest subnormal, the smallest and largest normal, 17-digit values.
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004,
            1.0000000000000002, 1.2345678901234567e-300, 9.876543210987654e+299]


def bad_line(path, number: int, text: str) -> str:
    return re.escape(f"{path}, line {number}: expected one decimal number, got {text!r}")


class TestSampleRoundTrip:
    """Every file the writers emit reads back bit for bit, as the loop read it."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @example(EXTREMES)
    def test_trace_round_trip_bit_identical(self, values):
        samples = np.array(values, dtype=np.float64)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d, "t.optrace")
            write_trace(path, OpticalTrace(1e6, samples))
            back, ref = read_trace(path), read_trace_loop(path)
        assert back.samples.tobytes() == samples.tobytes() == ref.samples.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.7976931348623157e308), unique=True, max_size=40))
    @example(sorted(v for v in EXTREMES if v > 0))
    @example([-0.0, 5e-324, 1.7976931348623157e308])
    @example([])
    def test_events_round_trip_bit_identical(self, values):
        edges = tuple(sorted(values))
        events = LogicEventStream(1, edges, edges[-1] if edges else 0.0)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d, "e.optevents")
            write_events(path, events)
            back = read_events_loop(path)
        assert back == events
        assert np.array(back.edges).tobytes() == np.array(edges).tobytes()


#: Bodies the loop reader took, which must read to the same array.
ACCEPTED = [
    b"", b"\n", b"1", b"1\n2\n", b"  1.5\t\n", b"\n\n1\n \t\n2\n", b"1\r\n2\r\n", b"1\r2\r",
    b"1\r\n\r\n2\r", b"1\n\r\n\r2\n", b"\x0c1\x0b\n\x1c\n", "\u2003\n1\u00a0\n\x85\n".encode(),
    b"+.5e-3\n-0.0\n1.\n", b"5e-324\n1e-400\n", b"0.30000000000000004\n1E+308\n",
]
#: Bodies both readers refuse, with the line the error names.
REJECTED = [
    (b"1 2\n", 2, "1 2"), (b"1\n1 2\n", 3, "1 2"), (b"1 2\n3 4\n", 2, "1 2"),
    (b"#x\n", 2, "#x"), (b"1\n\n#\n", 4, "#"), (b"0x10\n", 2, "0x10"),
    (b"0x1p0\n", 2, "0x1p0"), (b"1.5,2\n", 2, "1.5,2"), (b"\xff\n", 2, "\udcff"),
    (b"1\r\n\r\n\xff2\r\n", 4, "\udcff2"), (b"1\rx\r", 3, "x"), (b".\n", 2, "."),
    (b"1e\n", 2, "1e"), (b"1\x002\n", 2, "1\x002"), (b"1\x0c2\n", 2, "1\x0c2"),
    ("1\u20032\n".encode(), 2, "1\u20032"), (b"(1)\n", 2, "(1)"), (b"1j\n", 2, "1j"),
]
#: Bodies the loop reader took and this one refuses; ``write_trace`` never
#: writes them.
TIGHTENED = [(b"1_0\n", 2, "1_0"), ("\u0661\n".encode(), 2, "\u0661"),
             ("1\n\uff15\n".encode(), 3, "\uff15")]
NON_FINITE = [b"nan\n", b"1\ninf\n", b"-Infinity\n", b"1e999\n"]


class TestSampleGrammar:
    @pytest.mark.parametrize("body", ACCEPTED)
    def test_accepted_reads_as_loop(self, tmp_path, body):
        path = tmp_path / "t.optrace"
        path.write_bytes(TRACE_HEADER + body)
        assert read_trace(path).samples.tobytes() == read_trace_loop(path).samples.tobytes()

    @pytest.mark.parametrize("body, number, text", REJECTED)
    def test_rejected_names_file_line_and_text(self, tmp_path, body, number, text):
        path = tmp_path / "t.optrace"
        path.write_bytes(TRACE_HEADER + body)
        with pytest.raises(ValueError):
            read_trace_loop(path)
        with pytest.raises(ValueError, match=bad_line(path, number, text)):
            read_trace(path)

    @pytest.mark.parametrize("body, number, text", TIGHTENED)
    def test_tightened_names_file_line_and_text(self, tmp_path, body, number, text):
        path = tmp_path / "t.optrace"
        path.write_bytes(TRACE_HEADER + body)
        read_trace_loop(path)
        with pytest.raises(ValueError, match=bad_line(path, number, text)):
            read_trace(path)

    @pytest.mark.parametrize("body", NON_FINITE)
    def test_non_finite_fails_finiteness(self, tmp_path, body):
        path = tmp_path / "t.optrace"
        path.write_bytes(TRACE_HEADER + body)
        for read in (read_trace_loop, read_trace):
            with pytest.raises(ValueError, match="samples must all be finite"):
                read(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text("0123456789.eE+-_ \t\x0b\x0c#x,nafi\u0661\u2003", max_size=6),
                    max_size=6),
           st.sampled_from(["\n", "\r\n", "\r"]))
    def test_random_lines_read_as_loop(self, lines, end):
        """The loop's verdict and array, but for lines that are not ASCII or
        hold an underscore, which the loop may take and this reader refuses."""
        tightened = any(not t.isascii() or "_" in t for t in map(str.strip, lines) if t)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d, "t.optrace")
            path.write_bytes(TRACE_HEADER + end.join(lines).encode())
            try:
                expected = read_trace_loop(path).samples.tobytes()
            except ValueError:
                expected = None
            try:
                got = read_trace(path).samples.tobytes()
            except ValueError:
                got = None
        assert got == (None if tightened else expected)


class TestSampleReader:
    @pytest.mark.parametrize("body", [b"", b"\n", b" \n\t\r\n\x0c\n"])
    def test_empty_trace_reads_without_warning(self, tmp_path, body):
        path = tmp_path / "t.optrace"
        path.write_bytes(TRACE_HEADER + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read_trace(path).n_samples == 0
        assert caught == []

    def test_file_replaced_before_body_read(self, tmp_path, monkeypatch):
        path = tmp_path / "t.optrace"
        write_trace(path, OpticalTrace(100.0, np.zeros(3)))
        load = np.loadtxt

        def replace_then_load(*args, **kwargs):
            write_trace(path, OpticalTrace(200.0, np.ones(5)))
            return load(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", replace_then_load)
        with pytest.raises(ValueError, match=re.escape(f"{path} changed while it was read")):
            read_trace(path)

    def test_file_rewritten_in_place_after_a_bad_body(self, tmp_path, monkeypatch):
        """The bad line the parser met is gone when the reader looks for it."""
        path = tmp_path / "t.optrace"
        path.write_bytes(TRACE_HEADER + b"0.5\nx\n")
        load = np.loadtxt

        def load_then_rewrite(*args, **kwargs):
            try:
                return load(*args, **kwargs)
            finally:
                with open(path, "r+b") as fh:
                    fh.write(TRACE_HEADER + b"0.5\n1\n")

        monkeypatch.setattr(np, "loadtxt", load_then_rewrite)
        with pytest.raises(ValueError, match=re.escape(f"{path} changed while it was read")):
            read_trace(path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_named(self, tmp_path, suffix):
        path = tmp_path / f"t{suffix}"
        write_trace(path, OpticalTrace(100.0, np.zeros(3)))
        with pytest.raises(ValueError, match=re.escape(f"*{suffix} as compressed")):
            read_trace(path)

    def test_read_peak_memory_bounded(self, tmp_path):
        samples = np.random.default_rng(3).normal(0.5, 0.1, 2**18)
        path = tmp_path / "t.optrace"
        write_trace(path, OpticalTrace(1e6, samples))
        tracemalloc.start()
        try:
            trace = read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.samples.tobytes() == samples.tobytes()
        assert peak < 4 * samples.nbytes


class TestHexFormats:
    def test_hexline_round_trip(self):
        data = bytes(range(20))
        line = octets_to_hexline(data)
        assert line.startswith("00 01 02")
        assert line == line.lower()
        assert hexline_to_octets(line) == data

    @given(st.binary(max_size=1600))
    @example(b"")
    @example(bytes(range(256)))
    @settings(max_examples=100, deadline=None)
    def test_hexline_matches_per_octet_join(self, octets):
        assert octets_to_hexline(octets) == octets_to_hexline_join(octets)

    def test_hexline_rejects_garbage(self):
        with pytest.raises(ValueError):
            hexline_to_octets("0g 00")
        with pytest.raises(ValueError):
            hexline_to_octets("000 11")

    @pytest.mark.parametrize("line, octet", [
        ("+1 0f", "+1"),
        ("0f \u0663\u0663", "\u0663\u0663"),  # Arabic-Indic digits
        ("\uff10f", "\uff10f"),  # fullwidth zero
        ("0f -1", "-1"),
        ("0_ 1f", "0_"),
    ])
    def test_hexline_takes_ascii_hex_digits_only(self, line, octet):
        with pytest.raises(ValueError, match=re.escape(f"bad hex octet {octet!r}")):
            hexline_to_octets(line)

    def test_hexline_any_whitespace_between_octets(self):
        assert hexline_to_octets(" 0A\tff\n10 ") == b"\x0a\xff\x10"


def write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


class TestAtomicWrite:
    def test_overwrites_existing(self, tmp_path):
        p = tmp_path / "f.txt"
        write_text(p, "one")
        write_text(p, "two")
        assert p.read_text() == "two"

    def test_exception_keeps_old_file_and_removes_temp(self, tmp_path):
        p = tmp_path / "f.txt"
        write_text(p, "one")
        with pytest.raises(RuntimeError):
            with atomic_open(p) as fh:
                fh.write("two")
                raise RuntimeError("interrupted")
        assert [q.name for q in tmp_path.iterdir()] == ["f.txt"]
        assert p.read_text() == "one"

    def test_trace_writer_matches_write_trace(self, tmp_path):
        rng = np.random.default_rng(2)
        parts = [rng.normal(0.5, 0.1, n) for n in (3, 0, 70000, 1)]
        with trace_writer(tmp_path / "a.optrace", 1e6, 0.25) as append:
            for part in parts:
                append(part)
        write_trace(tmp_path / "b.optrace", OpticalTrace(1e6, np.concatenate(parts), 0.25))
        assert (tmp_path / "a.optrace").read_bytes() == (tmp_path / "b.optrace").read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_trace(tmp_path / "t.optrace", OpticalTrace(100.0, np.array([0.5])))
            write_text(tmp_path / "f.txt", "one")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "t.optrace").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == mode
