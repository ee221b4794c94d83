import os
import re
import stat

import numpy as np
import pytest

from ledleak.formats import (
    atomic_write_text,
    hexline_to_octets,
    octets_to_hexline,
    read_events,
    read_trace,
    write_events,
    write_trace,
)
from ledleak.signals import LogicEventStream, OpticalTrace


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
        assert read_events(path) == ev

    def test_header_format(self, tmp_path):
        path = tmp_path / "e.optevents"
        write_events(path, LogicEventStream(0, (), 2.0))
        first = path.read_text().splitlines()[0]
        assert first.startswith("# optevents v1 initial=0 duration_s=")

    @pytest.mark.parametrize("key", ["initial", "duration_s"])
    def test_missing_header_key_named(self, tmp_path, key):
        path = tmp_path / "e.optevents"
        write_events(path, LogicEventStream(0, (0.25,), 1.0))
        drop_header_key(path, key)
        with pytest.raises(ValueError, match=key):
            read_events(path)

    def test_infinite_duration_rejected(self, tmp_path):
        path = tmp_path / "e.optevents"
        path.write_text("# optevents v1 initial=0 duration_s=inf\n0.25\n")
        with pytest.raises(ValueError, match="duration"):
            read_events(path)


class TestHexFormats:
    def test_hexline_round_trip(self):
        data = bytes(range(20))
        line = octets_to_hexline(data)
        assert line.startswith("00 01 02")
        assert line == line.lower()
        assert hexline_to_octets(line) == data

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


class TestAtomicWrite:
    def test_overwrites_existing(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "one")
        atomic_write_text(p, "two")
        assert p.read_text() == "two"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_trace(tmp_path / "t.optrace", OpticalTrace(100.0, np.array([0.5])))
            atomic_write_text(tmp_path / "f.txt", "one")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "t.optrace").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == mode
