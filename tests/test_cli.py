import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ledleak import cli, diode, emanation, formats, mac
from ledleak.cli import (
    EXIT_CONFIG,
    EXIT_NO_SIGNAL,
    EXIT_OK,
    EXIT_ONE_WAY,
    ExperimentConfig,
    _deterministic_frames,
    _read_stream_arg,
    build_parser,
    main,
    run_stretch_sweep,
)
from ledleak.emanation import MAX_SAMPLES
from ledleak.errors import ConfigError
from ledleak.formats import read_trace, write_trace
from ledleak.signals import NoiseModel, OpticalTrace, SerialConfig

import numpy as np

from oracles import read_events_loop, stretch_sweep_rows


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dir_bytes(root) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def assert_one_error_line(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestSynthRecover:
    def test_synth_closed_loop(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "synth", "--class", "III", "--data", "SECRET",
                              "--seed", "1", "--out", str(out))
        assert code == EXIT_OK
        paths = stdout.splitlines()
        assert len(paths) == 2
        code, stdout, _ = run(capsys, "recover", str(out / "trace.optrace"),
                              "--baud", "9600")
        assert code == EXIT_OK
        result = json.loads(stdout)
        assert bytes.fromhex(result["octets_hex"]) == b"SECRET"
        assert result["framing_errors"] == 0

    def test_recover_baud_auto(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "synth", "--class", "III", "--data", "AUTODETECT",
            "--baud", "19200", "--seed", "2", "--out", str(out))
        code, stdout, _ = run(capsys, "recover", str(out / "trace.optrace"),
                              "--baud", "auto")
        assert code == EXIT_OK
        result = json.loads(stdout)
        assert result["baud_used"] == 19200.0
        assert bytes.fromhex(result["octets_hex"]) == b"AUTODETECT"

    def test_synth_encodes_the_line_once(self, tmp_path, capsys):
        with mock.patch("ledleak.emanation.uart_encode", wraps=emanation.uart_encode) as enc:
            code, _, err = run(capsys, "synth", "--seed", "1", "--out", str(tmp_path / "s"))
        assert code == EXIT_OK, err
        assert enc.call_count == 1

    def test_class_i_constant_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(capsys, "synth", "--class", "I", "--seed", "3",
                         "--out", str(out))
        assert code == EXIT_OK
        tr = read_trace(out / "trace.optrace")
        assert float(tr.samples.max() - tr.samples.min()) < 1e-9

    def test_ground_truth_events_written(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "synth", "--class", "III", "--data", "x", "--seed", "1",
            "--out", str(out))
        events = read_events_loop(out / "events.optevents")
        assert len(events.edges) > 0

    def test_flat_trace_exits_no_signal(self, tmp_path, capsys):
        path = tmp_path / "flat.optrace"
        write_trace(path, OpticalTrace(1e4, np.full(100, 0.5)))
        code, _, err = run(capsys, "recover", str(path), "--baud", "9600")
        assert code == EXIT_NO_SIGNAL
        assert "no signal" in err

    def test_baud_auto_too_few_edges_exits_no_signal(self, tmp_path, capsys):
        path = tmp_path / "step.optrace"
        write_trace(path, OpticalTrace(1e4, np.repeat([0.0, 1.0], 50)))
        code, _, err = run(capsys, "recover", str(path), "--baud", "auto")
        assert code == EXIT_NO_SIGNAL
        assert_one_error_line(err)
        assert "edges" in err

    @pytest.mark.parametrize("header", [
        "# optrace v1 sample_rate_hz=10000.0",
        "# optrace v1 origin_s=0.0",
        "# optrace v1 sample_rate_hz=inf origin_s=0.0",
    ])
    def test_malformed_trace_header_exits_config(self, tmp_path, capsys, header):
        path = tmp_path / "bad.optrace"
        path.write_text(header + "\n0.0\n1.0\n")
        code, _, err = run(capsys, "recover", str(path), "--baud", "9600")
        assert code == EXIT_CONFIG
        assert_one_error_line(err)

    @pytest.mark.parametrize("command", ["recover", "classify"])
    @pytest.mark.parametrize("header, body, message", [
        ("sample_rate_hz=10000.0 origin_s=inf", "0.0\n1.0\n", "origin_time must be finite, got inf"),
        ("sample_rate_hz=10000.0 origin_s=nan", "0.0\n1.0\n", "origin_time must be finite, got nan"),
        ("sample_rate_hz=0 origin_s=0.0", "0.0\n1.0\n",
         "sample_rate must be positive and finite, got 0.0"),
        ("sample_rate_hz=10000.0 origin_s=0.0", "0.0\nnan\n", "samples must all be finite"),
    ])
    def test_trace_value_error_names_the_file(self, tmp_path, capsys, command, header, body,
                                              message):
        path = tmp_path / "t.optrace"
        path.write_text(f"# optrace v1 {header}\n{body}")
        assert run(capsys, command, str(path)) == (EXIT_CONFIG, "", f"error: {path}: {message}\n")

    def test_unreadable_file_exits_config(self, tmp_path, capsys):
        code, _, _ = run(capsys, "recover", str(tmp_path / "missing.optrace"),
                         "--baud", "9600")
        assert code == EXIT_CONFIG

    def test_determinism_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(capsys, "synth", "--class", "III", "--data", "TWICE",
                "--seed", "7", "--sigma", "0.02", "--out", str(out))
        assert dir_bytes(a) == dir_bytes(b)

    def test_classify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "synth", "--class", "III", "--data", "REFDATA",
            "--seed", "1", "--out", str(out))
        code, stdout, _ = run(capsys, "classify", str(out / "trace.optrace"),
                              "--data", "REFDATA", "--baud", "9600")
        assert code == EXIT_OK
        verdict = json.loads(stdout)
        assert verdict["assigned"] == "III"
        assert verdict["score_content"] == 1.0


class TestSweep:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "s"
        code, stdout, _ = run(capsys, "sweep-stretch", "--data", "SWEEPDATA" * 8,
                              "--stretch-us", "0,208.333,50000",
                              "--sample-rate", "153600", "--seed", "5",
                              "--out", str(out))
        assert code == EXIT_OK
        csv = (out / "sweep_stretch.csv").read_text().splitlines()
        assert csv[0] == "min_on_s,ber,mi_bits"
        assert len(csv) == 4
        first = csv[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # clean channel, no stretch

    def test_sweep_encodes_the_line_once(self, tmp_path, capsys):
        with mock.patch("ledleak.emanation.uart_encode", wraps=emanation.uart_encode) as enc:
            code, _, err = run(capsys, "sweep-stretch", "--stretch-us", "0,104.2,1041.7",
                               "--out", str(tmp_path / "s"))
        assert code == EXIT_OK, err
        assert enc.call_count == 1

    def test_warning_is_one_line(self, tmp_path, capsys):
        code, stdout, err = run(capsys, "sweep-stretch", "--data", "SWEEPDATASWEEPDATA",
                                "--stretch-us", "0,208.333", "--sample-rate", "153600",
                                "--out", str(tmp_path / "s"))
        assert code == EXIT_OK
        assert stdout == f"{tmp_path / 's' / 'sweep_stretch.csv'}\n"
        assert err == ("warning: sample_rate 153600 Hz is below 4x the shortest pulse "
                       "(3.33333e-10 s); short pulses may be missed\n")

    def test_warning_as_error_is_one_error_line(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "sweep-stretch", "--data", "SWEEPDATASWEEPDATA",
                                    "--stretch-us", "0,208.333", "--sample-rate", "153600",
                                    "--out", str(tmp_path / "s"))
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == ("error: sample_rate 153600 Hz is below 4x the shortest pulse "
                       "(3.33333e-10 s); short pulses may be missed\n")
        assert not (tmp_path / "s").exists()

    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(min_size=1, max_size=6),
           stretch_bits=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0, 40.0]),
                                 min_size=1, max_size=5),
           rate=st.sampled_from([38400.0, 153600.0, 1e6 / 3]),
           sigma=st.sampled_from([0.0, 0.02, 0.3]),
           offset=st.sampled_from([0.0, -0.0, 0.01, -0.2]),
           seed=st.integers(0, 2**64 - 1))
    def test_rows_match_row_by_row_synthesis(self, data, stretch_bits, rate, sigma, offset, seed):
        """Unsorted and repeated stretches, stretches that lengthen the
        trace, no noise, offset only, sigma only and both: every float as
        when each row drew its own noise through ``synthesize_class``."""
        serial = SerialConfig()
        stretch = [k * serial.bit_time for k in stretch_bits]
        noise = NoiseModel(sigma, offset, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run_stretch_sweep(data, serial, stretch, rate, noise)
            want = stretch_sweep_rows(data, serial, stretch, rate, noise)
        assert [list(map(repr, r.values())) for r in got] == \
            [list(map(repr, r.values())) for r in want]

    def test_sweep_leaves_its_inputs(self):
        serial = SerialConfig()
        stretch = [2 * serial.bit_time, 0.0, serial.bit_time]
        held = list(stretch)
        noise = NoiseModel(0.02, 0.01, 3)
        rows = run_stretch_sweep(b"HELD", serial, stretch, 153600.0, noise)
        assert stretch == held
        assert rows == run_stretch_sweep(b"HELD", serial, stretch, 153600.0, noise)

    def test_memory_does_not_grow_with_stretch_values(self):
        """One row's drive stream and trace are held at a time: the working
        peak (less the rows returned) is the same for 2 values and 200."""
        serial = SerialConfig()
        noise = NoiseModel(0.02, 0.0, 5)
        peaks = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_stretch_sweep(b"warm", serial, [0.0], 153600.0, noise)
            for count in (2, 200):
                stretch = [(k % 10) * serial.bit_time for k in range(count)]
                tracemalloc.start()
                try:
                    rows = run_stretch_sweep(bytes(range(64)), serial, stretch, 153600.0, noise)
                    current, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert len(rows) == count
                peaks.append(peak - current)
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_empty_list_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep-stretch", "--data", "x",
                           "--stretch-us", "")
        assert code == EXIT_CONFIG
        assert "stretch" in err

    def test_flat_row_scores_full_error(self, tmp_path, capsys):
        """A 1 kHz trace of one 9600-baud octet: the unstretched row's trace
        is flat, so nothing is recovered; the other row sizes the draw."""
        code, stdout, err = run(capsys, "sweep-stretch", "--data", "A", "--stretch-us", "100,0",
                                "--sample-rate", "1000", "--sigma", "0.02", "--seed", "3",
                                "--out", str(tmp_path / "s"))
        assert (code, stdout) == (EXIT_OK, f"{tmp_path / 's' / 'sweep_stretch.csv'}\n")
        assert (tmp_path / "s" / "sweep_stretch.csv").read_text() == (
            "min_on_s,ber,mi_bits\n0.0,1.0,0.0\n9.999999999999999e-05,1.0,0.0\n")
        assert err == ("warning: sample_rate 1000 Hz is below 4x the shortest pulse "
                       "(0.000104167 s); short pulses may be missed\n")

    @pytest.mark.parametrize("rows, message", [
        ([(0.0, 0.5, 0.1), (1e-4, 0.4, 0.0)], "BER is not non-decreasing in min_on"),
        ([(0.0, 0.0, 0.5), (1e-4, 0.0, 0.6)], "MI is not non-increasing in min_on"),
    ])
    def test_non_monotone_rows_exit_config(self, tmp_path, capsys, monkeypatch, rows, message):
        monkeypatch.setattr(cli, "run_stretch_sweep", lambda *args: [
            {"min_on_s": s, "ber": b, "mi_bits": m} for s, b, m in rows])
        code, stdout, err = run(capsys, "sweep-stretch", "--stretch-us", "0,100",
                                "--out", str(tmp_path / "s"))
        assert (code, stdout) == (EXIT_CONFIG, f"{tmp_path / 's' / 'sweep_stretch.csv'}\n")
        assert err == f"error: {message}\n"

    def test_sweep_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(capsys, "sweep-stretch", "--data", "DET" * 16,
                "--stretch-us", "0,104.1666667,1041.666667",
                "--sample-rate", "153600", "--seed", "9", "--out", str(out))
        assert dir_bytes(a) == dir_bytes(b)


class TestMacCli:
    DST = "aa:bb:cc:dd:ee:ff"
    SRC = "11:22:33:44:55:66"

    def build(self, capsys) -> str:
        code, stdout, _ = run(capsys, "mac", "build", "--dst", self.DST,
                              "--src", self.SRC, "--payload", "hello")
        assert code == EXIT_OK
        return stdout.strip()

    def test_build_validate_round_trip(self, capsys):
        hexline = self.build(capsys)
        code, stdout, _ = run(capsys, "mac", "validate", hexline)
        assert code == EXIT_OK
        verdict = json.loads(stdout)
        assert verdict["accepted"] is True
        assert verdict["frame"] == hexline.replace(" ", "")

    def test_abort_then_validate_rejects(self, capsys):
        hexline = self.build(capsys)
        code, nibbles, _ = run(capsys, "mac", "abort", hexline, "--abort-at", "60")
        assert code == EXIT_OK
        code, stdout, _ = run(capsys, "mac", "validate", nibbles.strip())
        verdict = json.loads(stdout)
        assert verdict["accepted"] is False
        assert verdict["reason"] == "fcs_mismatch"

    def test_peek_reports_clocks(self, capsys):
        hexline = self.build(capsys)
        code, stdout, _ = run(capsys, "mac", "peek", hexline)
        clocks = json.loads(stdout)
        assert clocks["sfd"] == 16
        assert clocks["dst"] == 28
        assert clocks["src"] == 40
        assert clocks["ethertype"] == 44
        assert clocks["fcs_ok"] == 144

    @pytest.mark.parametrize("ethertype", ["10000", "-1"])
    def test_ethertype_out_of_range_exits_config(self, capsys, ethertype):
        code, stdout, err = run(capsys, "mac", "build", "--dst", self.DST, "--src", self.SRC,
                                "--ethertype", ethertype)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)

    def test_empty_input_usage_error(self, capsys):
        code, _, err = run(capsys, "mac", "validate", "")
        assert code == EXIT_CONFIG
        assert "empty input" in err

    def test_mac_octet_above_ff(self, capsys):
        code, stdout, err = run(capsys, "mac", "build", "--dst", "aa:bb:cc:dd:ee:100",
                                "--src", "1:2:3:4:5:6")
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert "MAC address octet '100'" in err

    @pytest.mark.parametrize("value", ["zz", "0", "\u0663\u0663"])
    def test_bad_payload_hex_names_flag_and_value(self, capsys, value):
        code, stdout, err = run(capsys, "mac", "build", "--dst", self.DST, "--src", self.SRC,
                                "--payload-hex", value)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert err.startswith("error: argument --payload-hex: ") and repr(value) in err

    def test_malformed_hex_error(self, capsys):
        code, _, err = run(capsys, "mac", "validate", "zz xx")
        assert code == EXIT_CONFIG
        assert "malformed" in err

    @pytest.mark.parametrize("argv", [
        ["mac", "validate", "\u0663\u0663"],  # Arabic-Indic digits three three
        ["mac", "validate", "+1 0f"],
        ["mac", "validate", "+1 \u0663\u0663"],
        ["mac", "validate", "0x55"],
        ["mac", "peek", "55\uff15"],  # fullwidth five
        ["mac", "abort", "\u0665" * 24, "--abort-at", "16"],
        ["mac", "build", "--dst", DST, "--src", SRC, "--ethertype", "\u0660\u0668\u0660\u0660"],
        ["mac", "build", "--dst", DST, "--src", SRC, "--ethertype", "+800"],
        ["mac", "build", "--dst", DST, "--src", SRC, "--ethertype", "0x0800"],
        ["mac", "build", "--dst", "aa:bb:cc:dd:ee:\u0663", "--src", SRC],
    ])
    def test_non_ascii_hex_is_malformed(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert err.startswith("error: malformed input: ")

    #: Every character ``str.isspace`` accepts, and two that only look blank.
    WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                  + "".join(map(chr, range(0x2000, 0x200b))) + "\u2028\u2029\u202f\u205f\u3000")
    BLANK_LOOKING = "\u200b\ufeff"

    @given(st.text(alphabet=st.sampled_from("05adDg" + WHITESPACE + BLANK_LOOKING), max_size=24))
    @example("5\x1c5")
    @example("55\x85d5")
    @example("55\xa0d5")
    @example("\u20285\u2028")
    @example("5\u30005")
    @example("5\u200b5")
    @example("\x1f")
    @settings(max_examples=200, deadline=None)
    def test_stream_form_split_like_per_character_isspace(self, text):
        """A stream with whitespace inside is read as a hex dump, any other as
        nibbles; the oracle is the per-character ``isspace`` generator."""
        with mock.patch.object(formats, "hexline_to_octets", return_value=b""), \
                mock.patch.object(mac, "stream_from_wire_octets", return_value="dump"), \
                mock.patch.object(mac.MiiNibbleStream, "from_string", return_value="nibbles"):
            if not text.strip():
                with pytest.raises(ConfigError, match="^empty input"):
                    _read_stream_arg(argparse.Namespace(stream=text))
                return
            form = _read_stream_arg(argparse.Namespace(stream=text))
        assert form == ("dump" if any(c.isspace() for c in text.strip()) else "nibbles")

    def test_whitespace_list_is_complete(self):
        assert set(self.WHITESPACE) == {chr(c) for c in range(0x3001) if chr(c).isspace()}
        assert not any(c.isspace() for c in self.BLANK_LOOKING)

    @pytest.mark.parametrize("stream, abort_at, message", [
        ("55", "3", "stream of 2 nibbles is too short to abort"),
        ("5" * 24, "3", "abort_at 3 outside legal range [16, 16]"),
    ])
    def test_abort_errors(self, capsys, stream, abort_at, message):
        code, stdout, err = run(capsys, "mac", "abort", stream, "--abort-at", abort_at)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert message in err


class TestDiodeCli:
    def test_clean_link_accepts_all(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(capsys, "diode", "--frames", "5", "--seed", "4",
                              "--out", str(out))
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["frames_accepted"] == 5
        assert (out / "emitted.optrace").exists()
        assert (out / "received.optrace").exists()

    def test_zero_attenuation_rejects_all(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "diode", "--frames", "3", "--seed", "4",
                              "--attenuation", "0.0", "--out", str(tmp_path / "d"))
        report = json.loads(stdout)
        assert report["frames_accepted"] == 0
        assert report["reject_reasons"] == {"no_sfd": 3}

    def test_wired_back_negative_control(self, tmp_path, capsys):
        code, _, err = run(capsys, "diode", "--frames", "3", "--seed", "4",
                           "--wired-back", "--out", str(tmp_path / "d"))
        assert code == EXIT_ONE_WAY
        assert "violation" in err

    def test_wired_back_names_the_adversary_and_digests(self, tmp_path, capsys):
        code, _, err = run(capsys, "diode", "--frames", "3", "--seed", "4",
                           "--wired-back", "--out", str(tmp_path / "d"))
        serial = SerialConfig(baud=9600.0)
        link = diode.WiredBackLink(channel_attenuation=0.8, serial_cfg=serial)
        frames, noise = _deterministic_frames(3, 4), NoiseModel(0.0, 0.0, 4)
        base, _ = diode.diode_send(frames, link, noise)
        adv, _ = diode.diode_send(frames, link, noise, rx_program=diode.flood_receive_buffers)
        assert code == EXIT_ONE_WAY
        assert err == (f"error: unidirectionality violation under flood_receive_buffers: "
                       f"{base.emitter_trace_digest[:16]} != {adv.emitter_trace_digest[:16]}\n")

    def test_negative_frames_exits_config(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, err = run(capsys, "diode", "--frames", "-1", "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == "error: argument --frames: frames must be >= 0\n"
        assert not out.exists()

    def test_zero_frames_runs(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "diode", "--frames", "0", "--out", str(tmp_path / "d"))
        assert code == EXIT_OK
        assert json.loads(stdout)["frames_sent"] == 0

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        outs = []
        for out in (a, b):
            _, stdout, _ = run(capsys, "diode", "--frames", "4", "--seed", "11",
                               "--sigma", "0.01", "--out", str(out))
            outs.append(stdout)
        assert outs[0] == outs[1]
        assert dir_bytes(a) == dir_bytes(b)

    def test_baseline_runs_once(self, tmp_path, capsys):
        """The traced run is the baseline; each adversary adds one run."""
        with mock.patch("ledleak.diode.link_frames", wraps=diode.link_frames) as runs:
            code, _, err = run(capsys, "diode", "--frames", "2", "--out", str(tmp_path / "d"))
        assert code == EXIT_OK, err
        assert runs.call_count == 1 + len(diode.standard_adversaries()) == 4

    def test_memory_does_not_grow_with_frames(self, tmp_path, capsys):
        """Traces are written frame by frame, not held for the whole run."""
        peaks = []
        for frames in (10, 40):
            tracemalloc.start()
            try:
                code, _, err = run(capsys, "diode", "--frames", str(frames),
                                   "--out", str(tmp_path / str(frames)))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK, err
            peaks.append(peak)
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_bookkeeping_does_not_grow_with_frames(self, tmp_path, capsys, monkeypatch):
        """With the light stubbed out, what a run keeps besides its traces
        shows: no frame list, no accepted frames, no receive history."""
        light = OpticalTrace(1.0, ())  # no text waits in the trace files' buffers

        def cheap_runs(frames, link, noise, rx_program=None):
            for frame in frames:
                yield light, light, mac.ValidationResult(True, frame, None)

        monkeypatch.setattr(diode, "link_frames", cheap_runs)
        peaks = []
        for frames in (1_000, 10_000):
            tracemalloc.start()
            try:
                code, _, err = run(capsys, "diode", "--frames", str(frames),
                                   "--out", str(tmp_path / str(frames)))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK, err
            peaks.append(peak)
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_failure_mid_run_leaves_no_files(self, tmp_path, capsys):
        decode = diode.uart_decode
        calls = 0

        def fail_third(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise ValueError("decoder failed")
            return decode(*args, **kwargs)

        out = tmp_path / "d"
        with mock.patch("ledleak.diode.uart_decode", fail_third):
            code, stdout, err = run(capsys, "diode", "--frames", "5", "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert "decoder failed" in err
        assert list(out.iterdir()) == []


class TestExperimentConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus=1\n")
        from ledleak.errors import ConfigError
        with pytest.raises(ConfigError, match=r"^unknown config key 'bogus'$"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("flag", [cli._flag(key) for key in cli._FIELD_TYPES
                                      if cli._flag(key)[2:] != key])
    def test_flag_name_as_key_names_the_key(self, tmp_path, flag):
        key = flag[2:]
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key}=1\n")
        wanted = "emanation_class" if key == "class" else key.replace("-", "_")
        with pytest.raises(ConfigError, match=(f"^unknown config key '{key}' "
                                               f"\\(the key for {flag} is '{wanted}'\\)$")):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("line", ["seed=abc", "sigma=0.1.2", "frames=1.5"])
    def test_bad_value_names_key_value_and_file(self, tmp_path, capsys, line):
        path = tmp_path / "exp.cfg"
        path.write_text(f"# comment\n{line}\n")
        key, _, value = line.partition("=")
        code, stdout, err = run(capsys, "synth", "--config", str(path),
                                "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert repr(key) in err and repr(value) in err and str(path) in err

    def test_config_file_drives_synth(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(f"seed=3\nemanation_class=III\ndata=FROMCFG\nout={tmp_path / 'o'}\n")
        code, _, _ = run(capsys, "synth", "--config", str(path))
        assert code == EXIT_OK
        code, stdout, _ = run(capsys, "recover",
                              str(tmp_path / "o" / "trace.optrace"), "--baud", "9600")
        assert bytes.fromhex(json.loads(stdout)["octets_hex"]) == b"FROMCFG"

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(f"data=CFGDATA\nout={tmp_path / 'o'}\n")
        run(capsys, "synth", "--config", str(path), "--data", "FLAGDATA")
        code, stdout, _ = run(capsys, "recover",
                              str(tmp_path / "o" / "trace.optrace"), "--baud", "9600")
        assert bytes.fromhex(json.loads(stdout)["octets_hex"]) == b"FLAGDATA"


class TestInputContract:
    """Bad flags end in exit 1 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("rate", ["inf", "nan", "0"])
    def test_bad_sample_rate_exits_config(self, tmp_path, capsys, rate):
        out = tmp_path / "s"
        code, stdout, err = run(capsys, "synth", "--sample-rate", rate, "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert "sample_rate" in err
        assert not out.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 8.00 MiB"), "Unable to allocate 8.00 MiB"),
    ])
    def test_memory_error_exits_config(self, tmp_path, capsys, exc, message):
        out = tmp_path / "s"
        with mock.patch("ledleak.emanation._led_samples", side_effect=exc):
            code, stdout, err = run(capsys, "synth", "--out", str(out))
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_sample_count_over_cap_exits_config(self, tmp_path, capsys):
        # SECRET at 9600 baud lasts over 6.25 ms, so this is over the cap.
        rate = repr(1.01 * MAX_SAMPLES / 6.25e-3)
        out = tmp_path / "s"
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "synth", "--sample-rate", rate, "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert f"sample_rate {rate} Hz exceeds the cap of {MAX_SAMPLES} samples" in err
        assert not out.exists()
        assert peak < 1 << 20

    def test_sweep_row_over_cap_exits_config(self, tmp_path, capsys):
        # The unstretched row alone would take ~5 MiB; the 2 s one is over
        # the cap, so the sweep must refuse before it makes any row.
        out = tmp_path / "s"
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "sweep-stretch", "--stretch-us", "0,2e6",
                                    "--sample-rate", "1e8", "--sigma", "0.01",
                                    "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert_one_error_line(err)
        assert err.startswith("error: duration ")
        assert err.endswith(f" s x sample_rate 100000000.0 Hz exceeds the cap of "
                            f"{MAX_SAMPLES} samples per trace\n")
        assert not out.exists()
        assert peak < 1 << 20

    @pytest.mark.parametrize("command", ["synth", "diode"])
    def test_infinite_baud_exits_config(self, tmp_path, capsys, command):
        out = tmp_path / "s"
        code, stdout, err = run(capsys, command, "--baud", "inf", "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert "baud" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--baud", "1e-308"],
         "argument --baud: baud must give a finite frame time, got 1e-308"),
        (["diode", "--baud", "1e-308"],
         "argument --baud: baud must give a finite frame time, got 1e-308"),
        (["synth", "--baud", "1e-306", "--data-hex", "ab" * 1024],
         "1024 octets at baud 1e-306 overflow the line's duration"),
    ])
    def test_tiny_baud_is_one_error_line_naming_it(self, tmp_path, capsys, argv, message):
        out = tmp_path / "s"
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning would print a line of its own
            code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout, err) == (EXIT_CONFIG, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["synth", "--class", "II", "--window-ms", "inf"], "activity_window"),
        (["synth", "--gap-ms", "inf", "--data", "AB"], "idle_between_octets"),
        (["sweep-stretch", "--stretch-us", "inf"], "pulse_stretch"),
        (["sweep-stretch", "--stretch-us", "nan,0"], "pulse_stretch"),
    ])
    def test_non_finite_time_exits_config(self, tmp_path, capsys, argv, field):
        out = tmp_path / "s"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "diode"])
    @pytest.mark.parametrize("flag, field", [("--sigma", "gaussian_sigma"),
                                             ("--offset", "ambient_offset")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_exits_config(self, tmp_path, capsys, command, flag, field, value):
        out = tmp_path / "s"
        code, stdout, err = run(capsys, command, flag, value, "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recover", "classify"])
    @pytest.mark.parametrize("body, line", [(b"0.5\n1 2\n", "line 3: expected one decimal "
                                             "number, got '1 2'"),
                                            (b"0.5\r\n\xff\r\n", "line 3: expected one "
                                             "decimal number, got '\\udcff'")])
    def test_bad_trace_line_exits_config(self, tmp_path, capsys, command, body, line):
        path = tmp_path / "t.optrace"
        path.write_bytes(b"# optrace v1 sample_rate_hz=1000.0 origin_s=0.0\n" + body)
        code, stdout, err = run(capsys, command, str(path))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert f"error: {path}, {line}" in err

    @pytest.mark.parametrize("command", ["recover", "classify"])
    def test_events_file_is_not_a_trace(self, tmp_path, capsys, command):
        """The ground truth ``synth`` writes is refused where a trace goes."""
        out = tmp_path / "run"
        run(capsys, "synth", "--class", "III", "--data", "x", "--seed", "1", "--out", str(out))
        path = out / "events.optevents"
        code, stdout, err = run(capsys, command, str(path))
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == f"error: {path}: not a '# optrace v1' file\n"

    def test_classify_baud_auto_exits_config(self, tmp_path, capsys):
        path = tmp_path / "t.optrace"
        write_trace(path, OpticalTrace(1e4, np.linspace(0.0, 1.0, 8)))
        code, stdout, err = run(capsys, "classify", str(path), "--baud", "auto")
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert "baud 'auto' is only valid for the recover subcommand" in err

    @pytest.mark.parametrize("argv", [
        ["mac", "build", "--src", "01"],
        ["synth", "--bogus"],
        ["synth", "--sigma", "abc"],
        ["frobnicate"],
        [],
    ])
    def test_usage_error_exits_config(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mac", "build", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ledleak mac build")


# ---------------------------------------------------------------------------
# Fuzz: every input ends in an exit code and at most one error line
# ---------------------------------------------------------------------------

_HEX = "0123456789abcdefABCDEF"
#: Not hex: signs, an underscore, spaces (one an em space), letters (one
#: fullwidth) and Unicode digits (an Arabic-Indic three, a fullwidth five),
#: which ``int(c, 16)`` takes.
_NEAR_HEX = "+-_xg \t\u2003\uff44\u0663\u0663\u0663\uff15\uff15\uff15"

#: Values per flag and config key. Durations stay below ~20 ms, so a trace
#: holds at most a few tens of thousands of samples, except where the
#: sample count is far over ``MAX_SAMPLES`` and nothing may be allocated.
_FLAG_VALUES = {
    "--seed": ["0", "7", "-1", "18446744073709551616", "x"],
    "--class": ["I", "II", "III", "IV"],
    "--baud": ["9600", "115200", "auto", "0", "-9600", "inf", "nan", "x",
               "\u0669\u0666\u0660\u0660"],
    "--data": ["SECRET", "", "A", "\u00e9t\u00e9", "\udcff"],
    "--data-hex": ["", "4142", "zz", "414", "\u0663\u0663", "41 42"],
    "--sigma": ["0", "0.05", "-1", "nan", "inf", "x"],
    "--offset": ["0", "0.01", "nan", "-inf"],
    "--sample-rate": ["1e5", "1e6", "0", "-1", "nan", "inf", "2e13", "1e300"],
    "--window-ms": ["10", "0", "1", "-1", "nan", "inf", "1e12"],
    "--gap-ms": ["0", "1", "-1", "nan", "inf", "1e12"],
    "--stretch-us": ["0", "0,104.1667", "104.1667,0", "", "inf", "nan,0", "-1", "x,1", "1e15"],
    "--hysteresis": ["0.2", "0", "0.5", "-1", "nan", "x"],
    "--frames": ["0", "1", "-1", "x"],
    "--attenuation": ["0.8", "0", "1", "-1", "nan", "x"],
    "--abort-at": ["16", "0", "-1", "60", "x"],
    "--dst": ["aa:bb:cc:dd:ee:ff", "1:2:3:4:5:6", "aa:bb", "aa:bb:cc:dd:ee:100",
              "aa:bb:cc:dd:ee:\u0663"],
    "--src": ["11:22:33:44:55:66", "x"],
    "--ethertype": ["0800", "86dd", "10000", "-1", "0x800", "\u0660\u0668\u0660\u0660", "", "zz"],
    "--payload": ["", "hello", "\udcff"],
    "--payload-hex": ["", "00ff", "zz", "0"],
}
#: Subcommands, their positionals and the flags each one takes.
_COMMANDS = {
    ("synth",): ["--seed", "--class", "--baud", "--data", "--data-hex", "--sigma", "--offset",
                 "--sample-rate", "--window-ms", "--gap-ms"],
    ("recover", "{dir}/t.optrace"): ["--seed", "--baud", "--hysteresis"],
    ("classify", "{dir}/t.optrace"): ["--seed", "--data", "--data-hex", "--baud", "--gap-ms",
                                      "--window-ms", "--hysteresis"],
    ("sweep-stretch",): ["--stretch-us", "--seed", "--baud", "--data", "--data-hex", "--sigma",
                         "--sample-rate"],
    ("diode", "--frames", "1"): ["--seed", "--frames", "--baud", "--attenuation", "--sigma",
                                 "--offset"],
    ("mac", "build"): ["--dst", "--src", "--ethertype", "--payload", "--payload-hex"],
    ("mac", "abort"): ["--abort-at"],
    ("frobnicate",): [],
    (): [],
}
_MAC_BUILD = ["mac", "build", "--dst", "aa:bb:cc:dd:ee:ff", "--src", "1:2:3:4:5:6"]
_CONFIG_KEYS = {f.name: "--" + f.name.replace("_", "-")
                for f in dataclasses.fields(ExperimentConfig)}
_CONFIG_KEYS["emanation_class"] = "--class"


def _near_hex(draw, text: str) -> str:
    """``text``, or half the time ``text`` with one character replaced by
    one that is not hex, though ``int(s, 16)`` takes some of them."""
    c = draw(st.sampled_from([None] * len(_NEAR_HEX) + list(_NEAR_HEX)))
    if not text or c is None:
        return text
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + c + text[i + 1:]


@st.composite
def _hexish(draw) -> str:
    """Nibble strings and hex dumps, sometimes with a character that is not hex."""
    octets = draw(st.lists(st.text(_HEX, min_size=2, max_size=2), max_size=70))
    text = draw(st.sampled_from([" ".join(octets), "".join(octets),
                                 "55" * 8 + "5d" + "".join(octets)]))
    return _near_hex(draw, text)


def _stream_accepted(text: str) -> bool:
    """The documented stream grammar: a hex dump (two hex digits per octet,
    whitespace between) or one nibble per hex digit."""
    text = text.strip()
    if not text:
        return False
    if any(c.isspace() for c in text):
        return all(re.fullmatch("[0-9a-fA-F]{2}", p) for p in text.split())
    return re.fullmatch("[0-9a-fA-F]+", text) is not None


@st.composite
def _optrace_body(draw) -> bytes:
    rate = draw(st.sampled_from(["76800.0", "76800.0", "1e6", "0", "-1", "nan", "inf", "x", ""]))
    origin = draw(st.sampled_from(["0.0", "0.0", "-0.001", "1.0", "nan", "x"]))
    good = f"# optrace v1 sample_rate_hz={rate} origin_s={origin}"
    header = draw(st.sampled_from([good, good, good, f"# optrace v1 sample_rate_hz={rate}",
                                   f"# optevents v1 initial=0 duration_s={rate}", ""]))
    if draw(st.booleans()):  # an idle-mark line, 8 samples per bit at 9600 baud and 76.8 kHz
        bits = draw(st.lists(st.integers(0, 1), max_size=40))
        lines = [str(b) for b in [1] * 8 + [b for b in bits for _ in range(8)]]
    else:
        lines = draw(st.lists(st.sampled_from(
            ["0", "1", "0.5", "-0.5", "1e-3", "nan", "inf", "x", "", "  ", "1 2", "\u0661",
             "1_0", "0x1p0", "#"]),
            max_size=60))
    body = draw(st.sampled_from(["\n", "\r\n", "\r"])).join([header, *lines]).encode()
    return body + draw(st.sampled_from([b"", b"", b"\n", b"\n", b"\xff\n"]))


@st.composite
def _config_body(draw) -> bytes:
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        key = draw(st.sampled_from([*_CONFIG_KEYS, "bogus"]))
        values = _FLAG_VALUES.get(_CONFIG_KEYS.get(key, ""), ["1"])
        lines.append(draw(st.sampled_from([
            f"{key}={draw(st.sampled_from(values))}", f" {key} = 1 ", "novalue", "=1", "# x", ""])))
    return "\n".join(lines).encode("utf-8", "surrogateescape")  # "\udcff" is the byte 0xff


@st.composite
def cli_cases(draw):
    """``(argv, files, expected_code)``: ``{dir}`` in argv is the directory
    that ``files`` (name to bytes) are written to."""
    files = {"t.optrace": draw(_optrace_body())}
    kind = draw(st.sampled_from(["argv", "argv", "argv", "stream", "stream", "ethertype"]))
    if kind == "ethertype":
        text = _near_hex(draw, draw(st.text(_HEX, min_size=1, max_size=5)))
        ok = re.fullmatch("[0-9a-fA-F]+", text) and int(text, 16) <= 0xFFFF
        return _MAC_BUILD + ["--ethertype", text], files, EXIT_OK if ok else EXIT_CONFIG
    if kind == "stream":
        text = draw(_hexish())
        action = draw(st.sampled_from(["validate", "peek", "abort"]))
        argv = ["mac", action, text]
        if action == "abort":
            return argv + ["--abort-at", draw(st.sampled_from(["16", "60", "x"]))], files, None
        return argv, files, EXIT_OK if _stream_accepted(text) else EXIT_CONFIG
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(command)
    flags = _COMMANDS[command]
    if not flags or draw(st.sampled_from([False] * 9 + [True])):
        flags = sorted(_FLAG_VALUES)  # flags another subcommand takes, too
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    if draw(st.booleans()):
        files["c.cfg"] = draw(_config_body())
        argv += ["--config", draw(st.sampled_from(["{dir}/c.cfg", "{dir}/missing.cfg"]))]
    if command[:1] in (("synth",), ("sweep-stretch",), ("diode",)):
        argv += ["--out", "{dir}/out"]
    if command == ("mac", "abort"):
        argv.insert(2, draw(_hexish()))
    extra = draw(st.sampled_from([None] * 9 + ["-h", "--bogus", "a\nb"]))
    if extra:
        argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv, files, None


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main`` as the console script runs it; any exception but the
    ``SystemExit`` of ``--help`` propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO("")), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a separate channel, not error lines
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCliFuzz:
    @settings(max_examples=120, deadline=None)
    @given(cli_cases())
    @example(case=(["mac", "validate", "\u0663\u0663"], {}, EXIT_CONFIG))
    @example(case=(["mac", "validate", "+1 0f"], {}, EXIT_CONFIG))
    @example(case=(_MAC_BUILD + ["--ethertype", "\u0660\u0668\u0660\u0660"], {}, EXIT_CONFIG))
    @example(case=(["synth", "--sample-rate", "2e13", "--out", "{dir}/out"], {}, EXIT_CONFIG))
    @example(case=(["sweep-stretch", "--stretch-us", "0", "--sample-rate", "1e300",
                    "--out", "{dir}/out"], {}, EXIT_CONFIG))
    @example(case=(["synth", "a\nb"], {}, EXIT_CONFIG))
    def test_every_input_ends_in_an_exit_code(self, case):
        """Exit 0-3, never a traceback, and on failure exactly one stderr line,
        starting ``error:``. Streams exit 0 iff they follow the grammar."""
        argv, files, expected = case
        with tempfile.TemporaryDirectory() as d:
            for name, body in files.items():
                Path(d, name).write_bytes(body)
            code, _, err = _run_main([a.replace("{dir}", d) for a in argv])
        event(f"{argv[:2] if argv[:1] == ['mac'] else argv[:1]} exit {code}")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NO_SIGNAL, EXIT_ONE_WAY)
        if code == EXIT_OK:
            assert err == ""
        else:
            assert_one_error_line(err)
        if expected is not None:
            assert code == expected, err


@st.composite
def _extreme_trace(draw) -> bytes:
    """An optrace file of samples from the whole finite double range; half
    the time a two-level line of 8-sample bits (9600 baud at 76.8 kHz)."""
    rate = draw(st.sampled_from(["1.0", "76800.0", "1e6"]))
    value = st.floats(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        levels = (draw(value), draw(value))
        bits = draw(st.lists(st.integers(0, 1), max_size=40))
        samples = [levels[b] for b in [1] * 8 + [b for b in bits for _ in range(8)]]
    else:
        samples = draw(st.lists(value, max_size=60))
    header = f"# optrace v1 sample_rate_hz={rate} origin_s=0.0\n"
    return (header + "".join(f"{v!r}\n" for v in samples)).encode()


def _bits_trace(rate: float, low: float, high: float) -> bytes:
    """An optrace file alternating ``low`` and ``high`` 8 samples at a time, 20 times."""
    body = "".join(f"{v!r}\n" for v in ([low] * 8 + [high] * 8) * 20)
    return f"# optrace v1 sample_rate_hz={rate!r} origin_s=0.0\n{body}".encode()


_ANALYSES = [["recover", "--baud", "9600"], ["recover", "--baud", "auto"], ["classify"]]


class TestExtremeTraces:
    @settings(max_examples=150, deadline=None)
    @given(_extreme_trace(), st.sampled_from(_ANALYSES))
    @example(_bits_trace(1.0, 0.0, 2e154), ["classify"])
    @example(_bits_trace(76800.0, -1.5e308, -1.2e308), ["recover", "--baud", "9600"])
    @example(_bits_trace(76800.0, -2.0 ** formats.MAX_SAMPLE_EXPONENT,
                         2.0 ** formats.MAX_SAMPLE_EXPONENT), ["classify"])
    @example(_bits_trace(1e6, 0.0, 5e-324), ["recover", "--baud", "auto"])
    def test_any_finite_samples_end_in_an_exit_code(self, body, command):
        """Exit 0 with one JSON line, or 1 or 2 with one ``error:`` line; no
        traceback and no ``warning:`` line, whatever the finite samples."""
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            Path(d, "t.optrace").write_bytes(body)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")  # main prints each as a warning: line
                code = main([*command, str(Path(d, "t.optrace"))])
        if code == EXIT_OK:
            assert err.getvalue() == "" and len(out.getvalue().splitlines()) == 1
            json.loads(out.getvalue())
        else:
            assert code in (EXIT_CONFIG, EXIT_NO_SIGNAL) and out.getvalue() == ""
            assert_one_error_line(err.getvalue())

    @pytest.mark.parametrize("command", _ANALYSES)
    def test_samples_beyond_the_bound_name_the_file(self, tmp_path, capsys, command):
        e = formats.MAX_SAMPLE_EXPONENT
        edge = 2.0 ** e
        path = tmp_path / "t.optrace"
        path.write_bytes(_bits_trace(76800.0, -edge, edge))
        assert run(capsys, *command, str(path))[0] == EXIT_OK
        for low, high in [(0.0, float(np.nextafter(edge, np.inf))),
                          (float(np.nextafter(-edge, -np.inf)), 0.0)]:
            path.write_bytes(_bits_trace(76800.0, low, high))
            assert run(capsys, *command, str(path)) == (
                EXIT_CONFIG, "", f"error: {path}: samples must lie within [-2**{e}, 2**{e}]\n")


def _run_showing_warnings(capsys, *argv) -> tuple[int, str, str]:
    """``run``, with each warning printed as a ``warning:`` line as outside tests."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        return run(capsys, *argv)


_DIODE_2 = ('{"emitter_trace_digest": '
            '"d9f9a2aa8a64c9651ba05209ce2fb2c7df05557448b14032e1dc80e70b87002f", '
            '"frames_accepted": 0, "frames_rejected": 2, "frames_sent": 2, '
            '"reject_reasons": {"no_sfd": 2}}\n')


class TestOverflowingValues:
    """Finite values whose products overflow a double: one outcome each, no
    ``warning:`` line."""

    @pytest.mark.parametrize("offset", ["1e308", "-1e308"])
    def test_huge_offset_clamps_the_node(self, tmp_path, capsys, offset):
        argv = ("diode", "--frames", "2", f"--offset={offset}", "--out", str(tmp_path / "d"))
        assert _run_showing_warnings(capsys, *argv) == (EXIT_OK, _DIODE_2, "")

    def test_huge_offset_wired_back(self, tmp_path, capsys):
        argv = ("diode", "--frames", "2", "--offset", "1e308", "--wired-back",
                "--out", str(tmp_path / "d"))
        assert _run_showing_warnings(capsys, *argv) == (
            EXIT_ONE_WAY, _DIODE_2, "error: unidirectionality violation under "
            "flood_receive_buffers: d9f9a2aa8a64c965 != 26e4c5c63b6df7b5\n")

    @pytest.mark.parametrize("argv, duration, rate", [
        (("diode", "--frames", "1", "--baud", "1e-21"), "7.21e+23", "1.6e-20"),
        (("diode", "--frames", "1", "--baud", "1e-300"), "7.21e+302", "1.6e-299"),
        (("synth", "--class", "III", "--data-hex", "00", "--baud", "1e-24",
          "--sample-rate", "1.6e-23"), "1.1e+25", "1.6e-23"),
    ])
    def test_tiny_baud_names_the_cause(self, tmp_path, capsys, argv, duration, rate):
        out = tmp_path / "o"
        assert _run_showing_warnings(capsys, *argv, "--out", str(out)) == (
            EXIT_CONFIG, "", f"error: a {duration} s line sampled at {rate} Hz puts samples "
            "too far before their edges: the LED response overflows\n")


class TestNegativeExponentValues:
    """An option that takes one value, named in full or abbreviated, and a
    following number is that option's value, also in exponent form:
    argparse alone takes ``-1e-3`` for an option."""

    @pytest.mark.parametrize("argv, joined", [
        (("synth", "--offset", "-1e-3"), ("synth", "--offset=-1e-3")),
        (("synth", "--offset", "-1E-3", "--sigma", "0.01"), ("synth", "--offset=-1E-3",
                                                             "--sigma=0.01")),
        (("diode", "--frames", "1", "--offset", "-1e-3"), ("diode", "--frames", "1",
                                                           "--offset=-1e-3")),
        (("synth", "--off", "-1e-3"), ("synth", "--offset=-1e-3")),
    ])
    def test_same_run_as_the_equals_form(self, tmp_path, capsys, monkeypatch, argv, joined):
        monkeypatch.chdir(tmp_path)
        got = run(capsys, *argv, "--out", "a"), dir_bytes(tmp_path / "a")
        want = run(capsys, *joined, "--out", "b"), dir_bytes(tmp_path / "b")
        assert got[0][0] == EXIT_OK and got[0][2] == ""
        assert (got[0][1].replace("a/", "b/"), got[1]) == (want[0][1], want[1])

    @pytest.mark.parametrize("argv, err", [
        # Failed before with "expected one argument"; now the value is checked.
        (("synth", "--sigma", "-1e-3"),
         "error: argument --sigma: gaussian_sigma must be >= 0 and finite, got -0.001\n"),
        (("synth", "--offset", "-inf"),
         "error: argument --offset: ambient_offset must be finite, got -inf\n"),
        (("sweep-stretch", "--stretch-us", "-1e3"),
         "error: argument --stretch-us: pulse_stretch must be >= 0 and finite, got -0.001\n"),
        (("synth", "--seed", "-1e3"), "error: argument --seed: expected int, got '-1e3'\n"),
        # Not joined: no number, a flag that takes no value, a flag of another command.
        (("synth", "--offset", "-1e-3x"),
         "error: ledleak synth: argument --offset: expected one argument\n"),
        (("synth", "--offset", "--out", "o"),
         "error: ledleak synth: argument --offset: expected one argument\n"),
        (("diode", "--wired-back", "-1e-3"), "error: ledleak: unrecognized arguments: -1e-3\n"),
        # A ``mac`` value flag is joined too; its value is then refused by its own type.
        (("mac", "abort", "--abort-at", "-1e3", "0055"),
         "error: ledleak mac abort: argument --abort-at: invalid int value: '-1e3'\n"),
        (("mac", "abort", "--abort", "-1e3", "0055"),
         "error: ledleak mac abort: argument --abort-at: invalid int value: '-1e3'\n"),
        (("diode", "--wired-back", "-1", "--frames", "0"),
         "error: ledleak: unrecognized arguments: -1\n"),
        (("diode", "--wired", "-1e-3"), "error: ledleak: unrecognized arguments: -1e-3\n"),
        # Ambiguous prefixes stay as given, for argparse to refuse.
        (("synth", "--s", "-1e-3"),
         "error: ledleak synth: ambiguous option: --s could match --seed, --sigma, "
         "--sample-rate\n"),
        (("recover", "t.optrace", "--h", "0.3"),
         "error: ledleak recover: ambiguous option: --h could match --help, --hysteresis\n"),
    ])
    def test_errors(self, tmp_path, capsys, monkeypatch, argv, err):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (EXIT_CONFIG, "", err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, joined", [
        (("synth", "--off", "-1e-3"), ("synth", "--off=-1e-3")),
        (("synth", "--sa", "-1e3"), ("synth", "--sa=-1e3")),
        (("synth", "--data", "1e3"), ("synth", "--data=1e3")),
        (("classify", "t", "--w", "-1e-3"), ("classify", "t", "--w=-1e-3")),
        (("recover", "t", "--hy", "-1e-3"), ("recover", "t", "--hy=-1e-3")),
        (("mac", "abort", "--abort", "-1e3", "0055"), ("mac", "abort", "--abort=-1e3", "0055")),
        (("mac", "build", "--payload-h", "00"), ("mac", "build", "--payload-h=00")),
        # Not joined: a flag that takes no value, an ambiguous prefix, an option
        # of another command.
        (("synth", "--he", "1"), ("synth", "--he", "1")),
        (("diode", "--w", "-1e-3"), ("diode", "--w", "-1e-3")),
        (("mac", "build", "--pay", "-1e3"), ("mac", "build", "--pay", "-1e3")),
        (("synth", "--payload", "-1e3"), ("synth", "--payload", "-1e3")),
        (("mac", "build", "--offset", "-1e3"), ("mac", "build", "--offset", "-1e3")),
    ])
    def test_joined(self, argv, joined):
        assert cli._joined(build_parser(), list(argv)) == list(joined)

    @pytest.mark.parametrize("command", ["synth", "recover", "classify", "sweep-stretch",
                                         "diode", "mac build", "mac abort"])
    def test_every_value_option_is_joined(self, command):
        words = command.split()
        for flag in sorted(_OPTION_STRINGS[command]):
            if flag.startswith("-") and flag not in ("-h", "--help", "--wired-back"):
                assert cli._joined(build_parser(), [*words, flag, "-1e-3"]) == [
                    *words, flag + "=-1e-3"]

    def test_negative_payload_builds_a_frame(self, capsys):
        argv = ("mac", "build", "--dst", "aa:bb:cc:dd:ee:ff", "--src", "11:22:33:44:55:66")
        frame = mac.build_frame(bytes.fromhex("aabbccddeeff"), bytes.fromhex("112233445566"),
                                0x0800, b"-1e3")
        assert run(capsys, *argv, "--payload", "-1e3") == (
            EXIT_OK, formats.octets_to_hexline(frame.serialize()) + "\n", "")


class TestCollapsedBitCells:
    """A gap so long that the last octet's bit cells round onto one instant
    is one error naming the octets, the baud and the gap."""

    _ERR = ("error: 2 octets at baud 9600.0 with 100000000000000.0 s between octets "
            "put bit cells on one instant\n")

    def test_synth(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "synth", "--gap-ms", "1e17", "--data", "AB", "--out", "o") == (
            EXIT_CONFIG, "", self._ERR)
        assert not (tmp_path / "o").exists()

    def test_classify_reference(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "synth", "--data", "AB", "--out", "o")[0] == EXIT_OK
        assert run(capsys, "classify", "o/trace.optrace", "--gap-ms", "1e17", "--data", "AB") == (
            EXIT_CONFIG, "", self._ERR)


# ---------------------------------------------------------------------------
# One cast for flags and config files, and the flag set each subcommand takes
# ---------------------------------------------------------------------------

#: ``(command, flag, value)``: values each subcommand taking the flag rejects.
_BAD_VALUES = [
    *[(c, "--baud", "x") for c in ("synth", "recover", "classify", "sweep-stretch", "diode")],
    *[(c, "--baud", "auto") for c in ("synth", "classify", "sweep-stretch", "diode")],
    *[(c, "--sigma", "abc") for c in ("synth", "sweep-stretch", "diode")],
    ("diode", "--frames", "1.5"),
    ("synth", "--class", "IV"),
    ("recover", "--hysteresis", "x"),
    ("classify", "--window-ms", "x"),
    ("sweep-stretch", "--stretch-us", "x,1"),
    ("synth", "--data-hex", "zz"),
]
_TRACE_ARG = {"recover", "classify"}
#: ``(command, key, value, message)``: values out of the range of the model
#: the key configures; ``recover`` does not use ``seed`` but checks it too.
_RANGE_ERRORS = [
    ("synth", "sample_rate", "0", "sample_rate must be positive and finite, got 0.0"),
    ("synth", "gap_ms", "-1", "idle_between_octets must be >= 0 and finite, got -0.001"),
    ("diode", "attenuation", "2", "channel_attenuation must be in [0, 1], got 2.0"),
    ("recover", "seed", "-1", "seed must fit in 64 bits, got -1"),
    ("synth", "sigma", "nan", "gaussian_sigma must be >= 0 and finite, got nan"),
    ("recover", "hysteresis", "0.7", "hysteresis_fraction must be in [0, 0.5), got 0.7"),
    ("classify", "hysteresis", "nan", "hysteresis_fraction must be in [0, 0.5), got nan"),
    ("classify", "hysteresis", "0.5", "hysteresis_fraction must be in [0, 0.5), got 0.5"),
    ("recover", "hysteresis", "-0.1", "hysteresis_fraction must be in [0, 0.5), got -0.1"),
    ("recover", "hysteresis", "inf", "hysteresis_fraction must be in [0, 0.5), got inf"),
]


class TestOneCast:
    """Flag and ``--config`` values are cast and checked alike, before any
    trace is read: the trace path given here does not exist."""

    def argv(self, tmp_path, command):
        trace = [str(tmp_path / "missing.optrace")] if command in _TRACE_ARG else []
        return [command, *trace, "--out", str(tmp_path / "o")]

    @pytest.mark.parametrize("command, flag, value", _BAD_VALUES)
    def test_bad_flag_names_flag_and_value(self, tmp_path, capsys, command, flag, value):
        code, stdout, err = run(capsys, *self.argv(tmp_path, command), flag, value)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert f"argument {flag}: " in err and repr(value) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, value", _BAD_VALUES)
    def test_bad_file_value_names_key_value_and_file(self, tmp_path, capsys,
                                                      command, flag, value):
        key = "emanation_class" if flag == "--class" else flag[2:].replace("-", "_")
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key}={value}\n")
        code, stdout, err = run(capsys, *self.argv(tmp_path, command), "--config", str(path))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert f"config key {key!r} in {path}: " in err and repr(value) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, value, message", _RANGE_ERRORS)
    def test_range_error_names_flag(self, tmp_path, capsys, command, key, value, message):
        flag = "--" + key.replace("_", "-")
        code, stdout, err = run(capsys, *self.argv(tmp_path, command), flag, value)
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == f"error: argument {flag}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, value, message", _RANGE_ERRORS)
    def test_range_error_names_file(self, tmp_path, capsys, command, key, value, message):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key}={value}\n")
        code, stdout, err = run(capsys, *self.argv(tmp_path, command), "--config", str(path))
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == f"error: config key {key!r} in {path}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_key_the_subcommand_does_not_use_is_checked(self, tmp_path, capsys):
        """``synth`` has no ``--hysteresis`` flag but checks the key in a file."""
        path = tmp_path / "exp.cfg"
        path.write_text("hysteresis=0.9\n")
        code, stdout, err = run(capsys, *self.argv(tmp_path, "synth"), "--config", str(path))
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == (f"error: config key 'hysteresis' in {path}: "
                       "hysteresis_fraction must be in [0, 0.5), got 0.9\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [0.0, 0.4999])
    def test_hysteresis_check_takes_the_range(self, value):
        cli._CHECKS["hysteresis"](value)

    def test_every_key_but_paths_and_text_is_checked(self):
        assert set(cli._FIELD_TYPES) - set(cli._CHECKS) == {"out", "data"}

    def test_class_takes_the_config_file_spellings(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "synth", "--class", "III", "--out", str(a))[0] == EXIT_OK
        assert run(capsys, "synth", "--class", "content", "--out", str(b))[0] == EXIT_OK
        assert dir_bytes(a) == dir_bytes(b)


#: Every option string (and positional) each subparser takes. The five
#: experiment subcommands also take ``-h``, ``--config``, ``--seed`` and ``--out``.
_OPTION_STRINGS = {
    "synth": {"--class", "--baud", "--data", "--data-hex", "--sigma", "--offset",
              "--sample-rate", "--window-ms", "--gap-ms"},
    "recover": {"trace_file", "--baud", "--hysteresis"},
    "classify": {"trace_file", "--data", "--data-hex", "--baud", "--gap-ms", "--window-ms",
                 "--hysteresis"},
    "sweep-stretch": {"--baud", "--data", "--data-hex", "--sigma", "--sample-rate",
                      "--stretch-us"},
    "diode": {"--frames", "--baud", "--attenuation", "--sigma", "--offset", "--wired-back"},
}
_OPTION_STRINGS = {name: flags | {"-h", "--help", "--config", "--seed", "--out"}
                   for name, flags in _OPTION_STRINGS.items()}
_OPTION_STRINGS.update({
    "mac build": {"-h", "--help", "--dst", "--src", "--ethertype", "--payload", "--payload-hex"},
    "mac validate": {"-h", "--help", "stream"},
    "mac peek": {"-h", "--help", "stream"},
    "mac abort": {"-h", "--help", "stream", "--abort-at"},
})


def _option_strings(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """Option strings and positionals of each leaf subparser, by command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix.strip(): {s for a in parser._actions for s in a.option_strings or [a.dest]}}
    return {command: strings for name, sub in subs[0].choices.items()
            for command, strings in _option_strings(sub, f"{prefix}{name} ").items()}


class TestFlagTable:
    def test_each_subcommand_takes_the_same_options(self):
        assert _option_strings(build_parser()) == _OPTION_STRINGS

    def test_fuzz_table_names_real_flags(self):
        for command, flags in _COMMANDS.items():
            name = " ".join(command[:2]) if command[:1] == ("mac",) else " ".join(command[:1])
            assert set(flags) <= _OPTION_STRINGS.get(name, set()), command

    @pytest.mark.parametrize("command", ["synth", "recover", "classify", "sweep-stretch", "diode"])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: ledleak {command} ")


#: A fresh interpreter records every ``ctypes.CDLL`` built while it imports
#: the package and its library modules, then while it imports ``cli``.
_CDLL_SPY = """
import ctypes, json
import numpy
made = []
class Spy(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        made.append(name)
        super().__init__(name, *args, **kwargs)
ctypes.CDLL = Spy
import ledleak, ledleak.signals, ledleak.emanation, ledleak.recovery
import ledleak.mac, ledleak.diode, ledleak.formats
library = list(made)
import ledleak.cli
print(json.dumps([library, made[len(library):]]))
"""


def test_only_the_command_pins_the_allocator():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _CDLL_SPY], env=env, capture_output=True,
                          text=True, check=True)
    linux = sys.platform.startswith("linux")
    assert (json.loads(done.stdout), done.stderr) == ([[], [None] if linux else []], "")


_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mapped_bytes() -> int:
    _LIBC.mallinfo2.argtypes = ()
    _LIBC.mallinfo2.restype = _Mallinfo2
    return _LIBC.mallinfo2().hblkhd


@pytest.mark.skipif(not hasattr(_LIBC, "mallinfo2"), reason="needs glibc 2.33 or later")
def test_trace_sized_array_mapped_after_one_freed():
    # Importing ``cli`` pinned the threshold. Unpinned, glibc would raise it
    # past 8 MiB on this free and serve the next array from the heap.
    first = np.ones(2**20)
    del first
    before = _mapped_bytes()
    second = np.ones(2**20)
    assert _mapped_bytes() - before >= second.nbytes
