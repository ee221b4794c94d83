import json

import pytest

from ledleak.cli import (
    EXIT_CONFIG,
    EXIT_NO_SIGNAL,
    EXIT_OK,
    EXIT_ONE_WAY,
    ExperimentConfig,
    main,
)
from ledleak.formats import read_events, read_trace, write_trace
from ledleak.signals import OpticalTrace

import numpy as np


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
        events = read_events(out / "events.optevents")
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

    def test_empty_list_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep-stretch", "--data", "x",
                           "--stretch-us", "")
        assert code == EXIT_CONFIG
        assert "stretch" in err

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

    def test_malformed_hex_error(self, capsys):
        code, _, err = run(capsys, "mac", "validate", "zz xx")
        assert code == EXIT_CONFIG
        assert "malformed" in err


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

    def test_negative_frames_exits_config(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, err = run(capsys, "diode", "--frames", "-1", "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == "error: frames must be >= 0\n"
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


class TestExperimentConfig:
    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=42, emanation_class="II", baud="19200",
                               sigma=0.25, stretch_us="0,10", frames=7)
        path = tmp_path / "exp.cfg"
        cfg.to_file(path)
        assert ExperimentConfig.from_file(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus=1\n")
        from ledleak.errors import ConfigError
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_config_file_drives_synth(self, tmp_path, capsys):
        cfg = ExperimentConfig(seed=3, emanation_class="III", data="FROMCFG",
                               out=str(tmp_path / "o"))
        path = tmp_path / "exp.cfg"
        cfg.to_file(path)
        code, _, _ = run(capsys, "synth", "--config", str(path))
        assert code == EXIT_OK
        code, stdout, _ = run(capsys, "recover",
                              str(tmp_path / "o" / "trace.optrace"), "--baud", "9600")
        assert bytes.fromhex(json.loads(stdout)["octets_hex"]) == b"FROMCFG"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = ExperimentConfig(data="CFGDATA", out=str(tmp_path / "o"))
        path = tmp_path / "exp.cfg"
        cfg.to_file(path)
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

    @pytest.mark.parametrize("command", ["synth", "diode"])
    def test_infinite_baud_exits_config(self, tmp_path, capsys, command):
        out = tmp_path / "s"
        code, stdout, err = run(capsys, command, "--baud", "inf", "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert_one_error_line(err)
        assert "baud" in err
        assert not out.exists()

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
