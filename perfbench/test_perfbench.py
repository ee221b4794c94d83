"""Tests of the benchmark itself, at reduced size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from ledleak import emanation, recovery  # noqa: E402

#: Shrinks each workload to a job of a fraction of a second.
SCALE = {"exfil_cli": 1 / 16, "diode_link": 0.05, "mac_burst": 0.02, "stretch_sweep": 1 / 8}


def declared(kind: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_workload_runs_once_and_passes_its_check(name, tmp_path):
    result, record = run.run(name, 5, 0, 0, scale=SCALE[name], setup_samples=1,
                             out_dir=tmp_path)
    assert result["correct"], record["problems"]
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["digest"]) == 64
    assert set(record["environment"]) == {"python", "numpy", "nproc", "cpu"}


def test_same_seed_gives_same_digest_and_other_seed_another(tmp_path):
    digests = [run.run("stretch_sweep", seed, 0, 0, scale=SCALE["stretch_sweep"],
                       setup_samples=1, out_dir=tmp_path)[1]["digest"]
               for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_traced_run_reproduces_digest_and_covers_job_time(tmp_path):
    original = emanation.led_transduce
    result, record = run.run("diode_link", 5, 0, 1, scale=SCALE["diode_link"],
                             setup_samples=1, out_dir=tmp_path)
    assert result["correct"], record["problems"]
    assert result["attempted"] == 2  # one untraced job, one traced
    metrics = result["metrics"]
    assert set(metrics) == declared("per_layer")
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["emanation.led_transduce.self_s"]["value"] > 0
    assert metrics["recovery.uart_decode.calls"]["value"] == 2 * 5
    assert metrics["diode.clean.accept_ratio"]["value"] == 1.0
    assert metrics["formats.write_trace.self_s"]["value"] == 0.0
    spans = (tmp_path / "diode_link.spans.jsonl").read_text().splitlines()
    assert json.loads(spans[0])[0] == "job"
    assert emanation.led_transduce is original  # tracing was uninstalled


def test_flipped_recovered_octet_counts_as_failed(tmp_path, monkeypatch):
    decode = recovery.decode_auto_polarity

    def flip_first_octet(events, cfg):
        result = decode(events, cfg)
        octets = bytes([result.octets[0] ^ 0x01]) + result.octets[1:]
        return dataclasses.replace(result, octets=octets)

    monkeypatch.setattr(recovery, "decode_auto_polarity", flip_first_octet)
    result, record = run.run("exfil_cli", 5, 0, 0, scale=SCALE["exfil_cli"],
                             setup_samples=1, out_dir=tmp_path)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert record["fail_ratio"] == 1.0
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    assert result["metrics"]["octets_per_s"]["value"] == 0.0
    assert any("recovered octets differ" in p for p in record["problems"])


def test_output_that_drifts_from_the_warm_up_counts_as_failed(tmp_path, monkeypatch):
    calls = []
    real_setup = run.setup

    def drifting_setup(*args):
        setup_s, workload, inputs, warm = real_setup(*args)
        real = workload.check

        def check(inputs, outputs):
            calls.append(1)
            outcome = real(inputs, outputs)
            outcome.digest = "0" * 64  # every timed job differs from the warm-up
            return outcome

        monkeypatch.setattr(workload, "check", check)
        return setup_s, workload, inputs, warm

    monkeypatch.setattr(run, "setup", drifting_setup)
    result, record = run.run("stretch_sweep", 5, 0, 0, scale=SCALE["stretch_sweep"],
                             setup_samples=1, out_dir=tmp_path)
    assert calls and not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "digest differs" in record["problems"][0]


def test_refuses_to_run_without_the_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mac_burst", "--seed", "1", "--seconds", "1"]) != 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
