"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from ledleak.cli import main, run_stretch_sweep
from ledleak.diode import (
    DiodeLink,
    WiredBackLink,
    assert_unidirectional,
    diode_send,
    flood_receive_buffers,
    standard_adversaries,
)
from ledleak.emanation import (
    DeviceProfile,
    DriveConfig,
    EmanationClass,
    LedModel,
    synthesize_class,
)
from ledleak.mac import (
    PipelineState,
    abort_transmission,
    build_frame,
    crc32_fcs,
    mii_marshal,
    validate_frame,
)
from ledleak.recovery import bit_error_rate, classify_trace, recover_data
from ledleak.signals import NoiseModel, SerialConfig

from oracles import crc32_bitserial_le


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _random_frames(rng: np.random.Generator, count: int, max_payload: int = 1500) -> list:
    frames = []
    for _ in range(count):
        dst = bytes(rng.integers(0, 256, size=6, dtype=np.uint8))
        src = bytes(rng.integers(0, 256, size=6, dtype=np.uint8))
        payload = rng.bytes(int(rng.integers(0, max_payload + 1)))
        frames.append(build_frame(dst, src, 0x0800, payload))
    return frames


class TestAcceptance:
    def test_criterion_1_closed_loop_classification(self):
        rng = np.random.default_rng(20260810)
        bauds = (4800.0, 9600.0, 19200.0, 38400.0)
        start = time.perf_counter()
        correct = {k: 0 for k in EmanationClass}
        per_class = 100
        for klass in (EmanationClass.STATE, EmanationClass.ACTIVITY, EmanationClass.CONTENT):
            for _ in range(per_class):
                baud = float(rng.choice(bauds))
                bit = 1.0 / baud
                led = LedModel(rise_time=float(rng.uniform(0.001, 0.02)) * bit,
                               fall_time=float(rng.uniform(0.001, 0.02)) * bit)
                data = rng.bytes(int(rng.integers(6, 17)))
                if klass is EmanationClass.ACTIVITY:
                    window = float(rng.uniform(0.005, 0.015))
                    serial = SerialConfig(baud=baud,
                                          idle_between_octets=float(rng.uniform(2.0, 4.0)) * window)
                    drive = DriveConfig(serial=serial, activity_window=window)
                elif klass is EmanationClass.CONTENT:
                    window = 0.010
                    serial = SerialConfig(baud=baud)
                    drive = DriveConfig(serial=serial)
                else:
                    window = 0.010
                    serial = SerialConfig(baud=baud)
                    lit = int(rng.integers(0, 2))
                    drive = DriveConfig(serial=serial,
                                        state_schedule=((0.0, lit),),
                                        state_duration=0.05)
                profile = DeviceProfile(klass, led, drive)
                trace = synthesize_class(profile, data, NoiseModel(), 16 * baud)
                assigned = classify_trace(trace, data, serial, window=window).assigned
                if assigned is klass:
                    correct[klass] += 1
        elapsed = time.perf_counter() - start
        ok = (correct[EmanationClass.STATE] >= 99
              and correct[EmanationClass.CONTENT] >= 99
              and correct[EmanationClass.ACTIVITY] >= 95
              and elapsed < 60.0)
        report(1, "closed-loop class recovery >=99%/95% per class in <60s", ok,
               f"I={correct[EmanationClass.STATE]}/100, "
               f"II={correct[EmanationClass.ACTIVITY]}/100, "
               f"III={correct[EmanationClass.CONTENT]}/100, {elapsed:.1f}s")

    def test_criterion_2_class_iii_exfiltration(self):
        rng = np.random.default_rng(2)
        payload = rng.bytes(1024)
        cfg = SerialConfig(baud=9600)
        profile = DeviceProfile(EmanationClass.CONTENT, LedModel(), DriveConfig(serial=cfg))
        start = time.perf_counter()
        trace = synthesize_class(profile, payload, NoiseModel(0.05, 0.01, 99), 1_000_000.0)
        recovered = recover_data(trace, cfg).octets
        ber = bit_error_rate(payload, recovered)
        elapsed = time.perf_counter() - start
        ok = ber == 0.0 and elapsed < 5.0
        report(2, "1 KiB exfiltrated at 9600 baud, 1 MHz, sigma 0.05 with BER 0 in <5s",
               ok, f"BER={ber}, {elapsed:.2f}s")

    def test_criterion_3_countermeasure_efficacy(self):
        rng = np.random.default_rng(3)
        data = rng.bytes(256)
        cfg = SerialConfig(baud=9600)
        bit = cfg.bit_time
        stretch = [0.0, 1 * bit, 2 * bit, 10 * bit, 480 * bit]
        assert stretch[-1] == pytest.approx(0.050)  # 50 ms, human-visibility scale
        rows = run_stretch_sweep(data, cfg, stretch, 16 * 9600, NoiseModel(seed=3))
        bers = [r["ber"] for r in rows]
        mis = [r["mi_bits"] for r in rows]
        eps = 1e-12
        ber_monotone = all(b2 >= b1 - eps for b1, b2 in zip(bers, bers[1:]))
        mi_monotone = all(m2 <= m1 + eps for m1, m2 in zip(mis, mis[1:]))
        ok = ber_monotone and mi_monotone and bers[0] == 0.0 and bers[-1] > 0.25
        report(3, "stretch sweep: BER non-decreasing, MI non-increasing, "
                  "BER 0 at 0 and >0.25 at 480 bit times", ok,
               f"BER={[round(b, 3) for b in bers]}, MI={[round(m, 3) for m in mis]}")

    def test_criterion_4_crc_oracle_equivalence(self):
        rng = np.random.default_rng(4)
        mismatches = 0
        for _ in range(10_000):
            data = rng.bytes(int(rng.integers(0, 65)))
            if crc32_fcs(data) != crc32_bitserial_le(data):
                mismatches += 1
        check = crc32_fcs(b"123456789") == (0xCBF43926).to_bytes(4, "little")
        ok = mismatches == 0 and check
        report(4, "table-driven CRC matches bit-serial oracle on 10,000 inputs "
                  "and the 0xCBF43926 check value", ok,
               f"mismatches={mismatches}, check_value={'ok' if check else 'bad'}")

    def test_criterion_5_mac_round_trip_and_abort(self):
        rng = np.random.default_rng(5)
        frames = _random_frames(rng, 1000)
        mismatches = 0
        false_accepts = 0
        for frame in frames:
            stream = mii_marshal(frame)
            result = validate_frame(stream)
            if not (result.accepted and result.frame.serialize() == frame.serialize()):
                mismatches += 1
            abort_at = int(rng.integers(16, len(stream) - 8 + 1))
            aborted = abort_transmission(stream, abort_at)
            verdict = validate_frame(aborted)
            if verdict.accepted or verdict.reason != "fcs_mismatch":
                false_accepts += 1
        ok = mismatches == 0 and false_accepts == 0
        report(5, "1,000 frame round trips with zero mismatches and 1,000 aborts "
                  "all rejected as fcs_mismatch", ok,
               f"mismatches={mismatches}, false_accepts={false_accepts}")

    def test_criterion_6_cut_through_ordering(self):
        ok = True
        details = []
        for size in (64, 128, 512, 1518):
            payload = bytes(size - 18)
            frame = build_frame(b"\x0a" * 6, b"\x0b" * 6, 0x0800, payload)
            assert frame.wire_length == size
            stream = mii_marshal(frame)
            state = PipelineState()
            first_payload_clock = None
            for i, nibble in enumerate(stream.nibbles, start=1):
                state.step(nibble)
                # payload region starts after preamble+SFD (16) + header (28)
                if first_payload_clock is None and i == 16 + 28 + 1:
                    first_payload_clock = i
            state.finish()
            dst_clock = state.fields_valid["dst"]
            fcs_clock = state.fields_valid["fcs_ok"]
            margin = fcs_clock - dst_clock
            need = 2 * len(payload) + 8
            good = dst_clock < first_payload_clock and margin >= need
            ok = ok and good
            details.append(f"{size}B: dst@{dst_clock}<payload@{first_payload_clock}, "
                           f"fcs margin {margin}>={need}")
        report(6, "dst valid before first payload nibble and >=(2*payload+8) "
                  "clocks before fcs_ok for sizes 64/128/512/1518", ok,
               "; ".join(details))

    def test_criterion_7_diode_unidirectionality(self):
        rng = np.random.default_rng(7)
        frames = _random_frames(rng, 100, max_payload=96)
        link = DiodeLink(channel_attenuation=0.8)
        noise = NoiseModel(0.01, 0.005, 7)

        clean_report, accepted = diode_send(frames, link, noise)
        acceptance_ok = (clean_report.frames_accepted == 100
                         and all(a.serialize() == f.serialize()
                                 for a, f in zip(accepted, frames)))

        evidence = assert_unidirectional(clean_report, link, standard_adversaries(),
                                         frames, noise)
        adversary_ok = evidence.passed

        wired = WiredBackLink(channel_attenuation=0.8)
        wired_report, _ = diode_send(frames, wired, noise)
        negative = assert_unidirectional(wired_report, wired, [flood_receive_buffers],
                                         frames, noise)
        negative_ok = not negative.passed

        ok = acceptance_ok and adversary_ok and negative_ok
        report(7, "emitter digests identical under 3 adversaries, wired-back "
                  "control fails, 100/100 clean frames accepted", ok,
               f"accepted={clean_report.frames_accepted}/100, "
               f"adversaries_pass={adversary_ok}, negative_control_fails={negative_ok}")

    def test_criterion_8_cli_determinism(self, tmp_path, capsys):
        def run_twice(argv_for):
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{argv_for[0]}_{tag}"
                code = main(argv_for + ["--out", str(out)])
                stdout = capsys.readouterr().out
                assert code == 0
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                outputs.append((stdout.replace(str(out), "<out>"), files))
            return outputs[0] == outputs[1]

        synth_same = run_twice(["synth", "--class", "III", "--data", "DETERMINISM",
                                "--seed", "13", "--sigma", "0.03"])
        sweep_same = run_twice(["sweep-stretch", "--data", "DETERMINISM" * 4,
                                "--stretch-us", "0,1041.666667,50000",
                                "--sample-rate", "153600", "--seed", "13"])
        diode_same = run_twice(["diode", "--frames", "5", "--seed", "13",
                                "--sigma", "0.01"])
        ok = synth_same and sweep_same and diode_same
        report(8, "repeated CLI runs with identical flags and seed produce "
                  "byte-identical outputs", ok,
               f"synth={synth_same}, sweep={sweep_same}, diode={diode_same}")
