"""The four benchmark workloads: seeded inputs, one job, and its output check.

Each workload is a closed loop of identical jobs over inputs made once from
the seed. ``make_inputs`` is set-up work; ``run_job`` is the timed part and
returns the raw outputs; ``check`` verifies them and digests them. Keeping
the three apart lets the runner time only the program's own work.

Sizes are fixed here so every run of a workload does the same work; the
``scale`` argument exists only so the benchmark's own test can run each
workload once at reduced size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ledleak import cli, diode, mac
from ledleak.signals import NoiseModel, SerialConfig

BAUD = 9600.0
SAMPLE_RATE = 1_000_000.0
STRETCH_BITS = (0, 1, 2, 10, 480)
DST_VALID_CLOCK = 16 + 12  # preamble + SFD nibbles, then 12 dst nibbles


@dataclass
class Outcome:
    """Checked result of one job.

    ``octets`` is the work the job carried, counted toward ``octets_per_s``
    only when ``ok``. ``facts`` holds workload-level counts (for example the
    accept count of each diode pass) that the traced run reports.
    """

    ok: bool
    octets: int
    digest: str
    detail: str = ""
    facts: dict = field(default_factory=dict)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _sized(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


# --- exfil_cli -------------------------------------------------------------

class ExfilCli:
    """synth -> recover --baud auto -> classify, in process, via ``cli.main``."""

    name = "exfil_cli"

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def make_inputs(self, seed: int, scale: float = 1.0) -> dict:
        rng = np.random.default_rng([seed, 1])
        payload = rng.bytes(_sized(1024, scale))
        return {"payload": payload, "noise_seed": int(rng.integers(0, 2**31))}

    def run_job(self, inputs: dict) -> dict:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=self.work_dir, prefix="exfil-"))
        try:
            hex_payload = inputs["payload"].hex()
            trace = str(out / "trace.optrace")
            runs = [
                ["synth", "--class", "III", "--data-hex", hex_payload,
                 "--baud", "9600", "--sigma", "0.05", "--offset", "0.01",
                 "--seed", str(inputs["noise_seed"]), "--out", str(out)],
                ["recover", trace, "--baud", "auto"],
                ["classify", trace, "--data-hex", hex_payload, "--baud", "9600"],
            ]
            codes, stdouts = [], []
            for argv in runs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(cli.main(argv))
                stdouts.append(buf.getvalue())
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"codes": codes, "stdouts": stdouts, "files": files}

    def check(self, inputs: dict, outputs: dict) -> Outcome:
        payload = inputs["payload"]
        files = outputs["files"]
        digest = _sha(files.get("trace.optrace", b""), files.get("events.optevents", b""),
                      *(s.encode() for s in outputs["stdouts"][1:]))
        try:
            recovered = json.loads(outputs["stdouts"][1])
            classified = json.loads(outputs["stdouts"][2])
        except (json.JSONDecodeError, IndexError) as exc:
            return Outcome(False, 0, digest, f"unparseable CLI output: {exc}")
        problems = []
        if outputs["codes"] != [0, 0, 0]:
            problems.append(f"exit codes {outputs['codes']}")
        if bytes.fromhex(recovered["octets_hex"]) != payload:
            problems.append("recovered octets differ from the payload")
        if recovered["baud_used"] != BAUD:
            problems.append(f"estimated baud {recovered['baud_used']}")
        if classified["assigned"] != "III":
            problems.append(f"classified as {classified['assigned']}")
        ok = not problems
        return Outcome(ok, len(payload) if ok else 0, digest, "; ".join(problems))


# --- diode_link ------------------------------------------------------------

class DiodeLinkWorkload:
    """100 frames over the one-way link, clean and under a flooding receiver."""

    name = "diode_link"

    def make_inputs(self, seed: int, scale: float = 1.0) -> dict:
        rng = np.random.default_rng([seed, 2])
        frames = []
        for _ in range(_sized(100, scale)):
            dst = rng.bytes(6)
            src = rng.bytes(6)
            payload = rng.bytes(int(rng.integers(0, 97)))
            frames.append(mac.build_frame(dst, src, 0x0800, payload))
        noise = NoiseModel(0.01, 0.005, int(rng.integers(0, 2**31)))
        return {"frames": frames, "noise": noise,
                "link": diode.DiodeLink(channel_attenuation=0.8)}

    def run_job(self, inputs: dict) -> dict:
        frames, link, noise = inputs["frames"], inputs["link"], inputs["noise"]
        clean = diode.diode_send(frames, link, noise)
        flood = diode.diode_send(frames, link, noise, rx_program=diode.flood_receive_buffers)
        return {"clean": clean, "flood": flood}

    def check(self, inputs: dict, outputs: dict) -> Outcome:
        frames = inputs["frames"]
        (clean, accepted), (flood, _) = outputs["clean"], outputs["flood"]
        digest = _sha(json.dumps(clean.to_dict(), sort_keys=True).encode(),
                      json.dumps(flood.to_dict(), sort_keys=True).encode(),
                      *(f.serialize() for f in accepted))
        problems = []
        if clean.frames_accepted != len(frames) or len(accepted) != len(frames) or any(
                a.serialize() != f.serialize() for a, f in zip(accepted, frames)):
            problems.append(f"clean pass accepted {clean.frames_accepted}/{len(frames)} "
                            "or altered a frame")
        if flood.emitter_trace_digest != clean.emitter_trace_digest:
            problems.append("emitter digest moved under flood_receive_buffers")
        ok = not problems
        wire = 2 * sum(8 + f.wire_length for f in frames)
        facts = {"clean.accepted": clean.frames_accepted, "clean.frames": clean.frames_sent,
                 "flood.accepted": flood.frames_accepted, "flood.frames": flood.frames_sent}
        return Outcome(ok, wire if ok else 0, digest, "; ".join(problems), facts)


# --- mac_burst -------------------------------------------------------------

def _marshalled_nibbles(payload: bytes) -> int:
    """MII length of a frame: preamble and SFD, header, padded payload, FCS."""
    return 2 * (8 + 14 + max(mac.MIN_PAYLOAD, len(payload)) + 4)


def cut_through_peek(stream: mac.MiiNibbleStream) -> tuple[int | None, bytes | None]:
    """Step a fresh pipeline until ``dst`` is readable; return its clock and value."""
    state = mac.PipelineState()
    for nibble in stream.nibbles:
        state.step(nibble)
        if "dst" in state.fields_valid:
            return state.fields_valid["dst"], state.dst
    return None, None


class MacBurst:
    """1,000 frames through build, marshal, validate, abort, validate; plus junk."""

    name = "mac_burst"

    def make_inputs(self, seed: int, scale: float = 1.0) -> dict:
        rng = np.random.default_rng([seed, 3])
        specs = []
        for _ in range(_sized(1000, scale)):
            dst, src = rng.bytes(6), rng.bytes(6)
            payload = rng.bytes(int(rng.integers(0, 1501)))
            n = _marshalled_nibbles(payload)
            specs.append((dst, src, payload, int(rng.integers(16, n - 8 + 1))))
        junk = []
        preamble = mac.octets_to_nibbles(mac.PREAMBLE_OCTETS + bytes([mac.SFD_OCTET]))
        for k in range(_sized(200, scale)):
            raw = rng.integers(0, 16, size=int(rng.integers(0, 3053)), dtype=np.uint8)
            if k % 2:
                # Garbage after a real SFD: exercises the header and FCS paths.
                nibbles = preamble + raw.tobytes()
            else:
                # No 0xD anywhere, so the SFD hunt never ends.
                raw[raw == 0xD] = 0xC
                nibbles = raw.tobytes()
            junk.append(mac.MiiNibbleStream(nibbles))
        return {"specs": specs, "junk": junk}

    def run_job(self, inputs: dict) -> dict:
        good, aborted, peeks = [], [], []
        for dst, src, payload, abort_at in inputs["specs"]:
            frame = mac.build_frame(dst, src, 0x0800, payload)
            stream = mac.mii_marshal(frame)
            good.append((frame, mac.validate_frame(stream)))
            peeks.append(cut_through_peek(stream))
            aborted.append(mac.validate_frame(mac.abort_transmission(stream, abort_at)))
        junk = [mac.validate_frame(s) for s in inputs["junk"]]
        return {"good": good, "aborted": aborted, "junk": junk, "peeks": peeks}

    def check(self, inputs: dict, outputs: dict) -> Outcome:
        verdicts = [json.dumps(v.to_dict(), sort_keys=True).encode()
                    for v in [r for _, r in outputs["good"]] + outputs["aborted"] + outputs["junk"]]
        peeks = repr(outputs["peeks"]).encode()
        digest = _sha(peeks, *verdicts)
        mismatches = sum(not (r.accepted and r.frame.serialize() == f.serialize())
                         for f, r in outputs["good"])
        false_aborts = sum(v.accepted or v.reason != "fcs_mismatch" for v in outputs["aborted"])
        junk_accepted = sum(v.accepted for v in outputs["junk"])
        bad_peeks = sum(clock != DST_VALID_CLOCK or dst != spec[0]
                        for (clock, dst), spec in zip(outputs["peeks"], inputs["specs"]))
        problems = [f"{n} {what}" for n, what in (
            (mismatches, "good frames not round-tripped"),
            (false_aborts, "aborts not rejected as fcs_mismatch"),
            (junk_accepted, "junk streams accepted"),
            (bad_peeks, "cut-through peeks wrong")) if n]
        ok = not problems
        # MII octets of every validated stream, preamble and SFD included: a
        # good and an aborted stream of n nibbles carry n // 2 octets each.
        octets = sum(_marshalled_nibbles(spec[2]) for spec in inputs["specs"])
        octets += sum(len(s) // 2 for s in inputs["junk"])
        return Outcome(ok, octets if ok else 0, digest, "; ".join(problems))


# --- stretch_sweep ---------------------------------------------------------

class StretchSweep:
    """The pulse-stretch countermeasure sweep over 0 to 480 bit times."""

    name = "stretch_sweep"

    def make_inputs(self, seed: int, scale: float = 1.0) -> dict:
        rng = np.random.default_rng([seed, 4])
        serial = SerialConfig(baud=BAUD)
        return {"data": rng.bytes(_sized(1024, scale)), "serial": serial,
                "stretch": [k * serial.bit_time for k in STRETCH_BITS],
                "noise": NoiseModel(0.02, 0.0, int(rng.integers(0, 2**31)))}

    def run_job(self, inputs: dict) -> dict:
        rows = cli.run_stretch_sweep(inputs["data"], inputs["serial"], inputs["stretch"],
                                     SAMPLE_RATE, inputs["noise"])
        return {"rows": rows}

    def check(self, inputs: dict, outputs: dict) -> Outcome:
        rows = outputs["rows"]
        digest = _sha(repr(rows).encode())
        bers = [r["ber"] for r in rows]
        mis = [r["mi_bits"] for r in rows]
        eps = 1e-12
        problems = []
        if len(rows) != len(STRETCH_BITS):
            problems.append(f"{len(rows)} rows")
        else:
            if bers[0] != 0.0:
                problems.append(f"BER {bers[0]} at no stretch")
            if bers[-1] <= 0.25:
                problems.append(f"BER {bers[-1]} at 480 bit times")
        if any(b2 < b1 - eps for b1, b2 in zip(bers, bers[1:])):
            problems.append(f"BER not non-decreasing: {bers}")
        if any(m2 > m1 + eps for m1, m2 in zip(mis, mis[1:])):
            problems.append(f"MI not non-increasing: {mis}")
        ok = not problems
        octets = len(inputs["data"]) * len(STRETCH_BITS)
        return Outcome(ok, octets if ok else 0, digest, "; ".join(problems))


def make_workloads(work_dir: Path) -> dict:
    return {w.name: w for w in (ExfilCli(work_dir), DiodeLinkWorkload(), MacBurst(), StretchSweep())}
