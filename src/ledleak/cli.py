"""Command-line front end.

Subcommands tie the simulator, recovery, MAC and diode pieces into
reproducible experiments. All randomness flows from one explicit ``--seed``
and every run with identical flags and seed produces byte-identical output
files. Exit codes: 0 success, 1 usage/configuration/IO error, 2 no signal,
3 unidirectionality violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import diode, emanation, formats, mac, recovery
from .errors import ConfigError, EstimationError, NoSignalError
from .signals import NoiseModel, SerialConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_SIGNAL = 2
EXIT_ONE_WAY = 3


@dataclass
class ExperimentConfig:
    """Flat experiment parameters, serialisable as key=value lines."""

    seed: int = 0
    out: str = "."
    emanation_class: str = "III"
    baud: str = "9600"
    data: str = "SECRET"
    data_hex: str = ""
    sigma: float = 0.0
    offset: float = 0.0
    sample_rate: float = 1_000_000.0
    window_ms: float = 10.0
    gap_ms: float = 0.0
    stretch_us: str = ""
    frames: int = 10
    attenuation: float = 0.8
    hysteresis: float = 0.2

    def to_file(self, path: str | Path) -> None:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in dataclasses.fields(self)]
        formats.atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        values: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"bad config line {line!r} (expected key=value)")
                values[key.strip()] = value.strip()
        cfg = cls()
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for key, value in values.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            cast = {"int": int, "float": float, "str": str}[types[key]]
            setattr(cfg, key, cast(value))
        return cfg

    def merged_with(self, args: argparse.Namespace) -> "ExperimentConfig":
        """Explicit command-line flags override config file values."""
        out = dataclasses.replace(self)
        for f in dataclasses.fields(self):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(out, f.name, value)
        return out


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    base = ExperimentConfig.from_file(args.config) if getattr(args, "config", None) else ExperimentConfig()
    return base.merged_with(args)


def _payload_octets(cfg: ExperimentConfig) -> bytes:
    if cfg.data_hex:
        return bytes.fromhex(cfg.data_hex)
    return cfg.data.encode()


def _serial_config(cfg: ExperimentConfig) -> SerialConfig:
    if cfg.baud == "auto":
        raise ConfigError("baud 'auto' is only valid for the recover subcommand")
    return SerialConfig(baud=float(cfg.baud), idle_between_octets=cfg.gap_ms / 1000.0)


def _profile(cfg: ExperimentConfig, serial: SerialConfig,
             pulse_stretch: float = 0.0) -> emanation.DeviceProfile:
    klass = emanation.EmanationClass.from_label(cfg.emanation_class)
    drive = emanation.DriveConfig(
        serial=serial,
        pulse_stretch=pulse_stretch,
        activity_window=cfg.window_ms / 1000.0,
    )
    return emanation.DeviceProfile(klass, emanation.LedModel(), drive)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    serial = _serial_config(cfg)
    profile = _profile(cfg, serial)
    data = _payload_octets(cfg)
    noise = NoiseModel(cfg.sigma, cfg.offset, cfg.seed)
    trace = emanation.synthesize_class(profile, data, noise, cfg.sample_rate)
    lit = emanation.drive_stream(profile, data)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.optrace"
    events_path = out / "events.optevents"
    formats.write_trace(trace_path, trace)
    formats.write_events(events_path, lit)
    print(trace_path)
    print(events_path)
    return EXIT_OK


def cmd_recover(args: argparse.Namespace) -> int:
    trace = formats.read_trace(args.trace_file)
    cfg = _load_config(args)
    events = recovery.threshold_detect(trace, cfg.hysteresis)
    if cfg.baud == "auto":
        baud = recovery.estimate_baud(events)
    else:
        baud = float(cfg.baud)
    serial = SerialConfig(baud=baud)
    result = recovery.decode_auto_polarity(events, serial)
    print(json.dumps(result.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    trace = formats.read_trace(args.trace_file)
    cfg = _load_config(args)
    serial = SerialConfig(baud=float(cfg.baud), idle_between_octets=cfg.gap_ms / 1000.0)
    report = recovery.classify_trace(trace, _payload_octets(cfg), serial,
                                     window=cfg.window_ms / 1000.0,
                                     hysteresis_fraction=cfg.hysteresis)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def run_stretch_sweep(data: bytes, serial: SerialConfig, stretch_seconds: list[float],
                      sample_rate: float, noise: NoiseModel,
                      window: float = emanation.DEFAULT_ACTIVITY_WINDOW) -> list[dict]:
    """One row per stretch value: recovered BER and leaked mutual information."""
    line = emanation.uart_encode(data, serial)
    rows = []
    for min_on in sorted(stretch_seconds):
        drive = emanation.DriveConfig(serial=serial, pulse_stretch=min_on,
                                      activity_window=window)
        profile = emanation.DeviceProfile(emanation.EmanationClass.CONTENT,
                                          emanation.LedModel(), drive)
        trace = emanation.synthesize_class(profile, data, noise, sample_rate)
        try:
            recovered = recovery.recover_data(trace, serial).octets
        except NoSignalError:
            # Fully stretched traces go flat: nothing recoverable at all.
            recovered = b""
        ber = recovery.bit_error_rate(data, recovered)
        mi = recovery.leakage_mutual_information(trace, line, bins=16)
        rows.append({"min_on_s": min_on, "ber": ber, "mi_bits": mi})
    return rows


def cmd_sweep_stretch(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if not cfg.stretch_us.strip():
        raise ConfigError("stretch sweep requires a nonempty --stretch-us list")
    stretch = [float(v) * 1e-6 for v in cfg.stretch_us.split(",")]
    serial = _serial_config(cfg)
    data = _payload_octets(cfg)
    noise = NoiseModel(cfg.sigma, cfg.offset, cfg.seed)
    rows = run_stretch_sweep(data, serial, stretch, cfg.sample_rate, noise)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep_stretch.csv"
    lines = ["min_on_s,ber,mi_bits"]
    lines.extend(f"{r['min_on_s']!r},{r['ber']!r},{r['mi_bits']!r}" for r in rows)
    formats.atomic_write_text(csv_path, "\n".join(lines) + "\n")
    print(csv_path)

    bers = [r["ber"] for r in rows]
    mis = [r["mi_bits"] for r in rows]
    eps = 1e-12
    if any(b2 < b1 - eps for b1, b2 in zip(bers, bers[1:])):
        print("error: BER is not non-decreasing in min_on", file=sys.stderr)
        return EXIT_CONFIG
    if any(m2 > m1 + eps for m1, m2 in zip(mis, mis[1:])):
        print("error: MI is not non-increasing in min_on", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _read_stream_arg(args: argparse.Namespace) -> mac.MiiNibbleStream:
    text = args.stream if args.stream is not None else sys.stdin.read()
    text = text.strip()
    if not text:
        raise ConfigError("empty input: expected a frame hex dump or nibble stream")
    try:
        if any(c.isspace() for c in text):
            return mac.stream_from_wire_octets(formats.hexline_to_octets(text))
        return mac.MiiNibbleStream.from_string(text)
    except ValueError as exc:
        raise ConfigError(f"malformed input: {exc}") from exc


def cmd_mac(args: argparse.Namespace) -> int:
    action = args.mac_action
    if action == "build":
        payload = bytes.fromhex(args.payload_hex) if args.payload_hex else args.payload.encode()
        frame = mac.build_frame(args.dst, args.src, int(args.ethertype, 16), payload)
        print(formats.octets_to_hexline(frame.serialize()))
        return EXIT_OK
    stream = _read_stream_arg(args)
    if action == "validate":
        print(json.dumps(mac.validate_frame(stream).to_dict(), sort_keys=True))
        return EXIT_OK
    if action == "abort":
        print(mac.abort_transmission(stream, args.abort_at).to_string())
        return EXIT_OK
    if action == "peek":
        state = mac.PipelineState()
        state.feed(stream.nibbles)
        state.finish()
        print(json.dumps(state.fields_valid, sort_keys=True))
        return EXIT_OK
    raise ConfigError(f"unknown mac action {action!r}")


def _deterministic_frames(count: int, seed: int) -> list[mac.EthernetFrame]:
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(count):
        dst = bytes(rng.integers(0, 256, size=6, dtype=np.uint8))
        src = bytes(rng.integers(0, 256, size=6, dtype=np.uint8))
        size = int(rng.integers(0, 129))
        payload = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        frames.append(mac.build_frame(dst, src, 0x0800, payload))
    return frames


def cmd_diode(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if cfg.frames < 0:
        raise ConfigError("frames must be >= 0")
    serial = SerialConfig(baud=float(cfg.baud))
    link_type = diode.WiredBackLink if args.wired_back else diode.DiodeLink
    link = link_type(
        tx_led=emanation.LedModel(),
        channel_attenuation=cfg.attenuation,
        rx=diode.ReceiverCircuit(),
        sample_rate=16 * serial.baud,
        serial_cfg=serial,
    )
    frames = _deterministic_frames(cfg.frames, cfg.seed)
    noise = NoiseModel(cfg.sigma, cfg.offset, cfg.seed)
    report, _, emitted, received = diode.diode_send(frames, link, noise, collect_traces=True)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_trace(out / "emitted.optrace", emitted)
    formats.write_trace(out / "received.optrace", received)
    print(json.dumps(report.to_dict(), sort_keys=True))

    for adversary in diode.standard_adversaries():
        evidence = diode.assert_unidirectional(link, adversary, frames, noise)
        if not evidence.passed:
            print(f"error: unidirectionality violation under {adversary.__name__}: "
                  f"{evidence.baseline_digest[:16]} != {evidence.adversarial_digest[:16]}",
                  file=sys.stderr)
            return EXIT_ONE_WAY
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as :class:`ConfigError`, so they exit 1 like any
    other bad input instead of argparse's exit 2 ("no signal" here)."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ledleak",
        description="Simulate, recover and analyse optical leakage from LED indicators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("synth", help="synthesize a leakage trace")
    add_common(p)
    p.add_argument("--class", dest="emanation_class", choices=("I", "II", "III"), default=None)
    p.add_argument("--baud", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--data-hex", dest="data_hex", default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--offset", type=float, default=None)
    p.add_argument("--sample-rate", dest="sample_rate", type=float, default=None)
    p.add_argument("--window-ms", dest="window_ms", type=float, default=None)
    p.add_argument("--gap-ms", dest="gap_ms", type=float, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("recover", help="decode serial data from a trace file")
    add_common(p)
    p.add_argument("trace_file")
    p.add_argument("--baud", default=None, help="baud rate or 'auto'")
    p.add_argument("--hysteresis", type=float, default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("classify", help="assign an emanation class to a trace")
    add_common(p)
    p.add_argument("trace_file")
    p.add_argument("--data", default=None, help="reference traffic")
    p.add_argument("--data-hex", dest="data_hex", default=None)
    p.add_argument("--baud", default=None)
    p.add_argument("--gap-ms", dest="gap_ms", type=float, default=None)
    p.add_argument("--window-ms", dest="window_ms", type=float, default=None)
    p.add_argument("--hysteresis", type=float, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep-stretch", help="pulse-stretch countermeasure sweep")
    add_common(p)
    p.add_argument("--baud", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--data-hex", dest="data_hex", default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--sample-rate", dest="sample_rate", type=float, default=None)
    p.add_argument("--stretch-us", dest="stretch_us", default=None,
                   help="comma-separated minimum lit durations in microseconds")
    p.set_defaults(func=cmd_sweep_stretch)

    p = sub.add_parser("mac", help="frame building, validation, abort, cut-through peek")
    mac_sub = p.add_subparsers(dest="mac_action", required=True)
    b = mac_sub.add_parser("build")
    b.add_argument("--dst", required=True)
    b.add_argument("--src", required=True)
    b.add_argument("--ethertype", default="0800", help="hex, e.g. 0800")
    b.add_argument("--payload", default="")
    b.add_argument("--payload-hex", dest="payload_hex", default="")
    b.set_defaults(func=cmd_mac)
    for name in ("validate", "peek"):
        q = mac_sub.add_parser(name)
        q.add_argument("stream", nargs="?", help="nibble string or frame hex dump (stdin if omitted)")
        q.set_defaults(func=cmd_mac)
    a = mac_sub.add_parser("abort")
    a.add_argument("stream", nargs="?")
    a.add_argument("--abort-at", dest="abort_at", type=int, required=True)
    a.set_defaults(func=cmd_mac)

    p = sub.add_parser("diode", help="run frames across the one-way optical link")
    add_common(p)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--baud", default=None)
    p.add_argument("--attenuation", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--offset", type=float, default=None)
    p.add_argument("--wired-back", action="store_true",
                   help="use the wired-back negative-control link (expected to fail)")
    p.set_defaults(func=cmd_diode)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (NoSignalError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SIGNAL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
