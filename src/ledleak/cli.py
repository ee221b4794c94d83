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
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import diode, emanation, formats, mac, recovery
from .errors import ConfigError, EstimationError, NoSignalError
from .signals import NoiseModel, OpticalTrace, SerialConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_SIGNAL = 2
EXIT_ONE_WAY = 3


@dataclass
class ExperimentConfig:
    """Flat experiment parameters, read from key=value lines. Key ``k``
    is also the flag ``--k`` (dashes for underscores; ``--class`` for
    ``emanation_class``); flag and file values share one cast, :func:`_cast`."""

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
        for key, value in values.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, _cast(key, value, f"config key {key!r} in {path}"))
        return cfg


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _flag(key: str) -> str:
    return "--class" if key == "emanation_class" else "--" + key.replace("_", "-")


def _baud(text: str) -> float:
    """A ``baud`` value as a rate; ``recover`` resolves ``auto`` before this."""
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number or 'auto', got {text!r}") from None


def _stretch_seconds(text: str) -> list[float]:
    """A ``stretch_us`` list in seconds; blank text is the empty list."""
    try:
        return [float(v) * 1e-6 for v in text.split(",")] if text.strip() else []
    except ValueError:
        raise ConfigError(f"expected comma-separated microseconds, got {text!r}") from None


def _hex_octets(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ConfigError(f"expected hex octets, got {text!r}") from None


def _frames(count: int) -> None:
    if count < 0:
        raise ConfigError("frames must be >= 0")


#: Per key, a check of its cast value: most build the model the key
#: configures, so each range is written once, in that model.
_CHECKS = {
    "seed": lambda v: NoiseModel(seed=v),
    "sigma": lambda v: NoiseModel(gaussian_sigma=v),
    "offset": lambda v: NoiseModel(ambient_offset=v),
    "baud": lambda v: None if v == "auto" else SerialConfig(baud=_baud(v)),
    "gap_ms": lambda v: SerialConfig(idle_between_octets=v / 1000.0),
    "window_ms": lambda v: emanation.DriveConfig(activity_window=v / 1000.0),
    "stretch_us": lambda v: [emanation.DriveConfig(pulse_stretch=s) for s in _stretch_seconds(v)],
    "sample_rate": lambda v: OpticalTrace(v, ()),
    "hysteresis": lambda v: recovery.threshold_detect(OpticalTrace(1.0, (0.0, 1.0)), v),
    "attenuation": lambda v: diode.DiodeLink(channel_attenuation=v),
    "frames": _frames,
    "emanation_class": emanation.EmanationClass.from_label,
    "data_hex": _hex_octets,
}


def _cast(key: str, text: str, where: str) -> int | float | str:
    """``text`` as the value of config key ``key``, by the key's field type,
    then checked by :data:`_CHECKS`. Errors start with ``where``."""
    kind = _FIELD_TYPES[key]
    try:
        value = {"int": int, "float": float, "str": str}[kind](text)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind}, got {text!r}") from None
    try:
        _CHECKS.get(key, lambda v: None)(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return value


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file's values, overridden by the flags given."""
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for key in _FIELD_TYPES:
        text = getattr(args, key, None)
        if text is not None:
            setattr(cfg, key, _cast(key, text, f"argument {_flag(key)}"))
    if cfg.baud == "auto" and args.command != "recover":
        where = "argument --baud" if args.baud is not None else f"config key 'baud' in {args.config}"
        raise ConfigError(f"{where}: baud 'auto' is only valid for the recover subcommand")
    return cfg


def _payload_octets(cfg: ExperimentConfig) -> bytes:
    if cfg.data_hex:
        return _hex_octets(cfg.data_hex)
    return cfg.data.encode()


def _serial_config(cfg: ExperimentConfig) -> SerialConfig:
    return SerialConfig(baud=_baud(cfg.baud), idle_between_octets=cfg.gap_ms / 1000.0)


def _profile(cfg: ExperimentConfig, serial: SerialConfig) -> emanation.DeviceProfile:
    klass = emanation.EmanationClass.from_label(cfg.emanation_class)
    drive = emanation.DriveConfig(serial=serial, activity_window=cfg.window_ms / 1000.0)
    return emanation.DeviceProfile(klass, emanation.LedModel(), drive)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    serial = _serial_config(cfg)
    profile = _profile(cfg, serial)
    data = _payload_octets(cfg)
    noise = NoiseModel(cfg.sigma, cfg.offset, cfg.seed)
    lit = emanation.drive_stream(profile, data)
    trace = emanation._synthesize(lit, profile.led, cfg.sample_rate, noise)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.optrace"
    events_path = out / "events.optevents"
    formats.write_trace(trace_path, trace)
    formats.write_events(events_path, lit)
    print(trace_path)
    print(events_path)
    return EXIT_OK


def _read_trace(path: str) -> OpticalTrace:
    """The trace at ``path``; a sample beyond ``±2**formats.MAX_SAMPLE_EXPONENT`` is refused."""
    trace = formats.read_trace(path)
    s, e = trace.samples, formats.MAX_SAMPLE_EXPONENT
    if s.size and (s.min() < -2.0 ** e or s.max() > 2.0 ** e):
        raise ValueError(f"{path}: samples must lie within [-2**{e}, 2**{e}]")
    return trace


def cmd_recover(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    trace = _read_trace(args.trace_file)
    events = recovery.threshold_detect(trace, cfg.hysteresis)
    baud = recovery.estimate_baud(events) if cfg.baud == "auto" else _baud(cfg.baud)
    serial = SerialConfig(baud=baud)
    result = recovery.decode_auto_polarity(events, serial)
    print(json.dumps(result.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    trace = _read_trace(args.trace_file)
    serial = _serial_config(cfg)
    report = recovery.classify_trace(trace, _payload_octets(cfg), serial,
                                     window=cfg.window_ms / 1000.0,
                                     hysteresis_fraction=cfg.hysteresis)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def run_stretch_sweep(data: bytes, serial: SerialConfig, stretch_seconds: list[float],
                      sample_rate: float, noise: NoiseModel) -> list[dict]:
    """One row per stretch value, in increasing order: recovered BER and leaked MI.

    Rows get the traces of ``emanation.synthesize_class``, but share one
    noise draw: a seeded draw's first values are the same whatever its size.
    The last row's stream, the longest, is built first to size the draw (so
    the sample cap is met before any row runs); each other row builds its
    stream and trace when it runs, so one row's trace is held at a time.
    """
    led = emanation.LedModel()
    drive = emanation.DriveConfig(serial=serial)
    base = emanation.drive_stream(
        emanation.DeviceProfile(emanation.EmanationClass.CONTENT, led, drive), data)
    line = base.invert()
    stretches = sorted(stretch_seconds)
    if not stretches:
        return []
    last = emanation.apply_pulse_stretch(base, stretches[-1])
    draw = emanation._gaussian_draw(noise, emanation._sample_count(last.duration, sample_rate))
    rows = []
    for i, min_on in enumerate(stretches):
        lit = last if i == len(stretches) - 1 else emanation.apply_pulse_stretch(base, min_on)
        trace = emanation._synthesize(lit, led, sample_rate, noise, draw)
        del lit  # so no other row's stream is held beside the last's
        try:
            recovered = recovery.recover_data(trace, serial).octets
        except NoSignalError:
            # Fully stretched traces go flat: nothing recoverable at all.
            recovered = b""
        ber = recovery.bit_error_rate(data, recovered)
        mi = recovery.leakage_mutual_information(trace, line, bins=16)
        del trace  # so the next row's samples do not coexist with this row's
        rows.append({"min_on_s": min_on, "ber": ber, "mi_bits": mi})
    return rows


def cmd_sweep_stretch(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    stretch = _stretch_seconds(cfg.stretch_us)
    if not stretch:
        raise ConfigError("stretch sweep requires a nonempty --stretch-us list")
    serial = _serial_config(cfg)
    data = _payload_octets(cfg)
    noise = NoiseModel(cfg.sigma, cfg.offset, cfg.seed)
    rows = run_stretch_sweep(data, serial, stretch, cfg.sample_rate, noise)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep_stretch.csv"
    with formats.atomic_open(csv_path) as fh:
        fh.write("min_on_s,ber,mi_bits\n")
        fh.writelines(f"{r['min_on_s']!r},{r['ber']!r},{r['mi_bits']!r}\n" for r in rows)
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
        if len(text.split(None, 1)) > 1:
            return mac.stream_from_wire_octets(formats.hexline_to_octets(text))
        return mac.MiiNibbleStream.from_string(text)
    except ValueError as exc:
        raise ConfigError(f"malformed input: {exc}") from exc


def cmd_mac(args: argparse.Namespace) -> int:
    action = args.mac_action
    if action == "build":
        try:
            payload = _hex_octets(args.payload_hex) if args.payload_hex else None
        except ConfigError as exc:
            raise ConfigError(f"argument --payload-hex: {exc}") from None
        try:
            if payload is None:
                payload = args.payload.encode()
            dst, src = mac.mac_address(args.dst), mac.mac_address(args.src)
            ethertype = mac.ethertype_bytes(args.ethertype)
        except ValueError as exc:
            raise ConfigError(f"malformed input: {exc}") from exc
        frame = mac.build_frame(dst, src, ethertype, payload)
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
    serial = SerialConfig(baud=_baud(cfg.baud))
    link_type = diode.WiredBackLink if args.wired_back else diode.DiodeLink
    link = link_type(channel_attenuation=cfg.attenuation, serial_cfg=serial)
    frames = _deterministic_frames(cfg.frames, cfg.seed)
    noise = NoiseModel(cfg.sigma, cfg.offset, cfg.seed)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with formats.trace_writer(out / "emitted.optrace", link.sample_rate) as write_emitted, \
            formats.trace_writer(out / "received.optrace", link.sample_rate) as write_received:
        def written(runs):
            for emitted, arrived, result in runs:
                write_emitted(emitted.samples)
                write_received(arrived.samples)
                yield emitted, arrived, result

        report, _ = diode.link_report(written(diode.link_frames(frames, link, noise)))
    print(json.dumps(report.to_dict(), sort_keys=True))

    evidence = diode.assert_unidirectional(report, link, diode.standard_adversaries(),
                                           frames, noise)
    if not evidence.passed:
        print(f"error: unidirectionality violation under {evidence.adversary}: "
              f"{evidence.baseline_digest[:16]} != {evidence.adversarial_digest[:16]}",
              file=sys.stderr)
        return EXIT_ONE_WAY
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as :class:`ConfigError`, so they exit 1 like any
    other bad input instead of argparse's exit 2 ("no signal" here)."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


#: The experiment subcommands: handler, help, positionals and the
#: :class:`ExperimentConfig` keys taken as flags besides ``--seed`` and ``--out``.
_EXPERIMENTS = {
    "synth": (cmd_synth, "synthesize a leakage trace", (),
              ("emanation_class", "baud", "data", "data_hex", "sigma", "offset", "sample_rate",
               "window_ms", "gap_ms")),
    "recover": (cmd_recover, "decode serial data from a trace file", ("trace_file",),
                ("baud", "hysteresis")),
    "classify": (cmd_classify, "assign an emanation class to a trace", ("trace_file",),
                 ("data", "data_hex", "baud", "gap_ms", "window_ms", "hysteresis")),
    "sweep-stretch": (cmd_sweep_stretch, "pulse-stretch countermeasure sweep", (),
                      ("baud", "data", "data_hex", "sigma", "sample_rate", "stretch_us")),
    "diode": (cmd_diode, "run frames across the one-way optical link", (),
              ("frames", "baud", "attenuation", "sigma", "offset")),
}
_HELP = {"out": "output directory", "emanation_class": "I, II or III",
         "baud": "baud rate, or 'auto' for recover",
         "data": "payload text (for classify, the reference traffic)",
         "stretch_us": "comma-separated minimum lit durations in microseconds"}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ledleak",
        description="Simulate, recover and analyse optical leakage from LED indicators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (func, help_text, positionals, keys) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for positional in positionals:
            p.add_argument(positional)
        for key in ("seed", "out", *keys):  # strings only: _load_config casts them
            p.add_argument(_flag(key), dest=key, help=_HELP.get(key))
        p.set_defaults(func=func)
    sub.choices["diode"].add_argument(
        "--wired-back", action="store_true",
        help="use the wired-back negative-control link (expected to fail)")

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

    return parser


#: Escapes for every character ``str.splitlines`` breaks at, so an error
#: quoting raw input (argparse's "unrecognized arguments") stays one line.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _error(exc: Exception) -> None:
    message = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
    print(f"error: {message.translate(_LINE_BREAKS)}", file=sys.stderr)


def _warning(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` for the CLI: one ``warning:`` line, without
    the source path and line that Python's default format carries."""
    print(f"warning: {str(message).translate(_LINE_BREAKS)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except (NoSignalError, EstimationError) as exc:
            _error(exc)
            return EXIT_NO_SIGNAL
        except (ConfigError, ValueError, OSError, Warning, MemoryError) as exc:
            _error(exc)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
