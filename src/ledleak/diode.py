"""Unidirectional optical link: MAC frames out as light, never anything back.

The emitter serialises each frame over an async serial discipline and
drives the transmit LED; the only coupling to the receive side is photons
through an attenuating channel. The receiver is the deliberately minimal
photodiode-plus-pull-up circuit: reverse-biased photodiode pulling a
10 kOhm pull-up node low when illuminated, a 100 Ohm series resistor
protecting the line driver, no amplifier stage.

One-way flow is enforced architecturally (the emitter path takes no
receive-side values as inputs, checked by a signature audit) and verified
empirically (paired runs must produce bit-identical emitter trace digests
no matter what an adversarial receive-side program does).
"""

from __future__ import annotations

import hashlib
import inspect
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .emanation import LedModel, add_noise, led_transduce, uart_encode
from .mac import (
    PREAMBLE_OCTETS,
    SFD_OCTET,
    EthernetFrame,
    MiiNibbleStream,
    ValidationResult,
    octets_to_nibbles,
    validate_frame,
)
from .recovery import uart_decode
from .signals import LogicEventStream, NoiseModel, OpticalTrace, SerialConfig

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ReceiverCircuit:
    """Photodiode receiver: pull-up node sampled against a logic threshold.

    Dark, the pull-up holds the node at the supply rail (logic HIGH);
    illuminated, the photocurrent through the pull-up drops the node below
    threshold (logic LOW). Resistive steady-state only; the schematic gives
    resistor values and nothing else. ``photocurrent_on`` is a calibration
    parameter, defaulted so a fully lit node falls well below threshold.
    """

    pullup_ohms: float = 10_000.0
    series_ohms: float = 100.0
    supply_volts: float = 3.3
    logic_threshold_fraction: float = 0.5
    photocurrent_on: float = 5e-4

    def __post_init__(self) -> None:
        if not (self.pullup_ohms > 0 and self.series_ohms > 0 and self.supply_volts > 0):
            raise ValueError("resistances and supply must be positive")
        if not 0 < self.logic_threshold_fraction < 1:
            raise ValueError("logic_threshold_fraction must be in (0, 1)")
        if not self.photocurrent_on > 0:
            raise ValueError("photocurrent_on must be positive")

    def node_voltage(self, irradiance: np.ndarray) -> np.ndarray:
        drop = irradiance * self.photocurrent_on * self.pullup_ohms
        return np.clip(self.supply_volts - drop, 0.0, None)


def photodiode_receive(trace: OpticalTrace, rx: ReceiverCircuit) -> LogicEventStream:
    """Convert an irradiance trace to the node's logic stream.

    Output is in node polarity: light is active-low, so illumination reads
    as 0 and callers re-invert to the transmitted sense.
    """
    volts = rx.node_voltage(trace.samples)
    logic = volts >= rx.logic_threshold_fraction * rx.supply_volts
    if logic.size == 0:
        return LogicEventStream(1, (), 0.0)
    flips = np.flatnonzero(logic[1:] != logic[:-1])
    duration = logic.size / trace.sample_rate
    return LogicEventStream(int(logic[0]), (flips + 1) / trace.sample_rate, duration)


@dataclass(frozen=True)
class ContentionReport:
    current_amps: float
    safe: bool


def contention_check(rx: ReceiverCircuit, driver_high: bool, illuminated: bool,
                     driver_limit_amps: float = 0.025) -> ContentionReport:
    """Worst-case current through the series resistor under bus contention.

    The hazard case is the bidirectional driver accidentally outputting
    HIGH while the photodiode holds the node low: the series resistor then
    carries the full supply. Illumination is treated as a hard clamp to
    ground (worst case regardless of actual photocurrent); dark cases solve
    the resistive divider. Safe means the current stays within both the
    supply/series bound and the driver's limit.
    """
    v_driver = rx.supply_volts if driver_high else 0.0
    if illuminated:
        v_node = 0.0
    else:
        v_node = ((v_driver / rx.series_ohms + rx.supply_volts / rx.pullup_ohms)
                  / (1.0 / rx.series_ohms + 1.0 / rx.pullup_ohms))
    current = abs(v_driver - v_node) / rx.series_ohms
    safe = (current <= rx.supply_volts / rx.series_ohms + 1e-12
            and current <= driver_limit_amps)
    return ContentionReport(current, safe)


@dataclass(frozen=True)
class DiodeLink:
    """Composed emitter, optical channel and receiver circuit.

    The link samples its light at :attr:`sample_rate`, 16 samples per bit
    of ``serial_cfg``. Emitter parameters (``tx_led``, ``serial_cfg``) are
    never readable or writable through receive-side operations; the
    receive side only ever sees the photodiode node. :meth:`back_channel`
    returns ``None`` here; it exists so the wired-back negative control can
    demonstrate what a violation looks like.
    """

    tx_led: LedModel = LedModel()
    channel_attenuation: float = 1.0
    rx: ReceiverCircuit = ReceiverCircuit()
    serial_cfg: SerialConfig = SerialConfig(baud=115200.0)

    def __post_init__(self) -> None:
        if not 0 <= self.channel_attenuation <= 1:
            raise ValueError(
                f"channel_attenuation must be in [0, 1], got {self.channel_attenuation}")
        if not 0 < self.sample_rate < float("inf"):
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")

    @property
    def sample_rate(self) -> float:
        return 16 * self.serial_cfg.baud

    def back_channel(self) -> Callable[[ReceiverPort], float] | None:
        """The coupling from receive side to emitter for one run: none."""
        return None


@dataclass(frozen=True)
class LinkReport:
    """Per-run tally of frame outcomes plus the emitter trace digest."""

    frames_sent: int
    frames_accepted: int
    frames_rejected: int
    reject_reasons: tuple[tuple[str, int], ...]
    emitter_trace_digest: str

    def __post_init__(self) -> None:
        if self.frames_accepted + self.frames_rejected != self.frames_sent:
            raise ValueError("accepted + rejected must equal sent")

    def to_dict(self) -> dict:
        return {
            "frames_sent": self.frames_sent,
            "frames_accepted": self.frames_accepted,
            "frames_rejected": self.frames_rejected,
            "reject_reasons": dict(self.reject_reasons),
            "emitter_trace_digest": self.emitter_trace_digest,
        }


class ReceiverPort:
    """Receive-side surface of one link run.

    Adversarial programs operate here: they may read everything, inject
    octets into the decode buffer of the next frame, and attempt writes.
    Nothing on this object feeds the emitter.
    """

    def __init__(self, rx: ReceiverCircuit) -> None:
        self.rx = rx
        self.decoded: list[bytes] = []
        self.accepted = 0
        self.injected_total = 0
        self._pending = bytearray()

    def inject(self, octets: bytes) -> None:
        self._pending += octets
        self.injected_total += len(octets)

    def take_injected(self) -> bytes:
        out = bytes(self._pending)
        self._pending.clear()
        return out

    def record(self, octets: bytes, result: ValidationResult) -> None:
        self.decoded.append(octets)
        self.accepted += result.accepted

    def snapshot(self) -> dict:
        """Everything the port exposes, in O(1): ``decoded`` is the live list."""
        return {"decoded": self.decoded, "accepted": self.accepted, "rx": self.rx}


def _emit_frame(octets: bytes, serial_cfg: SerialConfig, tx_led: LedModel,
                sample_rate: float, bias: float = 0.0) -> OpticalTrace:
    """Emitter path: wire octets to serial line to LED light.

    Takes transmit-side values only; the interface partition audit checks
    this signature stays that way.
    """
    line = uart_encode(octets, serial_cfg)
    trace = led_transduce(line, tx_led, sample_rate)
    if bias != 0.0:
        trace = OpticalTrace._adopt(trace.sample_rate, trace.samples * (1.0 + bias))
    return trace


_EMITTER_ALLOWED_INPUTS = frozenset({"octets", "serial_cfg", "tx_led", "sample_rate", "bias"})
_RECEIVE_SIDE_OUTPUTS = frozenset({"port", "events", "decoded", "results",
                                   "node_voltage", "injected", "snapshot"})


def interface_partition_audit() -> bool:
    """Check the emitter takes no receive-side outputs as inputs."""
    params = set(inspect.signature(_emit_frame).parameters)
    return params <= _EMITTER_ALLOWED_INPUTS and params.isdisjoint(_RECEIVE_SIDE_OUTPUTS)


def link_frames(frames: Iterable[EthernetFrame], link: DiodeLink, noise: NoiseModel,
                rx_program=None) -> Iterator[tuple[OpticalTrace, OpticalTrace, ValidationResult]]:
    """Send frames across the link one at a time.

    Per frame: serialize, UART-encode, light the transmit LED, attenuate,
    receive at the photodiode node, re-invert, decode, and validate, then
    run ``rx_program`` on the receive port. Yields ``(emitted, arrived,
    result)``: the light as emitted, the light at the photodiode, and the
    validation result. Losses are results, never raised.
    """
    back = link.back_channel()
    bias = 0.0
    port = ReceiverPort(link.rx)
    preamble = PREAMBLE_OCTETS + bytes([SFD_OCTET])
    for index, frame in enumerate(frames):
        wire = preamble + frame.serialize()
        emitted = _emit_frame(wire, link.serial_cfg, link.tx_led, link.sample_rate, bias=bias)

        channel = OpticalTrace._adopt(link.sample_rate, emitted.samples * link.channel_attenuation)
        frame_noise = NoiseModel(noise.gaussian_sigma, noise.ambient_offset,
                                 (noise.seed + index) & _MASK64)
        arrived = add_noise(channel, frame_noise)

        line = photodiode_receive(arrived, link.rx).invert()
        decode = uart_decode(line, link.serial_cfg)
        octets = port.take_injected() + decode.octets
        result = validate_frame(MiiNibbleStream(octets_to_nibbles(octets)))
        port.record(decode.octets, result)

        if rx_program is not None:
            rx_program(port, index)
        if back is not None:
            bias = back(port)
        yield emitted, arrived, result


def link_report(runs: Iterable[tuple[OpticalTrace, OpticalTrace, ValidationResult]]
                ) -> tuple[LinkReport, list[EthernetFrame]]:
    """Tally :func:`link_frames` output: the report, whose digest covers the
    light as emitted, before the channel, and the accepted frames."""
    digest = hashlib.sha256()
    accepted: list[EthernetFrame] = []
    reasons: Counter = Counter()
    for emitted, _, result in runs:
        digest.update(emitted.samples)
        if result.accepted:
            accepted.append(result.frame)
        else:
            reasons[result.reason] += 1
    rejected = reasons.total()
    report = LinkReport(len(accepted) + rejected, len(accepted), rejected,
                        tuple(sorted(reasons.items())), digest.hexdigest())
    return report, accepted


def diode_send(frames: list[EthernetFrame], link: DiodeLink, noise: NoiseModel,
               rx_program=None) -> tuple[LinkReport, list[EthernetFrame]]:
    """Send frames across the link and tally what survives:
    ``(report, accepted_frames)``."""
    return link_report(link_frames(frames, link, noise, rx_program))


@dataclass(frozen=True)
class UnidirectionalEvidence:
    passed: bool
    audit_ok: bool
    baseline_digest: str
    adversarial_digest: str
    adversary: str | None = None  # the name of the adversary that failed


def assert_unidirectional(baseline: LinkReport, link: DiodeLink, adversaries: Iterable,
                          frames: list[EthernetFrame], noise: NoiseModel) -> UnidirectionalEvidence:
    """Empirical one-way check over a fixed frame set and seed.

    ``baseline`` is the report of a run with no receive-side program. Runs
    the link once per adversarial receive-side program, stopping at the
    first whose emitter trace digest differs from the baseline's, or at the
    first when the interface partition audit fails. Passes iff every digest
    is bit-identical and the audit holds; receive-side activity must not be
    able to influence the light.
    """
    audit = interface_partition_audit()
    digest = baseline.emitter_trace_digest
    for adversary in adversaries:
        adversarial, _ = diode_send(frames, link, noise, rx_program=adversary)
        if not (audit and adversarial.emitter_trace_digest == digest):
            return UnidirectionalEvidence(False, audit, digest, adversarial.emitter_trace_digest,
                                          adversary.__name__)
    return UnidirectionalEvidence(audit, audit, digest, digest)


def flood_receive_buffers(port: ReceiverPort, frame_index: int) -> None:
    """Adversary: stuff garbage octets into the receive decode buffer.

    Leads with a false SFD so the pipeline locks onto the junk and the
    following frame fails its FCS check.
    """
    port.inject(b"\xd5" + b"\x55\xaa\xff" * 32)


def snoop_receive_state(port: ReceiverPort, frame_index: int) -> None:
    """Adversary: read everything the receive side exposes."""
    port.snapshot()


def poke_receive_interface(port: ReceiverPort, frame_index: int) -> None:
    """Adversary: attempt writes through the receive interface."""
    try:
        port.rx.pullup_ohms = 0.0  # type: ignore[misc]
    except Exception:
        pass
    port.inject(b"\x00")
    port.accepted = 0


def standard_adversaries() -> tuple:
    return (flood_receive_buffers, snoop_receive_state, poke_receive_interface)


@dataclass(frozen=True)
class WiredBackLink(DiodeLink):
    """Negative-control test double: receive activity leaks into the emitter.

    Deliberately violates the one-way contract by scaling emitted light
    with an octet count observed on the receive side. Exists so the
    unidirectionality check has something to fail on.
    """

    def back_channel(self) -> Callable[[ReceiverPort], float]:
        """A fresh tap per run: after each frame it adds the injected total and
        the frame's decoded octets to its count; the next bias is 1e-3 times that."""
        seen = 0

        def bias(port: ReceiverPort) -> float:
            nonlocal seen
            seen += port.injected_total + len(port.decoded[-1])
            return 1e-3 * seen

        return bias
