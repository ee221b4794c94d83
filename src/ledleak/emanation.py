"""Synthesis of LED indicator emanations.

Models the chain from device behaviour to observable light: a drive signal
(serial data, activity bursts, or a static state), first-order LED
brightness dynamics, the pulse-stretching countermeasure found in Ethernet
PHYs, and additive receiver noise.

Emanation classes follow the standard taxonomy for indicator LEDs:

* Class I   - lit level follows a device state (power, link up); low risk.
* Class II  - lit while traffic moves, content destroyed; medium risk.
* Class III - drive follows the data signal bit for bit; high risk, the
  processed data itself can be recovered from the light.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .signals import LogicEventStream, NoiseModel, OpticalTrace, SerialConfig

#: Default trailing window for activity envelopes. Blinks shorter than the
#: human flicker-fusion scale read as steady light, so activity indicators
#: operate around tens of milliseconds.
DEFAULT_ACTIVITY_WINDOW = 0.010


class EmanationClass(Enum):
    """What an indicator LED's light correlates with."""

    STATE = "I"
    ACTIVITY = "II"
    CONTENT = "III"

    @classmethod
    def from_label(cls, label: str) -> "EmanationClass":
        label = label.strip().upper()
        for member in cls:
            if label in (member.value, member.name):
                return member
        raise ConfigError(f"unknown emanation class {label!r} (expected I, II or III)")

    @property
    def label(self) -> str:
        return self.value

    @property
    def risk_rank(self) -> int:
        """Higher means higher risk: III > II > I."""
        return {"I": 0, "II": 1, "III": 2}[self.value]


@dataclass(frozen=True)
class LedModel:
    """First-order LED brightness dynamics.

    ``rise_time`` and ``fall_time`` are exponential time constants toward
    ``on_level`` and ``off_level``. Garden-variety indicator LEDs follow
    their drive well into the nanosecond range, so the defaults are fast
    enough to reproduce sub-microsecond pulses essentially unattenuated.
    """

    rise_time: float = 2e-8
    fall_time: float = 2e-8
    on_level: float = 1.0
    off_level: float = 0.0

    def __post_init__(self) -> None:
        if not self.rise_time > 0 or not self.fall_time > 0:
            raise ValueError("rise_time and fall_time must be positive")
        if not 0 <= self.off_level < self.on_level <= 1:
            raise ValueError("need 0 <= off_level < on_level <= 1")


@dataclass(frozen=True)
class DriveConfig:
    """How a device drives its indicator LED.

    ``serial`` carries the line parameters for data-correlated (Class III)
    and activity (Class II) drives. ``lit_on_high`` selects which logic
    level lights the LED; serial drives default to lighting during logical
    SPACE (level 0, active transmission). ``pulse_stretch`` is the minimum
    lit duration enforced by the drive circuit, 0 disables it.
    """

    serial: SerialConfig | None = None
    lit_on_high: bool = False
    pulse_stretch: float = 0.0
    activity_window: float = DEFAULT_ACTIVITY_WINDOW
    state_schedule: tuple[tuple[float, int], ...] = ((0.0, 1),)
    state_duration: float = 0.1

    def __post_init__(self) -> None:
        if self.pulse_stretch < 0:
            raise ConfigError("pulse_stretch must be >= 0")
        if not self.activity_window > 0:
            raise ConfigError("activity_window must be positive")
        if not self.state_schedule:
            raise ConfigError("state_schedule must not be empty")
        prev = -1.0
        for t, level in self.state_schedule:
            if t < 0 or t <= prev:
                raise ConfigError("state_schedule times must be increasing and >= 0")
            if level not in (0, 1):
                raise ConfigError("state_schedule levels must be 0 or 1")
            prev = t
        if not self.state_duration > prev:
            raise ConfigError("state_duration must extend past the last schedule entry")


@dataclass(frozen=True)
class DeviceProfile:
    """Emanation class plus the LED and drive that realise it."""

    emanation_class: EmanationClass
    led: LedModel = LedModel()
    drive: DriveConfig = DriveConfig()

    def __post_init__(self) -> None:
        if self.emanation_class is EmanationClass.CONTENT and self.drive.serial is None:
            raise ConfigError("Class III profiles require a complete serial configuration")


def uart_encode(data: bytes, cfg: SerialConfig) -> LogicEventStream:
    """Encode octets onto an idle-mark serial line.

    Each octet is one start bit (space), LSB-first data bits, an optional
    parity bit and the configured stop bits. Transmission begins at t=0;
    the stream ends with at least one bit time of trailing idle.
    """
    bit = cfg.bit_time
    edges: list[float] = []
    level = 1
    for i, value in enumerate(data):
        start = i * cfg.frame_time
        cells = [0]
        cells.extend((value >> k) & 1 for k in range(cfg.data_bits))
        if cfg.parity != "none":
            cells.append(cfg.parity_bit(value))
        cells.extend([1] * cfg.stop_bits)
        for k, cell in enumerate(cells):
            if cell != level:
                edges.append(start + k * bit)
                level = cell
    duration = len(data) * cfg.frame_time + bit
    return LogicEventStream(1, tuple(edges), duration)


#: ``np.exp(-x)`` is exactly 0.0 for x >= 746: the smallest subnormal double is e^-744.4.
_EXP_UNDERFLOW = 746.0
#: Head samples per batch of whole segments: temporaries stay near 64 KiB (a
#: single long head aside), below glibc's initial 128 KiB mmap threshold.
#: Mapping and unmapping larger ones raises that threshold, and with it the
#: peak RSS of whatever the process allocates next.
_HEAD_BATCH = 8192


def led_transduce(line: LogicEventStream, led: LedModel, sample_rate: float,
                  active_high: bool = True) -> OpticalTrace:
    """Drive an LED from a logic stream and sample its brightness.

    Each logic level pulls the output exponentially toward ``on_level`` or
    ``off_level`` with the corresponding time constant. ``active_high``
    selects whether logic 1 lights the LED. Sampling below four samples per
    shortest input pulse loses pulses; that only warns. ``sample_rate``
    must be positive and finite (``ValueError`` otherwise).

    One pass over the segments between edges: a scalar recurrence gives
    each segment's start value, every sample is filled with its segment's
    target, and ``target + (start - target) * exp(-t / tau)`` is evaluated
    only over each segment's head, ``t / tau < 746``. Beyond the head
    ``exp`` underflows to exactly 0.0, so the sample is exactly ``target``
    and the output is bit for bit that of evaluating every sample.
    """
    if not 0 < sample_rate < float("inf"):
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
    shortest = line.shortest_pulse()
    if np.isfinite(shortest) and sample_rate < 4.0 / shortest:
        warnings.warn(
            f"sample_rate {sample_rate:g} Hz is below 4x the shortest pulse "
            f"({shortest:g} s); short pulses may be missed",
            stacklevel=2,
        )
    n = int(round(line.duration * sample_rate))
    bounds = np.array((0.0,) + line.edges + (line.duration,))
    starts_at = bounds[:-1]
    seconds = np.diff(bounds)
    first_lit = line.initial_level if active_high else 1 - line.initial_level
    lit = (np.arange(seconds.size) + first_lit) % 2 == 1
    target = np.where(lit, led.on_level, led.off_level)
    rise_decay = np.exp(-seconds / led.rise_time).tolist()
    fall_decay = np.exp(-seconds / led.fall_time).tolist()

    # Segment start values, in Python floats (IEEE doubles) so every step
    # rounds exactly as a per-segment loop would; the LED rises whenever
    # its target lies above the present value. The line held its initial
    # level forever before t=0, so it starts at steady state.
    start: list[float] = []
    rising: list[bool] = []
    value = led.on_level if first_lit else led.off_level
    for tgt, up, down in zip(target.tolist(), rise_decay, fall_decay):
        start.append(value)
        rising.append(tgt > value)
        value = tgt + (value - tgt) * (up if rising[-1] else down)
    tau = np.where(rising, led.rise_time, led.fall_time)
    start_minus_target = np.asarray(start) - target

    # Samples [lo, hi) belong to a segment (empty if it is too short to own
    # one); after the last segment the trace holds its final value.
    hi = np.minimum(n, np.ceil(bounds[1:] * sample_rate - 1e-9)).astype(np.int64)
    lo = np.concatenate(([0], hi[:-1]))
    out = np.repeat(np.append(target, value), np.append(hi - lo, n - hi[-1]))

    # One sample of slack past the underflow point absorbs rounding in t.
    head_end = np.minimum(hi, np.ceil((starts_at + _EXP_UNDERFLOW * tau) * sample_rate) + 1)
    head_len = (head_end - lo).astype(np.int64)
    seg = np.flatnonzero(head_len)
    cuts = np.searchsorted(np.cumsum(head_len[seg]),
                           np.arange(_HEAD_BATCH, head_len.sum(), _HEAD_BATCH))
    for part in np.split(seg, cuts):
        counts = head_len[part]
        owner = np.repeat(part, counts)
        idx = np.arange(owner.size)
        idx += np.repeat(lo[part] - (np.cumsum(counts) - counts), counts)
        # In place, to keep temporaries few; IEEE + and * commute and
        # (-t) / tau == t / -tau, so the bits are those of
        # target + (start - target) * exp(-t / tau).
        x = idx / sample_rate
        x -= starts_at[owner]
        x /= -tau[owner]
        np.exp(x, out=x)
        x *= start_minus_target[owner]
        x += target[owner]
        out[idx] = x
    return OpticalTrace(sample_rate, out)


def intervals_to_stream(intervals: list, duration: float,
                        on_before_start: bool = False) -> LogicEventStream:
    """Rebuild a logic stream from disjoint ON intervals.

    ``on_before_start`` records whether an interval beginning at t=0 was
    already ON before the stream began (folded into the initial level)
    rather than switching ON at t=0 (kept as an edge); the distinction
    matters to anything modelling pre-history, like LED steady state.
    """
    edges: list[float] = []
    for s, e in intervals:
        edges.append(s)
        if e < duration:
            edges.append(e)
    initial = 0
    if edges and edges[0] == 0.0 and on_before_start:
        edges.pop(0)
        initial = 1
    return LogicEventStream(initial, tuple(edges), duration)


def apply_pulse_stretch(line: LogicEventStream, min_on: float) -> LogicEventStream:
    """Extend every ON interval shorter than ``min_on`` to exactly ``min_on``.

    Extensions that reach into a later ON interval merge with it. This is
    the PHY countermeasure that makes high-speed activity visible to human
    eyes while destroying bit-level content. ``min_on = 0`` is the identity
    (stretching turned off).
    """
    if min_on < 0:
        raise ValueError("min_on must be >= 0")
    if min_on == 0:
        return line
    ivs = line.intervals(1)
    if not ivs:
        return line
    merged: list[list[float]] = []
    for s, e in ivs:
        e = max(e, s + min_on)
        # Merge with picosecond tolerance so float rounding of interval
        # arithmetic cannot leave degenerate sub-sample gaps behind.
        if merged and s <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    duration = max(line.duration, merged[-1][1])
    return intervals_to_stream(merged, duration, line.initial_level == 1)


def activity_envelope(line: LogicEventStream, window: float) -> LogicEventStream:
    """Collapse a logic stream to its activity: ON wherever any edge occurred
    within the trailing ``window``.

    Output intervals are the union of ``[edge, edge + window]`` over all
    input edges, so bit-level content is unrecoverable by construction.
    """
    if not window > 0:
        raise ValueError("window must be positive")
    if not line.edges:
        return LogicEventStream(0, (), line.duration)
    merged: list[list[float]] = []
    for e in line.edges:
        s, t = e, e + window
        if merged and s <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], t)
        else:
            merged.append([s, t])
    duration = max(line.duration, merged[-1][1])
    # Activity begins at an edge, so an interval at t=0 switches ON at 0.
    return intervals_to_stream(merged, duration, on_before_start=False)


def add_noise(trace: OpticalTrace, noise: NoiseModel) -> OpticalTrace:
    """Add the ambient offset and seeded Gaussian noise to a trace."""
    if noise.gaussian_sigma == 0 and noise.ambient_offset == 0:
        return trace
    out = trace.samples + noise.ambient_offset
    if noise.gaussian_sigma > 0:
        rng = np.random.default_rng(noise.seed)
        out = out + rng.normal(0.0, noise.gaussian_sigma, size=out.size)
    return OpticalTrace(trace.sample_rate, out, trace.origin_time)


def _schedule_stream(schedule: tuple[tuple[float, int], ...], duration: float) -> LogicEventStream:
    entries = list(schedule)
    if entries[0][0] == 0.0:
        initial = entries[0][1]
        entries = entries[1:]
    else:
        initial = 0
    edges: list[float] = []
    cur = initial
    for t, level in entries:
        if level != cur:
            edges.append(t)
            cur = level
    return LogicEventStream(initial, tuple(edges), duration)


def drive_stream(profile: DeviceProfile, data: bytes) -> LogicEventStream:
    """The LED drive waveform (1 = lit) a profile produces for ``data``.

    This is the ground truth behind :func:`synthesize_class`, before the
    LED dynamics and noise are applied.
    """
    cls = profile.emanation_class
    drive = profile.drive
    if cls is EmanationClass.STATE:
        lit = _schedule_stream(drive.state_schedule, drive.state_duration)
    else:
        if not data:
            raise ConfigError(f"Class {cls.label} synthesis requires nonempty data")
        if drive.serial is None:
            raise ConfigError(f"Class {cls.label} synthesis requires a serial configuration")
        line = uart_encode(data, drive.serial)
        if cls is EmanationClass.CONTENT:
            lit = line if drive.lit_on_high else line.invert()
        else:
            lit = activity_envelope(line, drive.activity_window)
    if drive.pulse_stretch > 0:
        lit = apply_pulse_stretch(lit, drive.pulse_stretch)
    return lit


def synthesize_class(profile: DeviceProfile, data: bytes, noise: NoiseModel,
                     sample_rate: float) -> OpticalTrace:
    """Synthesize the photodetector trace a device profile would leak.

    Class III transduces the serial line itself; Class II transduces the
    activity envelope of that line (content destroyed, timing kept);
    Class I holds the level of its state schedule. Noise is applied last.
    """
    lit = drive_stream(profile, data)
    trace = led_transduce(lit, profile.led, sample_rate)
    return add_noise(trace, noise)
