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

#: Most samples one trace may hold: 2**27 float64 samples are 1 GiB.
#: ``led_transduce`` and the sweep refuse a longer trace before allocating.
MAX_SAMPLES = 2**27


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


@dataclass(frozen=True)
class LedModel:
    """First-order LED brightness dynamics.

    ``rise_time`` and ``fall_time`` are exponential time constants toward
    ``on_level`` and ``off_level``. Garden-variety indicator LEDs follow
    their drive well into the nanosecond range, so the defaults are fast
    enough to reproduce sub-microsecond pulses essentially unattenuated.
    The levels are stored as Python floats (doubles), ``-0.0`` as ``0.0``.
    """

    rise_time: float = 2e-8
    fall_time: float = 2e-8
    on_level: float = 1.0
    off_level: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_level", float(self.on_level))
        object.__setattr__(self, "off_level", float(self.off_level) + 0.0)
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
        if not 0 <= self.pulse_stretch < float("inf"):
            raise ConfigError(f"pulse_stretch must be >= 0 and finite, got {self.pulse_stretch}")
        if not 0 < self.activity_window < float("inf"):
            raise ConfigError(
                f"activity_window must be positive and finite, got {self.activity_window}")
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
        if self.emanation_class is not EmanationClass.STATE and self.drive.serial is None:
            raise ConfigError(f"Class {self.emanation_class.label} profiles require a complete "
                              "serial configuration")


def uart_encode(data: bytes, cfg: SerialConfig) -> LogicEventStream:
    """Encode octets onto an idle-mark serial line.

    Each octet is one start bit (space), LSB-first data bits, an optional
    parity bit and the configured stop bits. Transmission begins at t=0;
    the stream ends with at least one bit time of trailing idle.

    The cells form one row per octet. Read row after row from idle mark,
    each change of level is an edge; cell ``k`` of octet ``i`` starts at
    ``i * frame_time + k * bit_time``.
    """
    bit = cfg.bit_time
    duration = len(data) * cfg.frame_time + bit
    if not duration < float("inf"):
        raise ValueError(f"{len(data)} octets at baud {cfg.baud} overflow the line's duration")
    # The cells of the last octet, the latest, are the first to round onto one instant.
    last = (len(data) - 1) * cfg.frame_time + np.arange(cfg.frame_bits) * bit
    if data and not (last[1:] > last[:-1]).all():
        raise ValueError(f"{len(data)} octets at baud {cfg.baud} with {cfg.idle_between_octets} s "
                         "between octets put bit cells on one instant")
    values = np.frombuffer(bytes(data), dtype=np.uint8)
    data_cells = (values[:, None] >> np.arange(cfg.data_bits, dtype=np.uint8)) & 1
    columns = [np.zeros((values.size, 1), np.uint8), data_cells]
    if cfg.parity != "none":
        odd = data_cells.sum(axis=1, dtype=np.uint8) & 1
        columns.append((odd if cfg.parity == "even" else odd ^ 1)[:, None])
    columns.append(np.ones((values.size, cfg.stop_bits), np.uint8))
    cells = np.concatenate(columns, axis=1)
    flips = np.flatnonzero(np.diff(cells.ravel(), prepend=np.uint8(1)))
    octet, cell = np.divmod(flips, cells.shape[1])
    edges = octet.astype(np.float64) * cfg.frame_time + cell.astype(np.float64) * bit
    return LogicEventStream(1, edges, duration)


#: ``np.exp(-x)`` is exactly 0.0 for x >= 746: the smallest subnormal double is e^-744.4.
_EXP_UNDERFLOW = 746.0
#: ``np.exp(x)`` is finite exactly for x <= log(DBL_MAX), about 709.78.
_EXP_OVERFLOW = float(np.log(np.finfo(np.float64).max))
#: ``log(4) + 1``: the settle point's margin, in time constants (see :func:`led_transduce`).
_SETTLE_MARGIN = float(np.log(4.0) + 1.0)
#: Vector sweeps for the segment start values before a scalar loop: the default
#: LED converges in two, a slow one proves about one segment a sweep.
_SWEEPS = 3
#: Head samples per batch of whole segments: the head temporaries stay near
#: 64 KiB (a single long head aside) rather than growing with all the head
#: samples of an edge-dense line or a slow LED. Where the mmap threshold is
#: not pinned (only ``cli`` pins it, and only on glibc), small temporaries
#: also keep a sliding threshold from rising and lifting the peak RSS.
_HEAD_BATCH = 8192


def _sample_count(duration: float, sample_rate: float) -> int:
    """Samples in a trace ``duration`` s long; the rate and cap checks of :func:`led_transduce`."""
    if not 0 < sample_rate < float("inf"):
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
    if not duration * sample_rate <= MAX_SAMPLES:
        raise ValueError(f"duration {duration!r} s x sample_rate {sample_rate!r} Hz "
                         f"exceeds the cap of {MAX_SAMPLES} samples per trace")
    return int(round(duration * sample_rate))


def led_transduce(line: LogicEventStream, led: LedModel, sample_rate: float) -> OpticalTrace:
    """Drive an LED from a logic stream and sample its brightness.

    Each logic level pulls the output exponentially toward ``on_level`` or
    ``off_level`` with the corresponding time constant. Logic 1 lights the
    LED; pass ``line.invert()`` for an active-low one. Sampling below four
    samples per shortest input pulse loses pulses; that only warns.
    ``sample_rate`` must be positive and finite (``ValueError`` otherwise).

    Vector sweeps over the segments between edges, then a scalar loop if
    need be, give each segment's start value; every sample is filled with
    its target, and ``target + (start - target) * exp(-t / tau)`` is
    evaluated only up to each segment's settle point, past which the sum
    rounds to exactly ``target``. The output is bit for bit that of
    evaluating every sample of every segment in turn.
    """
    return OpticalTrace._adopt(sample_rate, _led_samples(line, led, sample_rate))


def _led_samples(line: LogicEventStream, led: LedModel, sample_rate: float) -> np.ndarray:
    """The samples of :func:`led_transduce`, a fresh float64 array not yet checked finite."""
    n = _sample_count(line.duration, sample_rate)
    shortest = line.shortest_pulse()
    if np.isfinite(shortest) and sample_rate < 4.0 / shortest:
        warnings.warn(
            f"sample_rate {sample_rate:g} Hz is below 4x the shortest pulse "
            f"({shortest:g} s); short pulses may be missed",
            stacklevel=3,
        )
    bounds = np.concatenate(([0.0], line.edge_array, [line.duration]))
    starts_at = bounds[:-1]
    seconds = np.diff(bounds)
    lit = (np.arange(seconds.size) + line.initial_level) % 2 == 1
    target = np.where(lit, led.on_level, led.off_level)
    with np.errstate(over="ignore"):
        rise_decay = np.exp(-seconds / led.rise_time)
        fall_decay = np.exp(-seconds / led.fall_time)

    # start[k + 1] = target + (start[k] - target) * decay, rising if the target
    # lies above start[k]; start[0] is steady state. Sweeps step all segments
    # from the guess start[k + 1] = target[k], in doubles as the loop is: each
    # proves the values up to the first it changes, and one changing none is done.
    # The loop finishes from there, so a slow LED costs _SWEEPS passes more.
    start = np.append(led.on_level if line.initial_level else led.off_level, target)
    done = 0
    for _ in range(_SWEEPS):
        prev = start[:-1]
        step = target + (prev - target) * np.where(target > prev, rise_decay, fall_decay)
        moved = np.flatnonzero(step != start[1:])
        start[1:] = step
        if not moved.size:
            done = target.size
            break
        done = moved[0] + 1
    value = float(start[done])
    tail = []
    for tgt, up, down in zip(target[done:].tolist(), rise_decay[done:].tolist(),
                             fall_decay[done:].tolist()):
        value = tgt + (value - tgt) * (up if tgt > value else down)
        tail.append(value)
    start[done + 1:] = tail
    tau = np.where(target > start[:-1], led.rise_time, led.fall_time)
    start_minus_target = start[:-1] - target

    # Samples [lo, hi) belong to a segment (empty if it is too short to own
    # one); after the last segment the trace holds its final value.
    hi = np.minimum(n, np.ceil(bounds[1:] * sample_rate - 1e-9)).astype(np.int64)
    lo = np.concatenate(([0], hi[:-1]))
    out = np.repeat(np.append(target, value), np.append(hi - lo, n - hi[-1]))

    # target + d rounds to target once |d| is below a quarter of its ulp (half
    # the spacing below a power of two); e**-1 more absorbs exp's rounding, and
    # one sample of slack that of t. A segment starting at its target settles.
    with np.errstate(divide="ignore"):
        settle = np.log(np.abs(start_minus_target)) - np.log(np.spacing(np.abs(target)))
    settle = np.clip(settle + _SETTLE_MARGIN, 0.0, _EXP_UNDERFLOW)
    head_end = np.minimum(hi, np.ceil((starts_at + settle * tau) * sample_rate) + 1)
    head_len = (head_end - lo).astype(np.int64)
    seg = np.flatnonzero(head_len)
    # A head's exponent, -x0, peaks at its first sample, which rounding can put before its edge.
    with np.errstate(over="ignore"):
        x0 = (lo / sample_rate - starts_at) / tau
    if x0[seg].min(initial=0.0) < -_EXP_OVERFLOW:
        raise ValueError(f"a {line.duration:g} s line sampled at {sample_rate:g} Hz puts samples "
                         "too far before their edges: the LED response overflows")
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
    return out


#: Absorbs the float residue of interval arithmetic (seconds).
MERGE_SLACK = 1e-12


def union_stream(starts: np.ndarray, ends: np.ndarray, duration: float, on_before_start: bool,
                 gap: float = MERGE_SLACK) -> LogicEventStream:
    """Logic stream ON over the union of the intervals ``[starts[k], ends[k]]``,
    float64 arrays sorted by start, each end at or after its start.

    An interval joins the union so far when ``start - end <= gap``; for
    nearby times the subtraction is exact, so only gaps up to ``gap`` close.
    ``duration`` extends to the last end. ``on_before_start`` records
    whether an interval beginning at t=0 was already ON before the stream
    began (folded into the initial level) rather than switching ON at t=0
    (kept as an edge); the distinction matters to anything modelling
    pre-history, like LED steady state.
    """
    if not starts.size:
        return LogicEventStream(0, (), duration)
    # A run starts after the last one ended (gap >= 0) and no end precedes its
    # start, so the running maximum of the ends is the end of the current run.
    reach = np.maximum.accumulate(ends)
    runs = np.flatnonzero(starts[1:] - reach[:-1] > gap) + 1
    # Alternating start and end times; the last entry is the open end.
    edges = np.stack((starts[np.append(0, runs)], reach[np.append(runs - 1, -1)]), 1).ravel()
    duration = max(duration, float(edges[-1]))
    if edges[-1] == duration:
        edges = edges[:-1]
    initial = 0
    if on_before_start and edges.size and edges[0] == 0.0:
        edges, initial = edges[1:], 1
    return LogicEventStream(initial, edges, duration)


def apply_pulse_stretch(line: LogicEventStream, min_on: float) -> LogicEventStream:
    """Extend every ON interval shorter than ``min_on`` to exactly ``min_on``.

    Extensions that reach into a later ON interval merge with it. This is
    the PHY countermeasure that makes high-speed activity visible to human
    eyes while destroying bit-level content. ``min_on = 0`` is the identity
    (stretching turned off); ``min_on`` must be finite.
    """
    if not 0 <= min_on < float("inf"):
        raise ValueError(f"min_on must be >= 0 and finite, got {min_on}")
    if min_on == 0:
        return line
    starts, ends = line.interval_bounds(1)
    if not starts.size:
        return line
    return union_stream(starts, np.maximum(ends, starts + min_on),
                        line.duration, line.initial_level == 1)


def activity_envelope(line: LogicEventStream, window: float) -> LogicEventStream:
    """Collapse a logic stream to its activity: ON wherever any edge occurred
    within the trailing ``window``.

    Output intervals are the union of ``[edge, edge + window]`` over all
    input edges, so bit-level content is unrecoverable by construction.
    """
    if not 0 < window < float("inf"):
        raise ValueError(f"window must be positive and finite, got {window}")
    # Activity begins at an edge, so an interval at t=0 switches ON at 0.
    return union_stream(line.edge_array, line.edge_array + window, line.duration,
                        on_before_start=False)


#: Gaussian values drawn per block, so the draw takes 512 KiB at a time;
#: blocks from one generator hold the values of one draw.
_NOISE_BLOCK = 1 << 16


def add_noise(trace: OpticalTrace, noise: NoiseModel) -> OpticalTrace:
    """A copy of ``trace`` with the ambient offset and seeded Gaussian noise added."""
    if noise.gaussian_sigma == 0 and noise.ambient_offset == 0:
        return trace
    out = trace.samples.copy()
    _add_noise_into(out, noise)
    return OpticalTrace._adopt(trace.sample_rate, out, trace.origin_time)


def _gaussian_draw(noise: NoiseModel, n: int) -> np.ndarray | None:
    """The noise's first ``n`` Gaussian values (the same at any larger ``n``), or None."""
    if noise.gaussian_sigma > 0:
        return np.random.default_rng(noise.seed).normal(0.0, noise.gaussian_sigma, size=n)
    return None


def _add_noise_into(samples: np.ndarray, noise: NoiseModel,
                    draw: np.ndarray | None = None) -> None:
    """Add the noise of :func:`add_noise` into ``samples``, taking the head of
    ``draw``, a longer :func:`_gaussian_draw`, if given."""
    # Adding a zero offset changes only -0.0, into 0.0, and so does adding the
    # draw: normal(0.0, sigma) computes 0.0 + sigma * z, never -0.0. So the
    # offset pass runs only for a nonzero offset; no sigma and no offset add nothing.
    if noise.ambient_offset:
        samples += noise.ambient_offset
    if draw is not None:
        samples += draw[:samples.size]
    elif noise.gaussian_sigma > 0:
        rng = np.random.default_rng(noise.seed)
        for lo in range(0, samples.size, _NOISE_BLOCK):
            block = samples[lo:lo + _NOISE_BLOCK]
            block += rng.normal(0.0, noise.gaussian_sigma, size=block.size)


def _schedule_stream(schedule: tuple[tuple[float, int], ...], duration: float) -> LogicEventStream:
    # An entry at t=0 sets the initial level, so it adds no edge.
    initial = schedule[0][1] if schedule[0][0] == 0.0 else 0
    edges: list[float] = []
    cur = initial
    for t, level in schedule:
        if level != cur:
            edges.append(t)
            cur = level
    return LogicEventStream(initial, edges, duration)


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
    return _synthesize(drive_stream(profile, data), profile.led, sample_rate, noise)


def _synthesize(lit: LogicEventStream, led: LedModel, sample_rate: float, noise: NoiseModel,
                draw: np.ndarray | None = None) -> OpticalTrace:
    """``add_noise(led_transduce(lit, led, sample_rate), noise)``, with the noise
    added into the fresh LED samples, which are then checked finite once."""
    samples = _led_samples(lit, led, sample_rate)
    _add_noise_into(samples, noise, draw)
    return OpticalTrace._adopt(sample_rate, samples)
