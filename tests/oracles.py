"""Independent reference implementations used only to generate and check
expected test values.

Everything here is deliberately brute force (bit-serial loops, dense
sampling) and shares no code with the package under test, but for the
trace header parse, and the stretch sweep's row-by-row loop, which checks
only how the sweep shares one noise draw.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from ledleak.emanation import (
    DeviceProfile,
    DriveConfig,
    EmanationClass,
    LedModel,
    synthesize_class,
    uart_encode,
)
from ledleak.errors import NoSignalError
from ledleak.formats import EVENTS_MAGIC, _read_header
from ledleak.recovery import bit_error_rate, leakage_mutual_information, recover_data
from ledleak.signals import LogicEventStream, OpticalTrace


# ---------------------------------------------------------------------------
# CRC-32 (bit-serial, reflected, init all-ones, final complement)
# ---------------------------------------------------------------------------

def crc32_bitserial(data: bytes) -> int:
    """One bit at a time, LSB first, reflected polynomial 0xEDB88320."""
    reg = 0xFFFFFFFF
    for byte in data:
        for i in range(8):
            bit = (byte >> i) & 1
            if (reg ^ bit) & 1:
                reg = (reg >> 1) ^ 0xEDB88320
            else:
                reg >>= 1
    return reg ^ 0xFFFFFFFF


def crc32_bitserial_le(data: bytes) -> bytes:
    return crc32_bitserial(data).to_bytes(4, "little")


# ---------------------------------------------------------------------------
# Cut-through pipeline: the values of its valid fields
# ---------------------------------------------------------------------------

def field_values(state) -> dict:
    """The values of the fields a ``PipelineState`` has marked valid so far."""
    values = {"dst": state.dst, "src": state.src, "ethertype": state.ethertype,
              "length": state.frame_length, "payload": state.payload, "fcs_ok": state.fcs_ok}
    return {name: values[name] for name in state.fields_valid if name in values}


# ---------------------------------------------------------------------------
# MII nibble values
# ---------------------------------------------------------------------------

def nibbles_in_range(values) -> bool:
    """Whether every value of a nibble stream fits in 4 bits; true when empty."""
    return not values or max(values) <= 15


def octets_to_nibbles_loop(octets: bytes) -> bytes:
    """Each octet's low nibble, then its high nibble, one octet at a time."""
    out = bytearray()
    for octet in octets:
        out.append(octet & 0xF)
        out.append(octet >> 4)
    return bytes(out)


def nibbles_to_octets_loop(nibbles: bytes) -> bytes:
    """One octet per pair of nibbles, low nibble first; a dangling half octet is dropped."""
    return bytes(nibbles[i] | nibbles[i + 1] << 4 for i in range(0, len(nibbles) - 1, 2))


# ---------------------------------------------------------------------------
# Frame hex dump
# ---------------------------------------------------------------------------

def octets_to_hexline_join(octets: bytes) -> str:
    """Lowercase two-digit hex octets joined by single spaces, one f-string each."""
    return " ".join(f"{b:02x}" for b in octets)


# ---------------------------------------------------------------------------
# UART cell enumeration (hand oracle)
# ---------------------------------------------------------------------------

def uart_cells(octets: bytes, data_bits: int = 8, parity: str = "none",
               stop_bits: int = 1) -> list[int]:
    """Flat list of bit-cell levels for back-to-back frames, no idle gaps."""
    cells: list[int] = []
    for value in octets:
        cells.append(0)
        for k in range(data_bits):
            cells.append((value >> k) & 1)
        if parity != "none":
            ones = bin(value & ((1 << data_bits) - 1)).count("1")
            pbit = ones % 2 if parity == "even" else (ones % 2) ^ 1
            cells.append(pbit)
        cells.extend([1] * stop_bits)
    return cells


def uart_edges_from_cells(cells: list[int], bit_time: float) -> list[float]:
    """Edge instants of an idle-high line emitting the given cells from t=0."""
    edges = []
    level = 1
    for k, cell in enumerate(cells):
        if cell != level:
            edges.append(k * bit_time)
            level = cell
    return edges


# ---------------------------------------------------------------------------
# UART encode and decode loops (before the vectorised passes)
# ---------------------------------------------------------------------------

def parity_bit(cfg, value: int) -> int:
    """The parity cell of ``value``'s data bits under ``cfg``'s parity."""
    ones = bin(value & ((1 << cfg.data_bits) - 1)).count("1")
    return ones % 2 if cfg.parity == "even" else (ones % 2) ^ 1


def uart_encode_loop(data: bytes, cfg) -> tuple[int, tuple, float]:
    """One cell at a time; returns the stream as (initial_level, edges, duration)."""
    bit = cfg.bit_time
    edges: list[float] = []
    level = 1
    for i, value in enumerate(data):
        start = i * cfg.frame_time
        cells = [0]
        cells.extend((value >> k) & 1 for k in range(cfg.data_bits))
        if cfg.parity != "none":
            cells.append(parity_bit(cfg, value))
        cells.extend([1] * cfg.stop_bits)
        for k, cell in enumerate(cells):
            if cell != level:
                edges.append(start + k * bit)
                level = cell
    duration = len(data) * cfg.frame_time + bit
    return 1, tuple(edges), duration


def _falling_edges(events) -> list[float]:
    init = events.initial_level
    return [t for k, t in enumerate(events.edges) if (init ^ (k & 1)) == 1]


def uart_decode_loop(events, cfg) -> tuple[bytes, int, int, float]:
    """One bisect per bit cell; returns (octets, framing_errors,
    parity_errors, baud_used)."""
    bit = cfg.bit_time
    slack = bit * 1e-6
    falls = _falling_edges(events)
    octets = bytearray()
    framing = 0
    parity_bad = 0
    t = 0.0
    while True:
        i = bisect_left(falls, t - slack)
        if i >= len(falls):
            break
        ts = falls[i]
        if level_at(events, ts + 0.5 * bit) != 0:
            t = ts + 0.5 * bit  # glitch, not a real start bit
            continue
        value = 0
        for k in range(cfg.data_bits):
            if level_at(events, ts + (1.5 + k) * bit):
                value |= 1 << k
        pos = 1.5 + cfg.data_bits
        parity_err = False
        if cfg.parity != "none":
            parity_err = level_at(events, ts + pos * bit) != parity_bit(cfg, value)
            pos += 1
        stops_ok = all(
            level_at(events, ts + (pos + j) * bit) == 1 for j in range(cfg.stop_bits)
        )
        last_stop_sample = ts + (pos + cfg.stop_bits - 1) * bit
        if stops_ok:
            octets.append(value)
            if parity_err:
                parity_bad += 1
        else:
            framing += 1
        # Scan on from the last stop sample: the line reads mark there on a
        # good frame, so the next falling edge is the next idle-to-start
        # transition. This also resynchronises after a framing error and is
        # immune to accumulated start-edge quantisation.
        t = last_stop_sample
    return bytes(octets), framing, parity_bad, cfg.baud


# ---------------------------------------------------------------------------
# Dense-grid interval oracles (pulse stretching, activity windows)
# ---------------------------------------------------------------------------

def sample_levels(initial: int, edges: list[float], duration: float,
                  dt: float) -> np.ndarray:
    n = int(round(duration / dt))
    t = np.arange(n) * dt
    k = np.searchsorted(np.asarray(edges, dtype=float), t, side="right")
    return (initial ^ (k & 1)).astype(np.int8)


def intervals_from_dense(levels: np.ndarray, dt: float) -> list[tuple[float, float]]:
    """Maximal runs of ones as (start, end) times."""
    out = []
    start = None
    for i, v in enumerate(levels):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append((start * dt, i * dt))
            start = None
    if start is not None:
        out.append((start * dt, len(levels) * dt))
    return out


def stretch_intervals(ivs: list[tuple[float, float]], min_on: float) -> list[tuple[float, float]]:
    """Interval-union oracle: lengthen each short interval, then merge."""
    merged: list[list[float]] = []
    for s, e in ivs:
        e = max(e, s + min_on)
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def envelope_intervals(edges: list[float], window: float) -> list[tuple[float, float]]:
    """Union of [edge, edge + window] over all edges."""
    merged: list[list[float]] = []
    for e in sorted(edges):
        s, t = e, e + window
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t)
        else:
            merged.append([s, t])
    return [(s, e) for s, e in merged]


# ---------------------------------------------------------------------------
# Interval-merge loops (one per caller, before they shared one union)
# ---------------------------------------------------------------------------
# Each returns the stream as (initial_level, edges, duration).

def intervals_to_triple(intervals: list, duration: float,
                        on_before_start: bool = False) -> tuple[int, tuple, float]:
    """Stream ON over disjoint intervals; an interval at t=0 folds into the
    initial level when ``on_before_start``."""
    edges: list[float] = []
    for s, e in intervals:
        edges.append(s)
        if e < duration:
            edges.append(e)
    initial = 0
    if edges and edges[0] == 0.0 and on_before_start:
        edges.pop(0)
        initial = 1
    return initial, tuple(edges), duration


def intervals(line, level: int = 1) -> list[tuple[float, float]]:
    """Maximal intervals during which ``line`` holds ``level``, as pairs of floats."""
    starts, ends = line.interval_bounds(level)
    return list(zip(starts.tolist(), ends.tolist()))


def intervals_loop(line, level: int = 1) -> list[tuple[float, float]]:
    """Maximal intervals at ``level``, one edge at a time; an empty one is skipped."""
    out: list[tuple[float, float]] = []
    prev = 0.0
    cur = line.initial_level
    for e in line.edges:
        if cur == level and e > prev:
            out.append((prev, e))
        prev = e
        cur ^= 1
    if cur == level and line.duration > prev:
        out.append((prev, line.duration))
    return out


def union_stream_loop(intervals, duration: float, on_before_start: bool,
                      gap: float) -> tuple[int, tuple, float]:
    """``emanation.union_stream`` one ``(start, end)`` pair at a time: a pair
    joins the run so far when ``start - end <= gap``."""
    edges: list[float] = []  # alternating start and end times; the last is the open end
    for s, e in intervals:
        if edges and s - edges[-1] <= gap:
            edges[-1] = max(edges[-1], e)
        else:
            edges += (s, e)
    if edges:
        duration = max(duration, edges[-1])
        if edges[-1] == duration:
            edges.pop()
    initial = 0
    if on_before_start and edges and edges[0] == 0.0:
        edges.pop(0)
        initial = 1
    return initial, tuple(edges), duration


def pulse_stretch_loop(line, min_on: float) -> tuple[int, tuple, float]:
    """Pulse stretching, merging when ``s <= end + 1e-12``."""
    ivs = intervals(line, 1)
    if min_on == 0 or not ivs:
        return line.initial_level, line.edges, line.duration
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
    return intervals_to_triple(merged, duration, line.initial_level == 1)


def activity_envelope_loop(line, window: float) -> tuple[int, tuple, float]:
    """Union of [edge, edge + window], merging when ``s <= end + 1e-12``."""
    if not line.edges:
        return 0, (), line.duration
    merged: list[list[float]] = []
    for e in line.edges:
        s, t = e, e + window
        if merged and s <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], t)
        else:
            merged.append([s, t])
    duration = max(line.duration, merged[-1][1])
    return intervals_to_triple(merged, duration, on_before_start=False)


def trace_activity_loop(events, window: float) -> tuple[int, tuple, float]:
    """Classifier envelope: ON intervals with gaps ``s - end <= window`` closed."""
    merged: list[list[float]] = []
    for s, e in intervals(events, 1):
        if merged and s - merged[-1][1] <= window:
            merged[-1][1] = e
        else:
            merged.append([s, e])
    return intervals_to_triple(merged, events.duration, events.initial_level == 1)


# ---------------------------------------------------------------------------
# First-order LED step response (closed form)
# ---------------------------------------------------------------------------

def exp_approach(v0: float, target: float, tau: float, t: float) -> float:
    return target + (v0 - target) * math.exp(-t / tau)


def led_transduce_loop(line, led, sample_rate: float, active_high: bool = True) -> np.ndarray:
    """LED brightness samples, one segment between edges at a time.

    Evaluates the exponential at every sample of every segment; the
    vectorised ``led_transduce`` must match it byte for byte.
    """
    n = int(round(line.duration * sample_rate))
    out = np.empty(n, dtype=np.float64)
    bounds = (0.0,) + line.edges + (line.duration,)
    level = line.initial_level
    lit = level if active_high else 1 - level
    # The line held its initial level forever before t=0: start at steady state.
    value = led.on_level if lit else led.off_level
    idx = 0
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        if j > 0:
            level ^= 1
        lit = level if active_high else 1 - level
        target = led.on_level if lit else led.off_level
        tau = led.rise_time if target > value else led.fall_time
        hi = min(n, int(np.ceil(b * sample_rate - 1e-9)))
        if hi > idx:
            t = np.arange(idx, hi) / sample_rate - a
            out[idx:hi] = target + (value - target) * np.exp(-t / tau)
            idx = hi
        value = target + (value - target) * np.exp(-(b - a) / tau)
    if idx < n:
        out[idx:] = value
    return out


# ---------------------------------------------------------------------------
# Hamming distance over octet sequences (definition oracle)
# ---------------------------------------------------------------------------

def ber_definition(sent: bytes, recovered: bytes) -> float:
    n = max(len(sent), len(recovered))
    if n == 0:
        return 0.0
    errors = 0
    for i in range(n):
        if i < len(sent) and i < len(recovered):
            errors += bin(sent[i] ^ recovered[i]).count("1")
        else:
            errors += 8
    return errors / (8 * n)


# ---------------------------------------------------------------------------
# Sample instants and line levels on them (the grid built in full)
# ---------------------------------------------------------------------------

def level_at(line, t: float) -> int:
    """The level of ``line`` at instant ``t``; an edge at ``t`` counts."""
    return line.initial_level ^ (bisect_right(line.edges, t) & 1)


def trace_times(trace) -> np.ndarray:
    """Every sample instant, ``origin_time + i / sample_rate``, as an array."""
    return trace.origin_time + np.arange(trace.samples.size) / trace.sample_rate


def levels_at_sorted(line, times: np.ndarray) -> np.ndarray:
    """``line.levels_at`` for a non-decreasing 1-D array of instants.

    Places the edges among the instants instead of the instants among the
    edges: edge ``e`` is counted at instant ``t_i`` iff ``e <= t_i``, so
    each run of instants between consecutive edges takes one level. The
    result is undefined if ``times`` is not sorted.
    """
    j = np.searchsorted(times, line.edge_array, side="left")
    runs = np.diff(j, prepend=0, append=len(times))
    levels = (line.initial_level ^ (np.arange(runs.size) & 1)).astype(np.int8)
    return np.repeat(levels, runs)


# ---------------------------------------------------------------------------
# Leakage mutual information (boolean overlap mask, levels_at per instant)
# ---------------------------------------------------------------------------

def leakage_mutual_information_mask(trace, data_line, bins: int = 16) -> float:
    if bins < 2:
        raise ValueError("bins must be >= 2")
    t = trace_times(trace)
    mask = (t >= 0.0) & (t <= data_line.duration)
    if not mask.any():
        raise ValueError("trace and data line do not overlap in time")
    x = trace.samples[mask]
    y = data_line.levels_at(t[mask]).astype(np.int64)
    lo_v, hi_v = float(x.min()), float(x.max())
    span = hi_v - lo_v
    if span <= 0:
        return 0.0
    xi = np.minimum((bins * (x - lo_v) / span).astype(np.int64), bins - 1)
    joint = np.bincount(xi * 2 + y, minlength=bins * 2).reshape(bins, 2).astype(np.float64)
    n = joint.sum()
    p = joint / n
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0
    mi = float(np.sum(p[nz] * np.log2(p[nz] / (px @ py)[nz])))
    return max(0.0, mi)


# ---------------------------------------------------------------------------
# Envelope correlation of classify_trace (np.corrcoef itself)
# ---------------------------------------------------------------------------

def pearson01_corrcoef(a: np.ndarray, b: np.ndarray) -> float:
    """``recovery._pearson01``: 0 for a flat envelope, else ``np.corrcoef``
    clamped to [0, 1]."""
    if a.std() == 0 or b.std() == 0:
        return 0.0
    r = float(np.corrcoef(a, b)[0, 1])
    return min(1.0, max(0.0, r))


# ---------------------------------------------------------------------------
# Hysteresis threshold detection (one sample at a time)
# ---------------------------------------------------------------------------

def threshold_detect_loop(trace, hysteresis_fraction: float = 0.2):
    """(initial level, edge times, duration); ``None`` for an empty or flat trace."""
    s = trace.samples.tolist()
    if not s:
        return None
    lo_v, hi_v = min(s), max(s)
    span = hi_v - lo_v
    if span < 1e-9:
        return None
    mid = 0.5 * (lo_v + hi_v)
    half_band = 0.5 * hysteresis_fraction * span
    upper, lower = mid + half_band, mid - half_band
    state = initial = 1 if s[0] >= mid else 0
    edges = []
    for i, v in enumerate(s):
        level = 1 if v > upper else 0 if v < lower else state
        if level != state:
            edges.append(i / trace.sample_rate)
            state = level
    return initial, tuple(edges), len(s) / trace.sample_rate


# ---------------------------------------------------------------------------
# optrace / optevents readers (one Python ``float`` per line)
# ---------------------------------------------------------------------------
# The trace header parse is the package's own: only the body loop is the
# reference. The package reads no events file, so that header is parsed here.

def read_trace_loop(path):
    with open(path, encoding="utf-8") as fh:
        header = _read_header(fh, path)
        samples = np.fromiter((float(line) for line in fh if line.strip()), dtype=np.float64)
    return OpticalTrace(header["sample_rate_hz"], samples, header["origin_s"])


def read_events_loop(path):
    """The stream in an events file: ``key=value`` header tokens after the
    magic, then one edge timestamp per line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(EVENTS_MAGIC):
            raise ValueError(f"{path}: not a {EVENTS_MAGIC!r} file")
        fields = dict(token.split("=", 1) for token in header[len(EVENTS_MAGIC):].split())
        edges = tuple(float(line) for line in fh if line.strip())
    return LogicEventStream(int(fields["initial"]), edges, float(fields["duration_s"]))


# ---------------------------------------------------------------------------
# Additive noise (the trace's own full-length draw)
# ---------------------------------------------------------------------------

def add_noise_samples(trace, noise) -> np.ndarray:
    """The samples of ``add_noise(trace, noise)``: offset first, then a draw
    of exactly ``n_samples`` values; no noise at all leaves the samples."""
    if noise.gaussian_sigma == 0 and noise.ambient_offset == 0:
        return trace.samples
    out = trace.samples + noise.ambient_offset
    if noise.gaussian_sigma > 0:
        out += np.random.default_rng(noise.seed).normal(0.0, noise.gaussian_sigma, out.size)
    return out


# ---------------------------------------------------------------------------
# Pulse-stretch sweep (each row synthesized on its own, with its own draw)
# ---------------------------------------------------------------------------

def stretch_sweep_rows(data, serial, stretch_seconds, sample_rate, noise) -> list[dict]:
    line = uart_encode(data, serial)
    rows = []
    for min_on in sorted(stretch_seconds):
        drive = DriveConfig(serial=serial, pulse_stretch=min_on)
        profile = DeviceProfile(EmanationClass.CONTENT, LedModel(), drive)
        trace = synthesize_class(profile, data, noise, sample_rate)
        try:
            recovered = recover_data(trace, serial).octets
        except NoSignalError:
            recovered = b""
        ber = bit_error_rate(data, recovered)
        mi = leakage_mutual_information(trace, line, bins=16)
        rows.append({"min_on_s": min_on, "ber": ber, "mi_bits": mi})
    return rows
