"""Recovery and analysis of optical leakage traces.

The attacker's half of the toolkit: threshold a photodetector trace back
into a logic stream, estimate the baud rate, decode the serial data,
classify which emanation class produced a trace, and quantify the leak as
bit error rate or mutual information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emanation import (
    DEFAULT_ACTIVITY_WINDOW,
    EmanationClass,
    activity_envelope,
    uart_encode,
    union_stream,
)
from .errors import EstimationError, NoSignalError
from .signals import STANDARD_BAUDS, LogicEventStream, OpticalTrace, SerialConfig

_FLAT_RANGE = 1e-9


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a serial decode pass."""

    octets: bytes
    framing_errors: int
    parity_errors: int
    baud_used: float

    def to_dict(self) -> dict:
        return {
            "octets_hex": self.octets.hex(),
            "octet_count": len(self.octets),
            "framing_errors": self.framing_errors,
            "parity_errors": self.parity_errors,
            "baud_used": self.baud_used,
        }


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class evidence scores and the assigned emanation class.

    The assigned class has the maximal score; ties break toward the
    higher-risk class (III > II > I).
    """

    assigned: EmanationClass
    score_state: float
    score_activity: float
    score_content: float

    def to_dict(self) -> dict:
        return {
            "assigned": self.assigned.label,
            "score_state": self.score_state,
            "score_activity": self.score_activity,
            "score_content": self.score_content,
        }


def threshold_detect(trace: OpticalTrace, hysteresis_fraction: float = 0.2) -> LogicEventStream:
    """Slice a trace into a logic stream at the midpoint of its range.

    A symmetric hysteresis band of ``hysteresis_fraction`` of the observed
    range suppresses noise re-triggering; edges land on sample instants.
    Raises :class:`NoSignalError` for an empty or flat trace.
    """
    if not 0 <= hysteresis_fraction < 0.5:
        raise ValueError(f"hysteresis_fraction must be in [0, 0.5), got {hysteresis_fraction}")
    s = trace.samples
    if s.size == 0:
        raise NoSignalError("no signal: empty trace")
    lo_v, hi_v = float(s.min()), float(s.max())
    span = hi_v - lo_v
    if span < _FLAT_RANGE:
        raise NoSignalError(f"no signal: flat trace (range {span:g})")
    mid = 0.5 * (lo_v + hi_v)
    half_band = 0.5 * hysteresis_fraction * span
    marks = (s > mid + half_band).view(np.int8)
    marks -= s < mid - half_band
    state0 = 1 if s[0] >= mid else 0
    # Each run of equal marks outside the band flips the level if its side
    # differs from that of the last such run, or from state0.
    starts = np.concatenate(([0], np.flatnonzero(marks[1:] != marks[:-1]) + 1))
    runs = marks[starts]
    starts, sides = starts[runs != 0], (runs[runs != 0] > 0).astype(np.int8)
    flips = np.flatnonzero(np.diff(sides, prepend=np.int8(state0)))
    return LogicEventStream(state0, starts[flips] / trace.sample_rate, s.size / trace.sample_rate)


def estimate_baud(events: LogicEventStream, candidates: tuple[float, ...] | None = None) -> float:
    """Pick the candidate baud whose bit time best divides the edge spacing.

    Scores each candidate by the total deviation of inter-edge intervals
    from whole multiples of its bit time, measured in bit units so that
    integer-ratio faster rates do not alias; ties keep the slower rate.
    """
    if candidates is None:
        candidates = STANDARD_BAUDS
    if not candidates:
        raise ValueError("candidate list must not be empty")
    if len(events.edges) < 4:
        raise EstimationError(f"need at least 4 edges to estimate baud, got {len(events.edges)}")
    deltas = np.diff(events.edge_array)
    best = None
    best_score = np.inf
    for baud in sorted(candidates):
        cells = deltas * baud
        m = np.maximum(1.0, np.round(cells))
        score = float(np.sum(np.abs(cells - m)))
        if score < best_score - 1e-12:
            best = baud
            best_score = score
    return float(best)


#: Bit-centre levels read per block of candidate starts: temporaries stay
#: near 64 KiB rather than growing with the edges of a noisy trace, small
#: enough where ``cli`` has not pinned the mmap threshold (see ``emanation._HEAD_BATCH``).
_DECODE_BATCH = 8192


def uart_decode(events: LogicEventStream, cfg: SerialConfig) -> DecodeResult:
    """Decode an idle-mark serial line by mid-bit sampling from start edges.

    Every falling edge is a candidate start bit; its cells are sampled at
    ``ts + c * bit_time``, ``c`` = 0.5 (start), 1.5, 2.5, ... through the
    data, parity and stop bits. A candidate whose start sample does not
    read space is a glitch. Decoding walks the candidates from the first
    fall: after a glitch it goes on from the first fall at or after the
    start sample, after a frame from the first fall at or after the last
    stop sample (both less a slack of 1e-6 bit times). The line reads mark
    there on a good frame, so that fall is the next idle-to-start
    transition; this also resynchronises after a framing error and is
    immune to accumulated start-edge quantisation. A frame whose stop bits
    fail to read mark counts as a framing error. Errors are counted, never
    raised. The walk always moves forward, even at bit times below the
    float resolution of the edge times.
    """
    bit = cfg.bit_time
    slack = bit * 1e-6
    falls = events.edge_array[1 - events.initial_level::2]
    offsets = (0.5 + np.arange(cfg.frame_bits)) * bit
    db = cfg.data_bits
    has_parity = cfg.parity != "none"
    weights = 1 << np.arange(db)
    octets = bytearray()
    framing = 0
    parity_bad = 0
    block = max(1, _DECODE_BATCH // cfg.frame_bits)
    i = 0
    while i < falls.size:
        lo = i
        ts = falls[lo:lo + block]
        hi = lo + ts.size
        start = ts + offsets[0]
        glitch = events.levels_at(start) != 0
        # Successor of each candidate: the first fall at or after its start
        # sample if a glitch, else its last stop sample, less slack; never
        # the candidate itself.
        resume = np.where(glitch, start, ts + offsets[-1])
        nxt = np.maximum(np.searchsorted(falls, resume - slack, side="left"),
                         np.arange(lo + 1, hi + 1)).tolist()
        visited = []
        while i < hi:
            visited.append(i - lo)
            i = nxt[i - lo]
        # Whole frames are read only where the walk went, glitches aside.
        starts = ts[visited][~glitch[visited]]
        frames = events.levels_at(starts[:, None] + offsets)
        good = frames[:, 1 + db + has_parity:].all(axis=1)
        framing += int(good.size - np.count_nonzero(good))
        data = frames[good, 1:1 + db]
        octets += (data @ weights).astype(np.uint8).tobytes()
        if has_parity:
            expected = (data.sum(axis=1) + (cfg.parity == "odd")) & 1
            parity_bad += int(np.count_nonzero(frames[good, 1 + db] != expected))
    return DecodeResult(bytes(octets), framing, parity_bad, cfg.baud)


def decode_auto_polarity(events: LogicEventStream, cfg: SerialConfig) -> DecodeResult:
    """Decode without knowing which optical level is mark.

    Tries both polarities and keeps the decode with fewer errors (then more
    octets). Inverted is tried first since serial drives conventionally
    light the LED during SPACE.
    """
    results = [uart_decode(events.invert(), cfg), uart_decode(events, cfg)]
    return min(results, key=lambda r: (r.framing_errors + r.parity_errors, -len(r.octets)))


def recover_data(trace: OpticalTrace, cfg: SerialConfig,
                 hysteresis_fraction: float = 0.2) -> DecodeResult:
    """Full recovery pipeline: threshold the trace, then decode either polarity."""
    events = threshold_detect(trace, hysteresis_fraction)
    return decode_auto_polarity(events, cfg)


def _grid_index(origin: float, rate: float, n: int, values) -> np.ndarray:
    """``np.searchsorted(origin + np.arange(n) / rate, values)`` for a 1-D
    ``values``, without building the grid: the instants at and before
    ``ceil((v - origin) * rate)`` settle most values, bisection the rest."""
    v = np.asarray(values, dtype=np.float64)
    i = np.clip(np.ceil((v - origin) * rate), 0, n).astype(np.int64)
    # The answer, the first index in [0, n] at or after v (n always is), is in [lo, hi].
    lo = np.where((i > 0) & (origin + (i - 1) / rate >= v), 0, i)
    hi = np.where((i < n) & (origin + i / rate < v), n, i)
    todo = np.flatnonzero(lo < hi)
    while todo.size:
        mid = (lo[todo] + hi[todo]) // 2
        after = origin + mid / rate >= v[todo]
        hi[todo] = np.where(after, mid, hi[todo])
        lo[todo] = np.where(after, lo[todo], mid + 1)
        todo = todo[lo[todo] < hi[todo]]
    return lo


def _grid_levels(line: LogicEventStream, origin: float, rate: float,
                 lo: int, hi: int) -> np.ndarray:
    """``line.levels_at`` instants ``lo`` to ``hi - 1`` of the grid
    ``origin + i / rate``: each run of instants between edges takes one level."""
    j = np.clip(_grid_index(origin, rate, hi, line.edge_array), lo, hi) - lo
    levels = (line.initial_level ^ (np.arange(j.size + 1) & 1)).astype(np.int8)
    return np.repeat(levels, np.diff(j, prepend=0, append=hi - lo))


def _pearson01(a: np.ndarray, b: np.ndarray) -> float:
    """``np.corrcoef(a, b)[0, 1]`` of 0/1 envelopes clamped to [0, 1], 0 if
    either is flat: ``np.cov``'s steps, in one 2 x n buffer instead of its copies."""
    if a.min() == a.max() or b.min() == b.max():
        return 0.0
    x = np.array([a, b], dtype=np.float64)
    x -= x.mean(axis=1)[:, None]
    c = np.dot(x, x.T) * np.true_divide(1, a.size - 1)
    d = np.sqrt(np.diag(c))
    return min(1.0, max(0.0, float(c[0, 1] / d[0] / d[1])))


def classify_trace(trace: OpticalTrace, reference: bytes, cfg: SerialConfig,
                   window: float = DEFAULT_ACTIVITY_WINDOW,
                   hysteresis_fraction: float = 0.2) -> ClassificationReport:
    """Score a trace against reference traffic and assign its emanation class.

    ``score_content`` is the fraction of reference octets recovered exactly
    by the full pipeline; ``score_activity`` correlates the trace's activity
    envelope with the reference traffic's envelope; ``score_state`` is one
    minus the range-normalised variance. All three are scale-invariant. A
    flat trace classifies as Class I rather than erroring.
    """
    if not reference:
        raise ValueError("reference must not be empty")
    try:
        events = threshold_detect(trace, hysteresis_fraction)
    except NoSignalError:
        return ClassificationReport(EmanationClass.STATE, 1.0, 0.0, 0.0)

    decoded = decode_auto_polarity(events, cfg)
    matches = sum(a == b for a, b in zip(decoded.octets, reference))
    score_content = matches / len(reference)

    # Close sub-window gaps between ON intervals: fast toggling collapses
    # into bursts without padding slow signals, so an envelope-shaped trace
    # maps onto itself.
    trace_env = union_stream(*events.interval_bounds(1), events.duration,
                             events.initial_level == 1, gap=window)
    ref_env = activity_envelope(uart_encode(reference, cfg), window)
    grid = (0.0, trace.sample_rate, 0, trace.n_samples)
    score_activity = _pearson01(_grid_levels(trace_env, *grid), _grid_levels(ref_env, *grid))

    s = trace.samples  # not flat: threshold_detect refuses a flat trace
    score_state = 1.0 - min(1.0, 4.0 * float(s.var()) / float(s.max() - s.min())**2)

    assigned = EmanationClass.CONTENT
    best = score_content
    if score_activity > best:
        assigned, best = EmanationClass.ACTIVITY, score_activity
    if score_state > best:
        assigned = EmanationClass.STATE
    return ClassificationReport(assigned, score_state, score_activity, score_content)


def bit_error_rate(sent: bytes, recovered: bytes) -> float:
    """Hamming distance over ``8 * max(len)`` bit positions, as a fraction.

    Octets missing from the shorter sequence count as all bits wrong, so
    the result is 0 iff the sequences are identical.
    """
    n = max(len(sent), len(recovered))
    if n == 0:
        return 0.0
    missing = n - min(len(sent), len(recovered))
    errors = sum((a ^ b).bit_count() for a, b in zip(sent, recovered)) + 8 * missing
    return errors / (8 * n)


#: Samples binned per block: beside the int8 line levels, one float64 block
#: buffer, one code buffer and ``np.bincount``'s intp copy of a block.
_MI_BLOCK = 1 << 15


def leakage_mutual_information(trace: OpticalTrace, data_line: LogicEventStream,
                               bins: int = 16) -> float:
    """Plug-in mutual information between trace amplitude and the data line.

    The trace is binned into equal-width amplitude bins and paired with the
    line level resampled at trace instants over the overlapping time span.
    For a binary line the result lies in [0, 1] bit. Histogram plug-in
    estimate, no bias correction: a lower-sophistication bound.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    grid = (trace.origin_time, trace.sample_rate)
    # The sample instants are sorted, so the overlap [0, duration] is a
    # slice; an instant is past duration iff at or after the next float.
    lo, hi = _grid_index(*grid, trace.n_samples, [0.0, np.nextafter(data_line.duration, np.inf)])
    if lo >= hi:
        raise ValueError("trace and data line do not overlap in time")
    x = trace.samples[lo:hi]
    lo_v, hi_v = float(x.min()), float(x.max())
    span = hi_v - lo_v
    if span <= 0:
        return 0.0
    levels = _grid_levels(data_line, *grid, lo, hi)
    counts = np.zeros(bins * 2, np.int64)
    block = np.empty(min(x.size, _MI_BLOCK))
    codes = np.empty(block.size, np.min_scalar_type(2 * bins - 1))
    for b in range(0, x.size, _MI_BLOCK):
        # bins * (x - lo_v) / span in its order, truncated (it lies in [0, bins]), in the buffers.
        xb, xi = block[:x.size - b], codes[:x.size - b]
        np.subtract(x[b:b + _MI_BLOCK], lo_v, out=xb)
        xb *= bins
        xb /= span
        np.copyto(xi, xb, casting="unsafe")
        np.minimum(xi, bins - 1, out=xi)
        xi *= 2
        np.add(xi, levels[b:b + _MI_BLOCK], out=xi, casting="unsafe")
        counts += np.bincount(xi, minlength=bins * 2)
    joint = counts.reshape(bins, 2).astype(np.float64)
    n = joint.sum()
    p = joint / n
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0
    mi = float(np.sum(p[nz] * np.log2(p[nz] / (px @ py)[nz])))
    return max(0.0, mi)
