import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ledleak.diode
import ledleak.emanation
from ledleak.diode import DiodeLink, diode_send
from ledleak.emanation import (
    MAX_SAMPLES,
    DeviceProfile,
    _gaussian_draw,
    _synthesize,
    DriveConfig,
    EmanationClass,
    LedModel,
    activity_envelope,
    add_noise,
    apply_pulse_stretch,
    drive_stream,
    led_transduce,
    synthesize_class,
    uart_encode,
    union_stream,
)
from ledleak.errors import ConfigError
from ledleak.recovery import recover_data, threshold_detect, uart_decode
from ledleak.signals import LogicEventStream, NoiseModel, OpticalTrace, SerialConfig

from oracles import (
    activity_envelope_loop,
    add_noise_samples,
    envelope_intervals,
    exp_approach,
    led_transduce_loop,
    level_at,
    pulse_stretch_loop,
    stretch_intervals,
    trace_activity_loop,
    uart_cells,
    uart_edges_from_cells,
)

from test_acceptance import _random_frames

CFG = SerialConfig(baud=9600)
BIT = CFG.bit_time


# ---------------------------------------------------------------------------
# uart_encode
# ---------------------------------------------------------------------------

class TestUartEncode:
    def test_empty_payload_is_idle_line(self):
        s = uart_encode(b"", CFG)
        assert s.initial_level == 1
        assert s.edges == ()
        assert s.duration == pytest.approx(BIT)

    def test_0x55_alternates_every_cell(self):
        # Hand oracle: start 0, data 1,0,1,0,1,0,1,0 (LSB first), stop 1.
        expected = uart_edges_from_cells(uart_cells(b"\x55"), BIT)
        s = uart_encode(b"\x55", CFG)
        assert len(s.edges) == 10
        assert s.edges == pytest.approx(expected)
        assert s.edges[1] - s.edges[0] == pytest.approx(104.1666e-6, rel=1e-4)

    def test_0xff_only_start_bit_shows(self):
        s = uart_encode(b"\xff", CFG)
        assert len(s.edges) == 2
        assert s.edges[0] == 0.0
        assert s.edges[1] == pytest.approx(BIT)

    def test_trailing_idle_at_least_one_bit(self):
        s = uart_encode(b"\x00\xff\x23", CFG)
        assert s.duration >= s.edges[-1] + BIT * 0.999
        assert level_at(s, s.duration) == 1

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_parity_cell_matches_oracle(self, parity):
        cfg = SerialConfig(baud=9600, parity=parity)
        for value in (0x00, 0x01, 0x7F, 0xA5):
            expected = uart_edges_from_cells(
                uart_cells(bytes([value]), parity=parity), BIT)
            s = uart_encode(bytes([value]), cfg)
            assert s.edges == pytest.approx(expected)

    def test_idle_gap_shifts_later_frames(self):
        gap = 5e-3
        cfg = SerialConfig(baud=9600, idle_between_octets=gap)
        s = uart_encode(b"\x00\x00", cfg)
        # second start bit lands one frame time (incl. gap) after the first
        falls = [t for k, t in enumerate(s.edges) if k % 2 == 0]
        assert falls[1] - falls[0] == pytest.approx(10 * BIT + gap)

    def test_duration_overflow_refused_before_any_vector_work(self):
        cfg = SerialConfig(baud=1e-306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert uart_encode(b"\xab", cfg).duration == 1.1e307
            with pytest.raises(ValueError, match=r"^1024 octets at baud 1e-306 overflow "):
                uart_encode(b"\xab" * 1024, cfg)

    @given(st.binary(min_size=0, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_through_decoder(self, payload):
        s = uart_encode(payload, CFG)
        result = uart_decode(s, CFG)
        assert result.octets == payload
        assert result.framing_errors == 0
        assert result.parity_errors == 0


# ---------------------------------------------------------------------------
# led_transduce
# ---------------------------------------------------------------------------

class TestLedTransduce:
    def test_constant_one_sits_at_on_level(self):
        line = LogicEventStream(1, (), 1e-3)
        tr = led_transduce(line, LedModel(on_level=1.0), 1e6)
        assert np.all(np.abs(tr.samples - 1.0) < 1e-9)

    def test_recovered_edges_match_line(self):
        led = LedModel(rise_time=1e-6, fall_time=1e-6)
        line = uart_encode(b"\x55", CFG)
        tr = led_transduce(line, led, 1e6)
        events = threshold_detect(tr, 0.1)
        assert len(events.edges) == len(line.edges)
        assert np.max(np.abs(np.asarray(events.edges) - np.asarray(line.edges))) < 5e-6

    def test_slow_led_crushes_short_pulse(self):
        # Closed form: peak of a 10 ns pulse into a 100 us LED is 1-exp(-1e-4)
        line = LogicEventStream(0, (1e-6, 1e-6 + 10e-9), 2e-6)
        led = LedModel(rise_time=100e-6, fall_time=100e-6)
        tr = led_transduce(line, led, 1e9)
        expected_peak = 1.0 - exp_approach(0.0, 1.0, 100e-6, 10e-9)
        assert expected_peak == pytest.approx(1.0 - (1.0 - math.exp(-1e-4)))
        assert tr.samples.max() < 0.01 * led.on_level
        assert tr.samples.max() == pytest.approx(1.0 - math.exp(-1e-4), rel=0.2)

    def test_output_bounded(self):
        led = LedModel(rise_time=3e-5, fall_time=8e-5, on_level=0.9, off_level=0.1)
        line = uart_encode(b"\xa7\x01", CFG)
        tr = led_transduce(line, led, 1e6)
        assert tr.samples.min() >= led.off_level - 1e-12
        assert tr.samples.max() <= led.on_level + 1e-12

    def test_active_low_inverts_light(self):
        line = LogicEventStream(1, (), 1e-4)
        lit = led_transduce(line, LedModel(), 1e6)
        dark = led_transduce(line.invert(), LedModel(), 1e6)
        assert lit.samples[-1] == pytest.approx(1.0)
        assert dark.samples[-1] == pytest.approx(0.0)

    def test_warns_when_undersampled(self):
        line = uart_encode(b"\x55", CFG)  # 104 us pulses
        with pytest.warns(UserWarning):
            led_transduce(line, LedModel(), 20e3)

    @pytest.mark.parametrize("sample_rate", [0.0, -1e6, float("inf"), float("nan")])
    def test_rejects_bad_sample_rate(self, sample_rate):
        line = uart_encode(b"\x55", CFG)
        with pytest.raises(ValueError, match="sample_rate"):
            led_transduce(line, LedModel(), sample_rate)

    def test_sample_count_cap_allocates_nothing(self):
        line = LogicEventStream(0, (0.5,), 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                led_transduce(line, LedModel(), float(MAX_SAMPLES + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert str(exc.value) == ("duration 1.0 s x sample_rate 134217729.0 Hz exceeds "
                                  "the cap of 134217728 samples per trace")

    def test_sample_count_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(ledleak.emanation, "MAX_SAMPLES", 1000)
        line = LogicEventStream(0, (0.25,), 0.5)
        assert led_transduce(line, LedModel(), 2000.0).n_samples == 1000
        with pytest.raises(ValueError, match="cap of 1000 samples"):
            led_transduce(line, LedModel(), 2002.0)


@st.composite
def transduce_cases(draw):
    """Edge streams, LED models, sample rates and polarities of any shape,
    including edges one ulp apart (segments far shorter than tau)."""
    sample_rate = draw(st.floats(1e3, 1e9))
    duration = draw(st.floats(0.0, 2000.0)) / sample_rate
    edges = {f * duration for f in draw(st.lists(st.floats(0.0, 1.0), max_size=30))}
    for e in sorted(edges)[:draw(st.integers(0, 3))]:
        edges.add(float(np.nextafter(e, np.inf)))
    line = LogicEventStream(draw(st.sampled_from((0, 1))),
                            tuple(sorted(e for e in edges if e <= duration)), duration)
    off = draw(st.floats(0.0, 1.0, exclude_max=True))
    on = draw(st.floats(off, 1.0, exclude_min=True))
    rise, fall = (10.0 ** draw(st.floats(-9.0, -3.0)) for _ in range(2))
    return line, LedModel(rise, fall, on, off), sample_rate, draw(st.booleans())


def _loop_transduce(line, led, sample_rate):
    return OpticalTrace(sample_rate, led_transduce_loop(line, led, sample_rate))


class TestLedTransduceMatchesLoop:
    """The vectorised pass against the per-segment loop, byte for byte."""

    @pytest.mark.filterwarnings("ignore:sample_rate")
    @given(transduce_cases())
    @settings(max_examples=300, deadline=None)
    def test_property(self, case):
        line, led, sample_rate, active_high = case
        fast = led_transduce(line if active_high else line.invert(), led, sample_rate).samples
        assert fast.tobytes() == led_transduce_loop(line, led, sample_rate, active_high).tobytes()

    @pytest.mark.parametrize("sweeps", [0, 3, 10**6])
    @pytest.mark.parametrize("line, led, sample_rate", [
        # A slow LED, decaying by about 0.9 a bit: each sweep proves about one more segment.
        (uart_encode(np.random.default_rng(3).bytes(200), CFG),
         LedModel(1e-3, 2e-4, 0.9, 0.1), 1e6),
        (uart_encode(np.random.default_rng(4).bytes(200), SerialConfig(baud=115200)),
         LedModel(), 16 * 115200.0),
        # Integer levels: the start values must still be doubles.
        (uart_encode(np.random.default_rng(3).bytes(200), CFG), LedModel(1e-3, 2e-4, 1, 0), 1e6),
        (uart_encode(np.random.default_rng(4).bytes(200), SerialConfig(baud=115200)),
         LedModel(2e-6, 1e-6, 1, 0), 16 * 115200.0),
    ])
    def test_sweeps_and_loop_each_give_the_loop(self, monkeypatch, sweeps, line, led,
                                                 sample_rate):
        """Start values from the scalar loop alone, from sweeps and then the
        loop, and from sweeps alone."""
        monkeypatch.setattr(ledleak.emanation, "_SWEEPS", sweeps)
        fast = led_transduce(line, led, sample_rate).samples
        assert fast.tobytes() == led_transduce_loop(line, led, sample_rate).tobytes()

    @pytest.mark.parametrize("led", [LedModel(2e-8, 3e-8, 0.9, 0.1),
                                     LedModel(1e-6, 1e-6, 0.5, 0.25),
                                     LedModel(5e-7, 2e-6, 0.75, 5e-324),
                                     LedModel(5e-7, 2e-6, np.float32(0.9), np.float32(0.1))])
    def test_settle_cut_between_the_levels(self, led):
        """Levels off 0 and 1, powers of two among them (a narrower ulp below),
        a subnormal, and float32 levels: every sample past a segment's settle
        point is its target."""
        line = uart_encode(np.random.default_rng(5).bytes(64), SerialConfig(baud=115200))
        fast = led_transduce(line, led, 1e8).samples
        assert fast.tobytes() == led_transduce_loop(line, led, 1e8).tobytes()

    def test_negative_zero_off_level_gives_the_loop(self):
        """The model stores its levels as doubles, -0.0 as 0.0, so settled
        samples carry the sign bits that evaluating every sample gives."""
        led = LedModel(off_level=-0.0, on_level=np.float32(0.5))
        assert (type(led.off_level), math.copysign(1.0, led.off_level)) == (float, 1.0)
        assert type(led.on_level) is float
        line = uart_encode(b"\x12\x34", SerialConfig())
        fast = led_transduce(line, led, 1e6).samples
        assert fast.tobytes() == led_transduce_loop(line, led, 1e6).tobytes()
        assert fast.tobytes() == led_transduce(line, LedModel(on_level=0.5), 1e6).samples.tobytes()

    def test_criterion_7_emitter_digest(self, monkeypatch):
        frames = _random_frames(np.random.default_rng(7), 100, max_payload=96)
        link = DiodeLink(channel_attenuation=0.8)
        noise = NoiseModel(0.01, 0.005, 7)
        fast, _ = diode_send(frames, link, noise)
        monkeypatch.setattr(ledleak.diode, "led_transduce", _loop_transduce)
        slow, _ = diode_send(frames, link, noise)
        assert fast.frames_accepted == 100
        assert fast == slow

    def test_criterion_2_trace_bytes(self, monkeypatch):
        payload = np.random.default_rng(2).bytes(1024)
        profile = DeviceProfile(EmanationClass.CONTENT, LedModel(), DriveConfig(serial=CFG))
        noise = NoiseModel(0.05, 0.01, 99)
        fast = synthesize_class(profile, payload, noise, 1_000_000.0).samples
        monkeypatch.setattr(ledleak.emanation, "led_transduce", _loop_transduce)
        slow = synthesize_class(profile, payload, noise, 1_000_000.0).samples
        assert fast.tobytes() == slow.tobytes()


# ---------------------------------------------------------------------------
# apply_pulse_stretch
# ---------------------------------------------------------------------------

class TestPulseStretch:
    def test_zero_is_identity(self):
        line = uart_encode(b"\x12\x34", CFG).invert()
        assert apply_pulse_stretch(line, 0.0) is line

    def test_short_pulse_becomes_min_on(self):
        line = LogicEventStream(0, (1e-3, 1e-3 + 1e-6), 2e-3)
        out = apply_pulse_stretch(line, 50e-3)
        assert out.intervals(1) == [(1e-3, 1e-3 + 50e-3)]
        assert out.duration == pytest.approx(51e-3)

    def test_two_pulses_merge(self):
        # two 1 us pulses, starts 10 ms apart, stretched to 50 ms -> one 60 ms blob
        line = LogicEventStream(0, (0.0, 1e-6, 10e-3, 10e-3 + 1e-6), 20e-3)
        out = apply_pulse_stretch(line, 50e-3)
        ivs = out.intervals(1)
        assert len(ivs) == 1
        assert ivs[0][1] - ivs[0][0] == pytest.approx(60e-3)

    def test_matches_interval_union_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            starts = np.sort(rng.uniform(0, 1e-2, size=6))
            widths = rng.uniform(1e-5, 2e-3, size=6)
            edges = []
            t = 0.0
            for s, w in zip(starts, widths):
                a, b = max(t + 1e-5, s), max(t + 1e-5, s) + w
                edges.extend([a, b])
                t = b
            line = LogicEventStream(0, tuple(edges), edges[-1] + 1e-3)
            min_on = float(rng.uniform(1e-4, 5e-3))
            expected = stretch_intervals(line.intervals(1), min_on)
            got = apply_pulse_stretch(line, min_on).intervals(1)
            assert len(got) == len(expected)
            for (gs, ge), (es, ee) in zip(got, expected):
                assert gs == pytest.approx(es)
                assert ge == pytest.approx(ee)

    @given(st.lists(st.floats(1e-6, 1e-2), min_size=0, max_size=12),
           st.floats(0, 5e-3))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, gaps, min_on):
        edges = []
        t = 0.0
        for g in gaps:
            t += g
            edges.append(t)
        line = LogicEventStream(0, tuple(edges), t + 1e-2)
        once = apply_pulse_stretch(line, min_on)
        twice = apply_pulse_stretch(once, min_on)
        assert once == twice

    def test_stretched_intervals_meet_min_on(self):
        line = uart_encode(b"\x55\x00\xff\x12", CFG).invert()
        out = apply_pulse_stretch(line, 2 * BIT)
        for s, e in out.intervals(1):
            assert e - s >= 2 * BIT - 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            apply_pulse_stretch(LogicEventStream(0, (), 1.0), -1.0)

    @pytest.mark.parametrize("min_on", [math.inf, math.nan])
    def test_non_finite_rejected(self, min_on):
        with pytest.raises(ValueError, match="min_on"):
            apply_pulse_stretch(LogicEventStream(0, (0.5,), 1.0), min_on)


# ---------------------------------------------------------------------------
# activity_envelope
# ---------------------------------------------------------------------------

class TestActivityEnvelope:
    def test_idle_line_stays_off(self):
        env = activity_envelope(LogicEventStream(1, (), 1.0), 10e-3)
        assert env.initial_level == 0
        assert env.edges == ()
        assert env.duration == 1.0

    def test_single_octet_single_interval(self):
        window = 10e-3
        line = uart_encode(b"\xa5", CFG)
        env = activity_envelope(line, window)
        ivs = env.intervals(1)
        assert len(ivs) == 1
        expected = envelope_intervals(list(line.edges), window)
        assert ivs[0][0] == pytest.approx(expected[0][0])
        assert ivs[0][1] == pytest.approx(expected[0][1])
        # roughly the octet duration plus the window
        assert ivs[0][1] - ivs[0][0] == pytest.approx(line.edges[-1] + window, rel=0.05)

    def test_two_separated_octets_two_intervals(self):
        cfg = SerialConfig(baud=9600, idle_between_octets=1.0)
        line = uart_encode(b"\xa5\xa5", cfg)
        env = activity_envelope(line, 10e-3)
        assert len(env.intervals(1)) == 2

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            activity_envelope(LogicEventStream(0, (), 1.0), 0.0)

    def test_content_not_recoverable(self):
        line = uart_encode(b"SECRET", CFG)
        env = activity_envelope(line, 10e-3)
        result = uart_decode(env, CFG)
        assert result.octets != b"SECRET"

    @pytest.mark.parametrize("window", [math.inf, math.nan])
    def test_window_must_be_finite(self, window):
        with pytest.raises(ValueError, match="window"):
            activity_envelope(LogicEventStream(0, (0.5,), 1.0), window)


# ---------------------------------------------------------------------------
# union_stream: the one interval merge, pinned to the loops it replaced
# ---------------------------------------------------------------------------

def triple(line: LogicEventStream) -> tuple:
    return line.initial_level, line.edges, line.duration


@st.composite
def edge_streams(draw):
    """Arbitrary streams; the first edge may sit at t=0, the last at duration."""
    first = draw(st.floats(0, 1e-2))
    gaps = draw(st.lists(st.floats(1e-9, 1e-2), max_size=20))
    edges = tuple(itertools.accumulate([first] + gaps)) if draw(st.booleans()) else ()
    tail = draw(st.floats(0, 1e-2))
    return LogicEventStream(draw(st.integers(0, 1)), edges, (edges[-1] if edges else 0.0) + tail)


@st.composite
def sample_grid_streams(draw):
    """``(stream, window)``: edges on a sample grid, as thresholding leaves
    them, with runs of exactly the window and one sample either side."""
    fs = draw(st.sampled_from([9600.0, 48e3, 153600.0, 1e6, 1_843_200.0, 1e7, 2.5e7]))
    window = draw(st.sampled_from([1e-4, 1e-3, 2.5e-3, 10e-3]))
    n_win = round(window * fs)
    runs = draw(st.lists(st.one_of(st.integers(1, 3 * n_win),
                                   st.sampled_from([max(1, n_win - 1), n_win, n_win + 1])),
                         max_size=20))
    idx = list(itertools.accumulate(runs, initial=draw(st.integers(0, 3))))
    edges = tuple(i / fs for i in idx)
    end = idx[-1] + draw(st.integers(0, n_win + 1))
    return LogicEventStream(draw(st.integers(0, 1)), edges, end / fs), window


class TestUnionStream:
    @given(edge_streams(), st.floats(1e-9, 1e-2))
    @settings(max_examples=300, deadline=None)
    def test_activity_envelope_matches_loop(self, line, window):
        assert triple(activity_envelope(line, window)) == activity_envelope_loop(line, window)

    @given(st.one_of(sample_grid_streams(),
                     st.tuples(edge_streams(), st.floats(1e-9, 1e-2))))
    @settings(max_examples=300, deadline=None)
    def test_classifier_envelope_matches_loop(self, stream_and_window):
        # The call classify_trace makes on the thresholded events.
        events, window = stream_and_window
        env = union_stream(events.intervals(1), events.duration,
                           events.initial_level == 1, gap=window)
        assert triple(env) == trace_activity_loop(events, window)

    @given(st.lists(st.integers(1, 50), max_size=20), st.integers(0, 3),
           st.integers(0, 100), st.integers(0, 1), st.integers(0, 50))
    @settings(max_examples=300, deadline=None)
    def test_pulse_stretch_matches_loop_on_us_grid(self, runs, first, min_on_us, initial, tail):
        ticks = list(itertools.accumulate(runs, initial=first))
        line = LogicEventStream(initial, tuple(k * 1e-6 for k in ticks), (ticks[-1] + tail) * 1e-6)
        min_on = min_on_us * 1e-6
        assert triple(apply_pulse_stretch(line, min_on)) == pulse_stretch_loop(line, min_on)

    @pytest.mark.parametrize("gap, n_intervals", [(0.5e-12, 1), (2e-12, 2)])
    def test_merge_slack_boundary(self, gap, n_intervals):
        # A gap under MERGE_SLACK is float residue and closes; one over it stays.
        min_on = 1e-4
        line = LogicEventStream(0, (1e-3, 1e-3 + 1e-6, 1e-3 + min_on + gap, 1.2e-3), 2e-3)
        assert len(apply_pulse_stretch(line, min_on).intervals(1)) == n_intervals

    def test_user_gap_is_not_float_residue(self):
        # 0x55 lights every other bit cell. 208.333 us is 0.33 ns short of two
        # bit times at 9600 baud: a user-chosen gap, kept. 2 * BIT closes all.
        line = uart_encode(b"\x55", CFG).invert()
        ivs = apply_pulse_stretch(line, 208.333e-6).intervals(1)
        gaps = [b[0] - a[1] for a, b in zip(ivs, ivs[1:])]
        assert len(gaps) == 4
        assert all(0.3e-9 < g < 0.4e-9 for g in gaps)
        assert len(apply_pulse_stretch(line, 2 * BIT).intervals(1)) == 1


# ---------------------------------------------------------------------------
# add_noise
# ---------------------------------------------------------------------------

class TestAddNoise:
    def test_zero_noise_identity(self):
        tr = OpticalTrace(1e4, np.linspace(0, 1, 100))
        out = add_noise(tr, NoiseModel(0.0, 0.0, 1))
        assert np.array_equal(out.samples, tr.samples)

    def test_statistics(self):
        tr = OpticalTrace(1e6, np.zeros(10**6))
        out = add_noise(tr, NoiseModel(0.1, 0.25, 42))
        assert abs(out.samples.mean() - 0.25) < 1e-3
        assert abs(out.samples.std() - 0.1) < 0.002

    def test_deterministic_for_seed(self):
        tr = OpticalTrace(1e4, np.zeros(1000))
        a = add_noise(tr, NoiseModel(0.05, 0.0, 7))
        b = add_noise(tr, NoiseModel(0.05, 0.0, 7))
        assert np.array_equal(a.samples, b.samples)
        c = add_noise(tr, NoiseModel(0.05, 0.0, 8))
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("offset", [0.0, 0.25])
    def test_offset_then_noise_leaves_input(self, offset):
        tr = OpticalTrace(1e4, np.linspace(0, 1, 1000))
        before = tr.samples.copy()
        out = add_noise(tr, NoiseModel(0.05, offset, 7))
        noise = np.random.default_rng(7).normal(0.0, 0.05, size=1000)
        assert np.array_equal(out.samples, (before + offset) + noise)
        assert np.array_equal(tr.samples, before)

    @settings(max_examples=150, deadline=None)
    @given(samples=st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-300]), max_size=40),
           sigma=st.sampled_from([0.0, 0.05]), offset=st.sampled_from([0.0, -0.0, 0.25]),
           seed=st.integers(0, 2**64 - 1), extra=st.integers(0, 50))
    def test_prefix_of_a_longer_draw(self, samples, sigma, offset, seed, extra):
        """``add_noise`` and the sweep's shared draw give the bytes of the
        trace's own draw, signed zeros included."""
        tr = OpticalTrace(1e4, np.array(samples))
        noise = NoiseModel(sigma, offset, seed)
        want = add_noise_samples(tr, noise).tobytes()
        assert add_noise(tr, noise).samples.tobytes() == want
        longer = _gaussian_draw(noise, tr.n_samples + extra)
        assert (longer is None) == (sigma == 0)
        assert synthesized(tr, noise, longer).samples.tobytes() == want

    @settings(max_examples=150, deadline=None)
    @given(samples=st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-300]), max_size=40),
           sigma=st.sampled_from([0.0, 0.05]), offset=st.sampled_from([0.0, -0.0, 0.25]),
           seed=st.integers(0, 2**64 - 1), block=st.integers(1, 9))
    def test_blocks_give_one_draw(self, samples, sigma, offset, seed, block):
        """Noise drawn and added a block at a time, into a copy or into the
        LED samples, gives the bytes of one draw at any block boundary."""
        tr = OpticalTrace(1e4, np.array(samples))
        noise = NoiseModel(sigma, offset, seed)
        want = add_noise_samples(tr, noise).tobytes()
        with mock.patch.object(ledleak.emanation, "_NOISE_BLOCK", block):
            assert add_noise(tr, noise).samples.tobytes() == want
            assert synthesized(tr, noise).samples.tobytes() == want

    @pytest.mark.parametrize("sigma, offset", [(0.05, 0.0), (0.0, 0.25), (0.05, -0.25)])
    def test_blocks_give_one_draw_at_full_size(self, sigma, offset):
        n = 3 * ledleak.emanation._NOISE_BLOCK + 5
        tr = OpticalTrace(1e6, np.where(np.arange(n) % 3 == 0, -0.0, 1.0))
        noise = NoiseModel(sigma, offset, 101)
        want = add_noise_samples(tr, noise).tobytes()
        assert add_noise(tr, noise).samples.tobytes() == want
        assert synthesized(tr, noise).samples.tobytes() == want

    @pytest.mark.parametrize("noise", [NoiseModel(0.05, 0.0, 3), NoiseModel(0.0, 0.25, 3),
                                       NoiseModel(0.05, 0.25, 3)])
    def test_never_writes_a_held_array(self, noise):
        """``add_noise`` copies the caller's trace, and a synthesis leaves
        the shared draw it reads as it was."""
        tr = OpticalTrace(1e4, np.linspace(0, 1, 1000))
        before = tr.samples.copy()
        out = add_noise(tr, noise)
        assert np.array_equal(tr.samples, before)
        assert not np.shares_memory(out.samples, tr.samples)
        draw = _gaussian_draw(noise, 1500)
        held = None if draw is None else draw.tobytes()
        out = _synthesize(LogicEventStream(0, (0.02, 0.05), 0.1), LedModel(), 1e4, noise, draw)
        if draw is not None:
            assert draw.tobytes() == held and not np.shares_memory(out.samples, draw)
        assert not out.samples.flags.writeable

    def test_noise_stage_adds_no_trace_sized_array(self):
        """The synthesis composition holds one trace and at most 1 MiB more:
        the noise goes into the LED samples a block at a time."""
        drive = DriveConfig(state_schedule=((0.0, 0), (0.5, 1)), state_duration=1.0)
        prof = DeviceProfile(EmanationClass.STATE, drive=drive)
        synthesize_class(prof, b"", NoiseModel(0.05, 0.01, 7), 10.0)  # lazy imports
        tracemalloc.start()
        try:
            tr = synthesize_class(prof, b"", NoiseModel(0.05, 0.01, 7), 1e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tr.n_samples == 1_000_000
        assert peak <= tr.samples.nbytes + (1 << 20), peak


def synthesized(trace: OpticalTrace, noise: NoiseModel, draw=None) -> OpticalTrace:
    """``_synthesize`` over a fresh copy of ``trace``'s samples in place of
    the LED's, so any samples (signed zeros too) can stand for them."""
    def fresh(*args):
        return OpticalTrace(trace.sample_rate, trace.samples)

    with mock.patch.object(ledleak.emanation, "led_transduce", side_effect=fresh):
        return _synthesize(None, LedModel(), trace.sample_rate, noise, draw)


# ---------------------------------------------------------------------------
# synthesize_class and profiles
# ---------------------------------------------------------------------------

class TestSynthesizeClass:
    def test_class_i_constant_on(self):
        prof = DeviceProfile(EmanationClass.STATE)
        tr = synthesize_class(prof, b"", NoiseModel(), 1e5)
        assert np.all(np.abs(tr.samples - 1.0) < 1e-9)

    def test_class_i_schedule(self):
        drive = DriveConfig(state_schedule=((0.0, 0), (0.05, 1)), state_duration=0.1)
        prof = DeviceProfile(EmanationClass.STATE, drive=drive)
        tr = synthesize_class(prof, b"", NoiseModel(), 1e4)
        assert tr.samples[10] == pytest.approx(0.0)
        assert tr.samples[-10] == pytest.approx(1.0)

    def test_class_iii_round_trips(self):
        prof = DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=CFG))
        tr = synthesize_class(prof, b"SECRET", NoiseModel(), 1e6)
        assert recover_data(tr, CFG).octets == b"SECRET"

    def test_class_ii_destroys_content(self):
        cfg = SerialConfig(baud=9600, idle_between_octets=0.03)
        prof = DeviceProfile(EmanationClass.ACTIVITY, drive=DriveConfig(serial=cfg))
        tr = synthesize_class(prof, b"SECRET", NoiseModel(), 16 * 9600)
        result = recover_data(tr, cfg)
        matches = sum(a == b for a, b in zip(result.octets, b"SECRET"))
        assert matches <= 3  # over half the octets wrong or missing

    def test_class_iii_requires_serial(self):
        with pytest.raises(ConfigError,
                           match="^Class III profiles require a complete serial configuration$"):
            DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=None))

    def test_class_i_needs_no_serial(self):
        prof = DeviceProfile(EmanationClass.STATE, drive=DriveConfig(serial=None))
        assert prof.drive.serial is None

    def test_data_required_for_ii_and_iii(self):
        prof = DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=CFG))
        with pytest.raises(ConfigError):
            synthesize_class(prof, b"", NoiseModel(), 1e6)

    def test_lit_on_high_flips_polarity(self):
        d_lo = DriveConfig(serial=CFG, lit_on_high=False)
        d_hi = DriveConfig(serial=CFG, lit_on_high=True)
        lo = drive_stream(DeviceProfile(EmanationClass.CONTENT, drive=d_lo), b"\x0f")
        hi = drive_stream(DeviceProfile(EmanationClass.CONTENT, drive=d_hi), b"\x0f")
        assert lo.initial_level != hi.initial_level
        assert lo.edges == hi.edges

    def test_noise_applied_last(self):
        prof = DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=CFG))
        a = synthesize_class(prof, b"hi", NoiseModel(0.02, 0.0, 3), 1e5)
        b = synthesize_class(prof, b"hi", NoiseModel(0.02, 0.0, 3), 1e5)
        assert np.array_equal(a.samples, b.samples)

    def test_pulse_stretch_applied(self):
        drive = DriveConfig(serial=CFG, pulse_stretch=480 * BIT)
        prof = DeviceProfile(EmanationClass.CONTENT, drive=drive)
        tr = synthesize_class(prof, b"\x55\x55", NoiseModel(), 16 * 9600)
        # one long lit blob: the trace is essentially saturated while on
        lit_fraction = np.mean(tr.samples > 0.5)
        assert lit_fraction > 0.9

    def test_emanation_class_labels(self):
        assert EmanationClass.from_label("I") is EmanationClass.STATE
        assert EmanationClass.from_label("ii") is EmanationClass.ACTIVITY
        assert EmanationClass.from_label("III") is EmanationClass.CONTENT
        with pytest.raises(ConfigError):
            EmanationClass.from_label("IV")

    @pytest.mark.parametrize("kwargs, field", [
        ({"pulse_stretch": math.inf}, "pulse_stretch"),
        ({"pulse_stretch": math.nan}, "pulse_stretch"),
        ({"activity_window": math.inf}, "activity_window"),
        ({"activity_window": math.nan}, "activity_window"),
    ])
    def test_drive_config_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            DriveConfig(serial=CFG, **kwargs)

    @pytest.mark.parametrize("schedule, message", [
        ((), "state_schedule must not be empty"),
        (((-1.0, 1),), "state_schedule times must be increasing and >= 0"),
        (((0.0, 1), (0.0, 0)), "state_schedule times must be increasing and >= 0"),
        (((0.0, 2),), "state_schedule levels must be 0 or 1"),
        (((0.0, 1), (0.1, 0)), "state_duration must extend past the last schedule entry"),
    ])
    def test_drive_config_rejects_bad_schedule(self, schedule, message):
        # The default state_duration, 0.1 s, ends at the last entry of the last case.
        with pytest.raises(ConfigError, match=f"^{message}$"):
            DriveConfig(state_schedule=schedule)

    def test_class_ii_requires_serial(self):
        with pytest.raises(ConfigError,
                           match="^Class II profiles require a complete serial configuration$"):
            DeviceProfile(EmanationClass.ACTIVITY, drive=DriveConfig(serial=None))

    def test_led_model_validation(self):
        with pytest.raises(ValueError):
            LedModel(rise_time=0.0)
        with pytest.raises(ValueError):
            LedModel(off_level=0.5, on_level=0.5)
        with pytest.raises(ValueError):
            LedModel(on_level=1.5)


@pytest.mark.parametrize("seed", [0, 101, 2**63 + 5])
@pytest.mark.parametrize("sigma", [1e-3, 0.02, 7.5])
def test_generator_normal_draw_is_a_prefix_of_a_longer_one(seed, sigma):
    """The stretch sweep gives each row the first values of one draw sized
    for the longest row; that is each row's own draw only while numpy's
    ``Generator.normal`` keeps this property."""
    long = np.random.default_rng(seed).normal(0.0, sigma, size=100_003)
    for n in (0, 1, 2, 7, 1000, 65_537, 100_002):
        short = np.random.default_rng(seed).normal(0.0, sigma, size=n)
        assert short.tobytes() == long[:n].tobytes()
