import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ledleak.diode
import ledleak.emanation
from ledleak.diode import DiodeLink, diode_send
from ledleak.emanation import (
    DeviceProfile,
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
)
from ledleak.errors import ConfigError
from ledleak.recovery import recover_data, threshold_detect, uart_decode
from ledleak.signals import LogicEventStream, NoiseModel, OpticalTrace, SerialConfig

from oracles import (
    envelope_intervals,
    exp_approach,
    led_transduce_loop,
    stretch_intervals,
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
        assert s.level_at(s.duration) == 1

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
        lit = led_transduce(line, LedModel(), 1e6, active_high=True)
        dark = led_transduce(line, LedModel(), 1e6, active_high=False)
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


def _loop_transduce(line, led, sample_rate, active_high=True):
    return OpticalTrace(sample_rate, led_transduce_loop(line, led, sample_rate, active_high))


class TestLedTransduceMatchesLoop:
    """The vectorised pass against the per-segment loop, byte for byte."""

    @pytest.mark.filterwarnings("ignore:sample_rate")
    @given(transduce_cases())
    @settings(max_examples=300, deadline=None)
    def test_property(self, case):
        line, led, sample_rate, active_high = case
        fast = led_transduce(line, led, sample_rate, active_high).samples
        assert fast.tobytes() == led_transduce_loop(line, led, sample_rate, active_high).tobytes()

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
        with pytest.raises(ConfigError):
            DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=None))

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
        assert EmanationClass.CONTENT.risk_rank > EmanationClass.ACTIVITY.risk_rank

    def test_led_model_validation(self):
        with pytest.raises(ValueError):
            LedModel(rise_time=0.0)
        with pytest.raises(ValueError):
            LedModel(off_level=0.5, on_level=0.5)
        with pytest.raises(ValueError):
            LedModel(on_level=1.5)
