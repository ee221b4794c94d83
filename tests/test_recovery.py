import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ledleak.recovery
from ledleak.emanation import (
    DeviceProfile,
    DriveConfig,
    EmanationClass,
    LedModel,
    add_noise,
    apply_pulse_stretch,
    led_transduce,
    synthesize_class,
    uart_encode,
)
from ledleak.errors import EstimationError, NoSignalError
from ledleak.recovery import (
    DecodeResult,
    _grid_index,
    _grid_levels,
    _pearson01,
    bit_error_rate,
    classify_trace,
    decode_auto_polarity,
    estimate_baud,
    leakage_mutual_information,
    recover_data,
    threshold_detect,
    uart_decode,
)
from ledleak.signals import LogicEventStream, NoiseModel, OpticalTrace, SerialConfig

from oracles import (
    ber_definition,
    leakage_mutual_information_mask,
    levels_at_sorted,
    pearson01_corrcoef,
    threshold_detect_loop,
    trace_times,
    uart_decode_loop,
    uart_encode_loop,
)
from strategies import grid_and_stream

CFG = SerialConfig(baud=9600)
BIT = CFG.bit_time


def square_wave(freq: float, sample_rate: float, cycles: int) -> OpticalTrace:
    n = int(sample_rate / freq)
    period = np.concatenate([np.ones(n // 2), np.zeros(n - n // 2)])
    return OpticalTrace(sample_rate, np.tile(period, cycles))


class TestThresholdDetect:
    def test_square_wave_edges_within_one_sample(self):
        tr = square_wave(1000.0, 1e6, 5)
        events = threshold_detect(tr, 0.1)
        true_edges = [i * 0.5e-3 for i in range(1, 10)]
        assert len(events.edges) == len(true_edges)
        for got, want in zip(events.edges, true_edges):
            assert abs(got - want) <= 1e-6 + 1e-12

    def test_flat_trace_raises(self):
        with pytest.raises(NoSignalError):
            threshold_detect(OpticalTrace(1e3, np.full(100, 0.7)))

    def test_empty_trace_raises(self):
        with pytest.raises(NoSignalError):
            threshold_detect(OpticalTrace(1e3, np.empty(0)))

    def test_noisy_square_same_edge_count(self):
        tr = square_wave(1000.0, 1e6, 5)
        noisy = add_noise(tr, NoiseModel(0.05, 0.0, 99))
        clean = threshold_detect(tr, 0.2)
        got = threshold_detect(noisy, 0.2)
        assert len(got.edges) == len(clean.edges)

    def test_hysteresis_fraction_bounds(self):
        tr = square_wave(1000.0, 1e5, 2)
        with pytest.raises(ValueError):
            threshold_detect(tr, 0.5)
        with pytest.raises(ValueError):
            threshold_detect(tr, -0.01)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 2**32 - 1),
           st.sampled_from(["noise", "square", "levels"]), st.sampled_from([0.0, 0.1, 0.2, 0.49]),
           st.sampled_from([1e3, 1e6, 3.3e6, 44100.7]))
    def test_matches_loop(self, n, seed, kind, hysteresis, rate):
        rng = np.random.default_rng(seed)
        if kind == "noise":
            samples = rng.normal(0.0, 1.0, n)
        elif kind == "square":
            samples = (np.arange(n) // rng.integers(1, 20)) % 2 + rng.normal(0.0, 0.3, n)
        else:  # few distinct values, so samples sit on the band edges and inside it
            samples = rng.integers(0, 5, n) / 4.0
        tr = OpticalTrace(rate, samples)
        want = threshold_detect_loop(tr, hysteresis)
        if want is None:
            with pytest.raises(NoSignalError):
                threshold_detect(tr, hysteresis)
        else:
            got = threshold_detect(tr, hysteresis)
            assert (got.initial_level, got.edges, got.duration) == want

    @pytest.mark.parametrize("hysteresis", [0.0, 0.2, 0.49])
    def test_samples_on_the_band_edges(self, hysteresis):
        """Samples exactly at ``mid`` and ``mid +- half_band`` lie inside the
        band (the compares are strict), so they hold the level."""
        lo, hi = -0.25, 1.0
        mid, half_band = 0.5 * (lo + hi), 0.5 * hysteresis * (hi - lo)
        upper, lower = mid + half_band, mid - half_band
        samples = np.array([lo, upper, mid, lower, hi, lower, upper, mid, lower, lo, upper, hi,
                            np.nextafter(upper, np.inf), lower, np.nextafter(lower, -np.inf),
                            upper, mid, hi, lo])
        for s in (samples, samples[2:], samples[::-1]):
            tr = OpticalTrace(1e3, s)
            got = threshold_detect(tr, hysteresis)
            assert (got.initial_level, got.edges, got.duration) == threshold_detect_loop(
                tr, hysteresis)

    @pytest.mark.parametrize("min_on_bits", [0, 10])
    def test_sweep_trace_matches_loop(self, min_on_bits):
        data = np.random.default_rng(101).bytes(1024)
        drive = DriveConfig(serial=CFG, pulse_stretch=min_on_bits * BIT)
        profile = DeviceProfile(EmanationClass.CONTENT, LedModel(), drive)
        tr = synthesize_class(profile, data, NoiseModel(0.02, 0.0, 101), 1e6)
        got = threshold_detect(tr, 0.2)
        assert (got.initial_level, got.edges, got.duration) == threshold_detect_loop(tr, 0.2)


class TestEstimateBaud:
    @pytest.mark.parametrize("baud", [9600.0, 19200.0, 4800.0, 115200.0])
    def test_recovers_true_rate(self, baud):
        cfg = SerialConfig(baud=baud)
        rng = np.random.default_rng(int(baud))
        line = uart_encode(rng.bytes(16), cfg)
        assert estimate_baud(line) == baud

    def test_survives_transduction(self):
        rng = np.random.default_rng(5)
        line = uart_encode(rng.bytes(12), CFG)
        tr = led_transduce(line.invert(), LedModel(), 1e6)
        events = threshold_detect(tr, 0.2)
        assert estimate_baud(events) == 9600.0

    def test_too_few_edges(self):
        with pytest.raises(EstimationError):
            estimate_baud(LogicEventStream(1, (0.0, 1e-3), 1.0))

    def test_empty_candidates(self):
        line = uart_encode(b"\x55\x55", CFG)
        with pytest.raises(ValueError):
            estimate_baud(line, candidates=())


class TestUartDecode:
    def test_secret_round_trip(self):
        result = uart_decode(uart_encode(b"SECRET", CFG), CFG)
        assert result.octets == b"SECRET"
        assert result.framing_errors == 0

    def test_idle_line_decodes_nothing(self):
        result = uart_decode(LogicEventStream(1, (), 1.0), CFG)
        assert result.octets == b""
        assert result.framing_errors == 0

    def test_wrong_baud_frames_errors(self):
        line = uart_encode(b"\x00", CFG)
        result = uart_decode(line, SerialConfig(baud=19200))
        assert result.framing_errors >= 1

    def test_parity_error_counted(self):
        cfg = SerialConfig(baud=9600, parity="even")
        line = uart_encode(b"\x01", cfg)
        # sabotage: flip the parity cell by removing its edges
        # 0x01 even parity: cells start(0) 1 0 0 0 0 0 0 0 p(1) stop(1)
        # decode same stream as odd parity instead
        odd = SerialConfig(baud=9600, parity="odd")
        result = uart_decode(line, odd)
        assert result.parity_errors >= 1

    def test_invariant_counts(self):
        rng = np.random.default_rng(0)
        line = uart_encode(rng.bytes(20), CFG)
        result = uart_decode(line, SerialConfig(baud=14400))
        attempted = len(result.octets) + result.framing_errors
        assert len(result.octets) <= attempted

    def test_auto_polarity_picks_right_side(self):
        line = uart_encode(b"SECRET", CFG)
        assert decode_auto_polarity(line, CFG).octets == b"SECRET"
        assert decode_auto_polarity(line.invert(), CFG).octets == b"SECRET"


@st.composite
def serial_configs(draw):
    baud = draw(st.sampled_from([300.0, 9600.0, 115200.0, 12345.678]))
    return SerialConfig(baud=baud,
                        data_bits=draw(st.sampled_from([7, 8])),
                        parity=draw(st.sampled_from(["none", "even", "odd"])),
                        stop_bits=draw(st.sampled_from([1, 2])),
                        idle_between_octets=draw(st.sampled_from([0.0, 0.37, 2.5])) / baud)


@st.composite
def decode_cases(draw):
    """Encoded lines made noisy: jittered edges, glitch pulses, edges snapped
    to a sample grid (ties with bit-centre instants included), random
    half-bit cells and uniform random edges; either polarity, trailing idle,
    and a decoder baud that may not match."""
    cfg = draw(serial_configs())
    bit = cfg.bit_time
    _, clean, duration = uart_encode_loop(draw(st.binary(max_size=12)), cfg)
    duration += draw(st.sampled_from([0.0, 3.0])) * bit
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["clean", "jitter", "glitch", "grid", "cells", "random"]))
    edges = set(clean)
    if kind == "jitter":
        edges = set((np.asarray(clean) + rng.uniform(-0.45, 0.45, len(clean)) * bit).tolist())
    elif kind == "glitch":
        for t0 in rng.uniform(0.0, duration, rng.integers(1, 12)).tolist():
            # A pulse flips the level from t0 on: edge sets combine by symmetric difference.
            edges ^= {t0, t0 + rng.uniform(0.01, 1.2) * bit}
    elif kind == "grid":
        rate = draw(st.sampled_from([2.0, 4.0, 16.0, 3.7])) * cfg.baud
        edges = set((np.round(np.asarray(clean) * rate) / rate).tolist())
    elif kind == "cells":
        half = 0.5 * bit
        flips = np.flatnonzero(rng.random(int(duration / half)) < 0.4)
        edges = set((flips * half).tolist())
    elif kind == "random":
        edges = set(rng.uniform(0.0, duration, rng.integers(0, 60)).tolist())
    line = LogicEventStream(draw(st.sampled_from([1, 1, 0])),
                            tuple(sorted(t for t in edges if 0.0 <= t <= duration)), duration)
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 0.97, 1.1, 2.0]))
    decode_cfg = dataclasses.replace(cfg, baud=cfg.baud * scale)
    return line, decode_cfg


class TestUartMatchesLoop:
    """The vectorised encoder and decoder against the per-cell loops."""

    @given(serial_configs(), st.binary(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_encode(self, cfg, data):
        line = uart_encode(data, cfg)
        assert (line.initial_level, line.edges, line.duration) == uart_encode_loop(data, cfg)

    @given(decode_cases(), st.sampled_from([8192, 40, 1]))
    @settings(max_examples=300, deadline=None)
    def test_decode(self, case, batch):
        line, cfg = case
        with mock.patch.object(ledleak.recovery, "_DECODE_BATCH", batch):
            fast = uart_decode(line, cfg)
        assert fast == DecodeResult(*uart_decode_loop(line, cfg))

    def test_fall_exactly_at_slack_bound(self):
        # The next start lies exactly one slack before the last stop sample:
        # "at or after" includes it.
        bit = CFG.bit_time
        nxt = (0.0 + 9.5 * bit) - bit * 1e-6
        line = LogicEventStream(1, (0.0, 5 * bit, nxt, nxt + 3 * bit), 30 * bit)
        fast = uart_decode(line, CFG)
        assert fast == DecodeResult(*uart_decode_loop(line, CFG))
        assert fast.framing_errors + len(fast.octets) == 2

    def test_sub_resolution_bit_time_terminates(self):
        # At 1e20 baud every cell instant rounds to the start edge itself,
        # so no successor lies past it; the walk still moves on.
        line = LogicEventStream(1, (0.1, 0.2), 0.3)
        assert uart_decode(line, SerialConfig(baud=1e20)) == DecodeResult(b"", 1, 0, 1e20)


class TestPipelineIdentity:
    @given(st.binary(min_size=1, max_size=12), st.sampled_from([9600.0, 38400.0]))
    @settings(max_examples=25, deadline=None)
    def test_threshold_of_transduce_is_identity(self, payload, baud):
        cfg = SerialConfig(baud=baud)
        line = uart_encode(payload, cfg)
        led = LedModel(rise_time=0.05 * cfg.bit_time, fall_time=0.05 * cfg.bit_time)
        sample_rate = 16 * baud
        tr = led_transduce(line, led, sample_rate)
        events = threshold_detect(tr, 0.2)
        assert len(events.edges) == len(line.edges)
        err = np.abs(np.asarray(events.edges) - np.asarray(line.edges))
        assert np.max(err) <= 2.0 / sample_rate + 1e-12

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_class_iii_round_trip_zero_ber(self, payload):
        prof = DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=CFG))
        tr = synthesize_class(prof, payload, NoiseModel(), 16 * 9600)
        recovered = recover_data(tr, CFG).octets
        assert bit_error_rate(payload, recovered) == 0.0


class TestStretchMonotonicity:
    def _recovered(self, payload: bytes, min_on: float) -> bytes:
        drive = DriveConfig(serial=CFG, pulse_stretch=min_on)
        prof = DeviceProfile(EmanationClass.CONTENT, drive=drive)
        tr = synthesize_class(prof, payload, NoiseModel(), 16 * 9600)
        try:
            return recover_data(tr, CFG).octets
        except NoSignalError:
            return b""

    @given(st.binary(min_size=4, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_error_rate_never_improves(self, payload):
        baseline = bit_error_rate(payload, self._recovered(payload, 0.0))
        for bits in (2, 10):
            stretched = bit_error_rate(payload, self._recovered(payload, bits * BIT))
            assert stretched >= baseline

    @given(st.binary(min_size=4, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_ten_bit_stretch_defeats_exact_recovery(self, payload):
        # any payload with at least two distinct octet values cannot survive
        if len(set(payload)) < 2:
            return
        assert self._recovered(payload, 10 * BIT) != payload


class TestClassifyTrace:
    def test_class_iii_assigned(self):
        prof = DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=CFG))
        tr = synthesize_class(prof, b"REFDATA", NoiseModel(), 16 * 9600)
        report = classify_trace(tr, b"REFDATA", CFG)
        assert report.assigned is EmanationClass.CONTENT
        assert report.score_content == 1.0

    def test_class_ii_assigned(self):
        cfg = SerialConfig(baud=9600, idle_between_octets=0.03)
        prof = DeviceProfile(EmanationClass.ACTIVITY, drive=DriveConfig(serial=cfg))
        tr = synthesize_class(prof, b"REFDATA", NoiseModel(), 16 * 9600)
        report = classify_trace(tr, b"REFDATA", cfg)
        assert report.assigned is EmanationClass.ACTIVITY
        assert report.score_activity > 0.9

    def test_class_i_assigned_for_flat(self):
        prof = DeviceProfile(EmanationClass.STATE)
        tr = synthesize_class(prof, b"", NoiseModel(), 1e5)
        report = classify_trace(tr, b"REFDATA", CFG)
        assert report.assigned is EmanationClass.STATE
        assert report.score_state == 1.0

    def test_scale_invariance(self):
        for klass, cfg in [
            (EmanationClass.CONTENT, CFG),
            (EmanationClass.ACTIVITY, SerialConfig(baud=9600, idle_between_octets=0.03)),
        ]:
            prof = DeviceProfile(klass, drive=DriveConfig(serial=cfg))
            tr = synthesize_class(prof, b"REFDATA", NoiseModel(), 16 * 9600)
            base = classify_trace(tr, b"REFDATA", cfg).assigned
            for k in (0.01, 3.0, 1000.0):
                scaled = OpticalTrace(tr.sample_rate, tr.samples * k)
                assert classify_trace(scaled, b"REFDATA", cfg).assigned is base

    def test_scores_in_range(self):
        prof = DeviceProfile(EmanationClass.CONTENT, drive=DriveConfig(serial=CFG))
        tr = synthesize_class(prof, b"xyz", NoiseModel(0.03, 0.0, 4), 16 * 9600)
        report = classify_trace(tr, b"xyz", CFG)
        for score in (report.score_state, report.score_activity, report.score_content):
            assert 0.0 <= score <= 1.0

    def test_empty_reference_rejected(self):
        tr = OpticalTrace(1e4, np.zeros(10))
        with pytest.raises(ValueError):
            classify_trace(tr, b"", CFG)


class TestPearsonMatchesCorrcoef:
    """The envelope correlation gives the float of ``np.corrcoef``."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.one_of(st.integers(1, 300), st.sampled_from([65_535, 65_536, 65_537, 200_003])),
           p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), flips=st.floats(0.0, 0.5),
           related=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical(self, n, p, q, flips, related, seed):
        rng = np.random.default_rng(seed)
        a = (rng.random(n) < p).astype(np.int8)
        b = a ^ (rng.random(n) < flips) if related else rng.random(n) < q
        b = b.astype(np.int8)
        assert (np.float64(_pearson01(a, b)).tobytes()
                == np.float64(pearson01_corrcoef(a, b)).tobytes())

    def test_flat_envelopes(self):
        ones, mixed = np.ones(70_000, np.int8), np.arange(70_000, dtype=np.int8) & 1
        for a, b in [(ones, mixed), (mixed, ones), (ones, ones), (ones[:1], ones[:1])]:
            assert _pearson01(a, b) == pearson01_corrcoef(a, b) == 0.0


class TestBitErrorRate:
    def test_identical_is_zero(self):
        assert bit_error_rate(b"hello", b"hello") == 0.0
        assert bit_error_rate(b"", b"") == 0.0

    def test_all_bits_differ(self):
        assert bit_error_rate(b"\x00", b"\xff") == 1.0

    def test_missing_octet_counts_all_wrong(self):
        assert bit_error_rate(b"\x00\x00", b"\x00") == 0.5

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.bytes(int(rng.integers(0, 20)))
            b = rng.bytes(int(rng.integers(0, 20)))
            assert bit_error_rate(a, b) == pytest.approx(ber_definition(a, b))

    @given(st.binary(max_size=16), st.binary(max_size=16), st.binary(max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, a, b, c):
        # pad to equal length so the triangle inequality applies to bit vectors
        n = max(len(a), len(b), len(c), 1)
        a, b, c = (x.ljust(n, b"\x00") for x in (a, b, c))
        assert bit_error_rate(a, b) == bit_error_rate(b, a)
        assert (bit_error_rate(a, b) == 0.0) == (a == b)
        assert bit_error_rate(a, c) <= bit_error_rate(a, b) + bit_error_rate(b, c) + 1e-12


class TestMutualInformation:
    def _line_and_trace(self, seed=0, n=20000):
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, 2, size=200)
        edges = []
        cur = levels[0]
        for i, v in enumerate(levels[1:], start=1):
            if v != cur:
                edges.append(i * 1e-3)
                cur = v
        line = LogicEventStream(int(levels[0]), tuple(edges), 0.2)
        t = np.arange(n) / (n / 0.2)
        x = line.levels_at(t).astype(float)
        return line, t, x

    def test_perfect_copy_near_one_bit(self):
        line, t, x = self._line_and_trace()
        tr = OpticalTrace(len(x) / 0.2, x)
        assert leakage_mutual_information(tr, line, 16) >= 0.95

    def test_independent_near_zero(self):
        line, t, x = self._line_and_trace(seed=1)
        other, _, y = self._line_and_trace(seed=2)
        tr = OpticalTrace(len(y) / 0.2, y)
        assert leakage_mutual_information(tr, line, 16) <= 0.05

    def test_bounded_zero_one(self):
        line, t, x = self._line_and_trace(seed=3)
        rng = np.random.default_rng(4)
        tr = OpticalTrace(len(x) / 0.2, x + rng.normal(0, 0.3, x.size))
        mi = leakage_mutual_information(tr, line, 16)
        assert 0.0 <= mi <= 1.0

    def test_stretching_reduces_mi(self):
        rng = np.random.default_rng(9)
        payload = rng.bytes(64)
        line = uart_encode(payload, CFG)
        lit = line.invert()
        fs = 16 * 9600
        raw = led_transduce(lit, LedModel(), fs)
        stretched = led_transduce(apply_pulse_stretch(lit, 20 * BIT), LedModel(), fs)
        mi_raw = leakage_mutual_information(raw, line, 16)
        mi_str = leakage_mutual_information(stretched, line, 16)
        assert mi_raw > mi_str

    def test_no_overlap_raises(self):
        line = LogicEventStream(0, (0.5,), 1.0)
        tr = OpticalTrace(1e3, np.ones(100), origin_time=5.0)
        with pytest.raises(ValueError):
            leakage_mutual_information(tr, line, 16)

    def test_bins_validated(self):
        line = LogicEventStream(0, (0.5,), 1.0)
        tr = OpticalTrace(1e3, np.ones(100))
        with pytest.raises(ValueError):
            leakage_mutual_information(tr, line, 1)


def _value_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _near(t: np.ndarray) -> np.ndarray:
    """Each of ``t`` and the floats one ulp either side of it."""
    return np.concatenate((t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)))


class TestGridMatchesBuiltGrid:
    """``_grid_index`` is ``np.searchsorted`` on the grid built in full (and
    of the next float up, its ``side="right"``), and ``_grid_levels`` is
    ``levels_at_sorted`` on any slice of it."""

    @settings(max_examples=200, deadline=None)
    @given(grid_and_stream(), st.data())
    def test_property(self, case, data):
        trace, line = case
        origin, rate, n = trace.origin_time, trace.sample_rate, trace.n_samples
        t = trace_times(trace)
        values = _near(np.concatenate((t, line.edge_array, [0.0, line.duration])))
        assert np.array_equal(_grid_index(origin, rate, n, values), np.searchsorted(t, values))
        assert np.array_equal(_grid_index(origin, rate, n, np.nextafter(values, np.inf)),
                              np.searchsorted(t, values, side="right"))
        lo = data.draw(st.integers(0, n), label="lo")
        hi = data.draw(st.integers(lo, n), label="hi")
        got = _grid_levels(line, origin, rate, lo, hi)
        assert got.dtype == np.int8
        assert np.array_equal(got, levels_at_sorted(line, t[lo:hi]))

    @pytest.mark.parametrize("origin", [1e12, -1e12, 3e11 + 0.5])
    def test_repeated_instants(self, origin):
        """Far from 0 many instants round to one float, so the first guess
        can miss by many indices."""
        rate, n = 1e6 / 3, 4000
        t = origin + np.arange(n) / rate
        assert np.count_nonzero(np.diff(t) == 0) > n // 2
        rng = np.random.default_rng(5)
        values = _near(np.concatenate((t[rng.integers(0, n, 300)],
                                       rng.uniform(t[0] - 1e-3, t[-1] + 1e-3, 300))))
        assert np.array_equal(_grid_index(origin, rate, n, values), np.searchsorted(t, values))
        line = LogicEventStream(1, np.unique(values[values >= 0]), float(abs(values).max()) + 1.0)
        assert np.array_equal(_grid_levels(line, origin, rate, 100, 3000),
                              levels_at_sorted(line, t[100:3000]))

    def test_no_instants_and_no_values(self):
        assert _grid_index(0.0, 1e3, 0, [0.0, -1.0, 5.0]).tolist() == [0, 0, 0]
        assert _grid_index(0.0, 1e3, 10, []).tolist() == []
        assert _grid_levels(LogicEventStream(1, (), 1.0), 0.0, 1e3, 3, 3).tolist() == []


class TestMutualInformationMatchesMask:
    """The overlap slice and the levels on the grid give the float of the
    boolean mask and ``levels_at``, or the same error."""

    @settings(max_examples=120, deadline=None)
    @given(grid_and_stream(), st.integers(0, 2**32 - 1),
           st.sampled_from(["noise", "copy", "levels"]), st.sampled_from([2, 3, 16, 200]))
    def test_matches_mask(self, case, seed, kind, bins):
        grid, line = case
        rng = np.random.default_rng(seed)
        n = grid.n_samples
        if kind == "noise":
            samples = rng.normal(0.0, 1.0, n)
        elif kind == "copy":
            samples = line.levels_at(trace_times(grid)) + rng.normal(0.0, 0.1, n)
        else:  # few distinct values, so samples sit on bin edges
            samples = rng.integers(0, 4, n) / 3.0
        trace = OpticalTrace(grid.sample_rate, samples, grid.origin_time)
        assert (_value_or_error(leakage_mutual_information, trace, line, bins)
                == _value_or_error(leakage_mutual_information_mask, trace, line, bins))

    @settings(max_examples=120, deadline=None)
    @given(grid_and_stream(), st.integers(0, 2**32 - 1), st.sampled_from([2, 16, 200]),
           st.integers(1, 70))
    def test_blocks_match_mask(self, case, seed, bins, block):
        """Any block size, so blocks split the overlap anywhere; signed
        zeros and repeated values put samples on bin edges."""
        grid, line = case
        rng = np.random.default_rng(seed)
        samples = rng.choice([0.0, -0.0, 0.5, 1.0, 1.0 / 3.0], grid.n_samples)
        samples += rng.normal(0.0, 0.1, grid.n_samples) * (rng.random(grid.n_samples) < 0.5)
        trace = OpticalTrace(grid.sample_rate, samples, grid.origin_time)
        with mock.patch.object(ledleak.recovery, "_MI_BLOCK", block):
            got = _value_or_error(leakage_mutual_information, trace, line, bins)
        assert got == _value_or_error(leakage_mutual_information_mask, trace, line, bins)

    @pytest.mark.parametrize("bins, code", [(2, np.uint8), (16, np.uint8), (128, np.uint8),
                                            (129, np.uint16), (200, np.uint16)])
    def test_every_bin_and_code_width(self, bins, code):
        """Samples in every bin, on every bin edge and at the top of the
        range, over several blocks: the codes, ``2 * bin + level``, take
        the narrowest unsigned type that holds ``2 * bins - 1``."""
        assert np.min_scalar_type(2 * bins - 1) == code
        rng = np.random.default_rng(bins)
        n = 3 * ledleak.recovery._MI_BLOCK + 17
        samples = np.concatenate([np.arange(bins + 1) / bins, -0.0 * np.ones(3),
                                  rng.random(n - bins - 4)])
        trace = OpticalTrace(1e6, samples)
        line = LogicEventStream(0, np.arange(1, 700) * 1.3e-4, n / 1e6)
        assert leakage_mutual_information(trace, line, bins) == leakage_mutual_information_mask(
            trace, line, bins)

    def test_peak_at_a_million_samples(self):
        """Binning holds the int8 line levels and two block-sized arrays:
        at most 2 MiB beside its input at 1 M samples."""
        rng = np.random.default_rng(5)
        trace = OpticalTrace(1e6, rng.normal(0.0, 1.0, 1_000_000))
        line = LogicEventStream(0, np.unique(rng.uniform(0.0, 1.0, 6000)), 1.0)
        tracemalloc.start()
        try:
            mi = leakage_mutual_information(trace, line)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mi == leakage_mutual_information_mask(trace, line)
        assert peak <= 2 << 20, peak

    @pytest.mark.parametrize("min_on_bits", [0, 480])
    def test_sweep_trace(self, min_on_bits):
        data = np.random.default_rng(101).bytes(1024)
        line = uart_encode(data, CFG)
        drive = DriveConfig(serial=CFG, pulse_stretch=min_on_bits * BIT)
        profile = DeviceProfile(EmanationClass.CONTENT, LedModel(), drive)
        trace = synthesize_class(profile, data, NoiseModel(0.02, 0.0, 101), 1e6)
        mi = leakage_mutual_information(trace, line)
        assert mi == leakage_mutual_information_mask(trace, line)
