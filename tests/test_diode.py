import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledleak.diode import (
    DiodeLink,
    LinkReport,
    ReceiverCircuit,
    WiredBackLink,
    assert_unidirectional,
    contention_check,
    diode_send,
    flood_receive_buffers,
    interface_partition_audit,
    link_frames,
    link_report,
    photodiode_receive,
    poke_receive_interface,
    snoop_receive_state,
    standard_adversaries,
)
from ledleak.emanation import LedModel, led_transduce
from ledleak import diode
from ledleak.cli import _deterministic_frames
from ledleak.mac import PREAMBLE_OCTETS, SFD_OCTET, build_frame
from ledleak.signals import LogicEventStream, NoiseModel, OpticalTrace, SerialConfig


def frames_fixture(count: int, seed: int = 0, max_payload: int = 96) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dst = bytes(rng.integers(0, 256, size=6, dtype=np.uint8))
        src = bytes(rng.integers(0, 256, size=6, dtype=np.uint8))
        payload = rng.bytes(int(rng.integers(0, max_payload + 1)))
        out.append(build_frame(dst, src, 0x0800, payload))
    return out


CLEAN_LINK = DiodeLink(channel_attenuation=0.8)
NOISE = NoiseModel(0.01, 0.005, 21)


# ---------------------------------------------------------------------------
# Photodiode receiver
# ---------------------------------------------------------------------------

class TestPhotodiodeReceive:
    def test_dark_trace_reads_high(self):
        rx = ReceiverCircuit()
        out = photodiode_receive(OpticalTrace(1e6, np.zeros(500)), rx)
        assert out.initial_level == 1
        assert out.edges == ()

    def test_full_on_reads_low(self):
        # Ohm's law: 0.5 mA * 10 kOhm = 5 V of drop, node clamps to 0 < 1.65 V
        rx = ReceiverCircuit()
        assert rx.photocurrent_on * rx.pullup_ohms > 0.5 * rx.supply_volts
        out = photodiode_receive(OpticalTrace(1e6, np.ones(500)), rx)
        assert out.initial_level == 0
        assert out.edges == ()

    def test_ook_square_wave_inverted_edges(self):
        n = 100
        period = np.concatenate([np.ones(n), np.zeros(n)])
        tr = OpticalTrace(1e6, np.tile(period, 4))
        out = photodiode_receive(tr, ReceiverCircuit())
        true_edges = [i * n / 1e6 for i in range(1, 8)]
        assert out.initial_level == 0  # light at t=0 reads low
        assert len(out.edges) == len(true_edges)
        for got, want in zip(out.edges, true_edges):
            assert abs(got - want) <= 1e-6 + 1e-12

    def test_polarity_round_trip_exact(self):
        line = LogicEventStream(1, (1e-4, 2e-4, 5e-4, 6e-4), 1e-3)
        fs = 1e6
        tr = led_transduce(line, LedModel(), fs)
        out = photodiode_receive(tr, ReceiverCircuit())
        restored = out.invert()
        assert restored.initial_level == line.initial_level
        assert len(restored.edges) == len(line.edges)
        err = np.abs(np.asarray(restored.edges) - np.asarray(line.edges))
        assert np.max(err) <= 1.5 / fs

    def test_node_voltage_model(self):
        rx = ReceiverCircuit()
        volts = rx.node_voltage(np.array([0.0, 0.05, 1.0]))
        assert volts[0] == pytest.approx(3.3)
        assert volts[1] == pytest.approx(3.3 - 0.05 * 5e-4 * 1e4)
        assert volts[2] == 0.0  # clamped at ground

    def test_node_stays_below_the_rail(self):
        volts = ReceiverCircuit().node_voltage(np.array([-1.0, -1e308, 1e308]))
        assert volts.tolist() == [3.3, 3.3, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
           st.sampled_from([ReceiverCircuit(), ReceiverCircuit(supply_volts=5.0, pullup_ohms=4.7e3),
                            ReceiverCircuit(logic_threshold_fraction=0.9, photocurrent_on=1e-6)]))
    def test_node_range_and_logic(self, irradiance, rx):
        """Any finite irradiance, a negative one too, puts the node in
        ``[0, supply_volts]``, and the logic read is that of the node
        clamped at ground alone."""
        x = np.array(irradiance)
        volts = rx.node_voltage(x)
        assert ((0.0 <= volts) & (volts <= rx.supply_volts)).all()
        with np.errstate(over="ignore"):
            ground_only = np.maximum(rx.supply_volts - x * rx.photocurrent_on * rx.pullup_ohms, 0.0)
        logic = ground_only >= rx.logic_threshold_fraction * rx.supply_volts
        flips = np.flatnonzero(logic[1:] != logic[:-1]) + 1
        got = photodiode_receive(OpticalTrace(1e3, x), rx)
        assert (got.initial_level, got.edges) == (int(logic[0]), tuple((flips / 1e3).tolist()))

    def test_circuit_validation(self):
        with pytest.raises(ValueError):
            ReceiverCircuit(pullup_ohms=0)
        with pytest.raises(ValueError):
            ReceiverCircuit(logic_threshold_fraction=1.0)
        with pytest.raises(ValueError, match="^photocurrent_on must be positive$"):
            ReceiverCircuit(photocurrent_on=0)

    def test_empty_trace_reads_an_empty_idle_stream(self):
        out = photodiode_receive(OpticalTrace(1e6, np.zeros(0)), ReceiverCircuit())
        assert (out.initial_level, out.edges, out.duration) == (1, (), 0.0)


# ---------------------------------------------------------------------------
# Contention check
# ---------------------------------------------------------------------------

class TestContentionCheck:
    def test_full_contention_unsafe(self):
        rx = ReceiverCircuit()
        report = contention_check(rx, driver_high=True, illuminated=True)
        assert report.current_amps == pytest.approx(3.3 / 100.0)  # 33 mA
        assert not report.safe  # exceeds the 25 mA driver limit

    def test_driver_low_dark_negligible_current(self):
        report = contention_check(ReceiverCircuit(), driver_high=False, illuminated=False)
        assert report.current_amps <= 3.3 / 10_000.0  # under the pull-up scale
        assert report.safe

    def test_driver_high_dark_safe(self):
        report = contention_check(ReceiverCircuit(), driver_high=True, illuminated=False)
        assert report.current_amps < 0.4e-3
        assert report.safe

    def test_monotone_in_series_resistance(self):
        prev = np.inf
        for ohms in (50.0, 100.0, 330.0, 1000.0):
            rx = ReceiverCircuit(series_ohms=ohms)
            current = contention_check(rx, True, True).current_amps
            assert current <= prev
            prev = current

    def test_raising_limit_makes_contention_safe(self):
        report = contention_check(ReceiverCircuit(), True, True, driver_limit_amps=0.05)
        assert report.safe


# ---------------------------------------------------------------------------
# diode_send
# ---------------------------------------------------------------------------

class TestDiodeSend:
    def test_clean_link_accepts_all(self):
        frames = frames_fixture(10, seed=1)
        report, accepted = diode_send(frames, CLEAN_LINK, NOISE)
        assert report.frames_sent == 10
        assert report.frames_accepted == 10
        assert report.frames_rejected == 0
        assert all(a.serialize() == f.serialize() for a, f in zip(accepted, frames))

    def test_digest_stable_across_runs(self):
        frames = frames_fixture(5, seed=2)
        a, _ = diode_send(frames, CLEAN_LINK, NOISE)
        b, _ = diode_send(frames, CLEAN_LINK, NOISE)
        assert a.emitter_trace_digest == b.emitter_trace_digest
        assert len(a.emitter_trace_digest) == 64  # 256-bit hex

    def test_empty_frame_list(self):
        report, accepted = diode_send([], CLEAN_LINK, NOISE)
        assert report.frames_sent == 0
        assert report.frames_accepted == 0
        assert accepted == []

    def test_dark_channel_rejects_no_sfd(self):
        frames = frames_fixture(10, seed=3)
        dark = DiodeLink(channel_attenuation=0.0)
        report, accepted = diode_send(frames, dark, NOISE)
        assert report.frames_accepted == 0
        assert dict(report.reject_reasons) == {"no_sfd": 10}
        assert accepted == []

    def test_attenuation_below_threshold_dark(self):
        # 0.33 normalized irradiance is the logic threshold with defaults
        frames = frames_fixture(3, seed=4)
        weak = DiodeLink(channel_attenuation=0.2)
        report, _ = diode_send(frames, weak, NOISE)
        assert report.frames_accepted == 0

    def test_link_rejects_a_rate_that_overflows(self):
        with pytest.raises(ValueError, match="^sample_rate must be positive and finite, got inf$"):
            DiodeLink(serial_cfg=SerialConfig(baud=1e308))

    def test_link_samples_each_bit_16_times(self):
        assert DiodeLink(serial_cfg=SerialConfig(baud=9600.0)).sample_rate == 16 * 9600.0

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            LinkReport(3, 1, 1, (), "00")

    def test_collect_traces(self):
        frames = frames_fixture(2, seed=5)
        runs = list(link_frames(frames, CLEAN_LINK, NOISE))
        assert len(runs) == 2
        for emitted, arrived, _ in runs:
            assert emitted.n_samples > 0
            assert arrived.n_samples == emitted.n_samples
            # channel attenuates: arrived peak below emitted peak
            assert arrived.samples.max() < emitted.samples.max()

    @pytest.mark.skipif(np.__version__ != "2.4.6",
                        reason="pinned with numpy 2.4.6's Generator.normal noise")
    def test_reports_and_accepted_frames_pinned(self):
        # per link type and receive-side program, one line: the report's JSON
        # and the hex of each accepted frame; sha256 over the lines
        frames = _deterministic_frames(12, 7)
        noise = NoiseModel(0.01, 0.002, 7)
        lines = []
        for link_type in (DiodeLink, WiredBackLink):
            link = link_type(channel_attenuation=0.8, serial_cfg=SerialConfig(baud=9600.0))
            for program in (None, *standard_adversaries()):
                report, accepted = diode_send(frames, link, noise, rx_program=program)
                lines.append(json.dumps(report.to_dict(), sort_keys=True)
                             + "".join(f.serialize().hex() for f in accepted))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "cca30ec7d1c337db49fc5efc3be6efa2e38c9443e7c901d95b0cb33154997266")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_end_to_end_identity_property(self, seed):
        frames = frames_fixture(3, seed=seed, max_payload=64)
        link = DiodeLink(channel_attenuation=0.5)
        noise = NoiseModel(0.02, 0.0, seed)
        report, accepted = diode_send(frames, link, noise)
        assert report.frames_accepted == len(frames)
        assert all(a.serialize() == f.serialize() for a, f in zip(accepted, frames))


# ---------------------------------------------------------------------------
# Unidirectionality
# ---------------------------------------------------------------------------

class TestUnidirectionality:
    def test_noop_adversary_passes(self):
        frames = frames_fixture(5, seed=6)
        baseline, _ = diode_send(frames, CLEAN_LINK, NOISE)
        ev = assert_unidirectional(baseline, CLEAN_LINK, [None], frames, NOISE)
        assert ev.passed
        assert ev.baseline_digest == ev.adversarial_digest

    @pytest.mark.parametrize("adversary", standard_adversaries(),
                             ids=lambda a: a.__name__)
    def test_standard_adversaries_pass(self, adversary):
        frames = frames_fixture(5, seed=7)
        baseline, _ = diode_send(frames, CLEAN_LINK, NOISE)
        ev = assert_unidirectional(baseline, CLEAN_LINK, [adversary], frames, NOISE)
        assert ev.passed
        assert ev.audit_ok

    def test_flooding_changes_receive_tally_not_digest(self):
        frames = frames_fixture(5, seed=8)
        base, _ = diode_send(frames, CLEAN_LINK, NOISE)
        adv, _ = diode_send(frames, CLEAN_LINK, NOISE, rx_program=flood_receive_buffers)
        assert base.emitter_trace_digest == adv.emitter_trace_digest
        assert adv.frames_accepted < base.frames_accepted  # receive side got hurt

    def test_wired_back_double_fails(self):
        frames = frames_fixture(5, seed=9)
        wired = WiredBackLink(channel_attenuation=0.8)
        baseline, _ = diode_send(frames, wired, NOISE)
        ev = assert_unidirectional(baseline, wired, [flood_receive_buffers], frames, NOISE)
        assert not ev.passed
        assert ev.baseline_digest != ev.adversarial_digest

    def test_refuses_a_one_shot_iterator(self):
        # each adversary's run sends the frames again: an iterator would be
        # used up by the first, and the next would hash no light at all
        frames = frames_fixture(3, seed=6)
        baseline, _ = diode_send(frames, CLEAN_LINK, NOISE)
        with pytest.raises(TypeError, match="re-iterable"):
            assert_unidirectional(baseline, CLEAN_LINK, standard_adversaries(), iter(frames), NOISE)
        assert assert_unidirectional(baseline, CLEAN_LINK, standard_adversaries(),
                                     tuple(frames), NOISE).passed

    def test_stops_at_first_failing_adversary(self):
        # snooping leaves the wired-back tap alone; poking injects an octet
        frames = frames_fixture(3, seed=9)
        wired = WiredBackLink(channel_attenuation=0.8)
        baseline, _ = diode_send(frames, wired, NOISE)
        adversaries = [snoop_receive_state, poke_receive_interface, flood_receive_buffers]
        with mock.patch("ledleak.diode.link_frames", wraps=diode.link_frames) as runs:
            ev = assert_unidirectional(baseline, wired, adversaries, frames, NOISE)
        assert not ev.passed and ev.audit_ok
        assert ev.adversary == "poke_receive_interface"
        assert ev.baseline_digest == baseline.emitter_trace_digest != ev.adversarial_digest
        assert runs.call_count == 2

    def test_wired_back_deterministic_per_run_shape(self):
        # the double is still deterministic: same run twice gives same digest
        frames = frames_fixture(4, seed=10)
        wired = WiredBackLink(channel_attenuation=0.8)
        a, _ = diode_send(frames, wired, NOISE, rx_program=flood_receive_buffers)
        b, _ = diode_send(frames, wired, NOISE, rx_program=flood_receive_buffers)
        assert a.emitter_trace_digest == b.emitter_trace_digest

    def test_wired_back_runs_interleave_independently(self):
        # each run owns its back channel, so interleaving two runs on one
        # link gives the digests of the same runs made one after the other
        frames = frames_fixture(4, seed=10)
        wired = WiredBackLink(channel_attenuation=0.8)
        plain, flooded = [], []
        for a, b in zip(link_frames(frames, wired, NOISE),
                        link_frames(frames, wired, NOISE, rx_program=flood_receive_buffers)):
            plain.append(a)
            flooded.append(b)
        alone_plain, _ = diode_send(frames, wired, NOISE)
        alone_flooded, _ = diode_send(frames, wired, NOISE, rx_program=flood_receive_buffers)
        assert link_report(plain) == alone_plain
        assert link_report(flooded) == alone_flooded
        assert alone_plain.emitter_trace_digest != alone_flooded.emitter_trace_digest

    def test_interface_partition_audit(self):
        assert interface_partition_audit()

    def test_adversaries_cannot_mutate_rx_circuit(self):
        frames = frames_fixture(2, seed=11)
        report, _ = diode_send(frames, CLEAN_LINK, NOISE, rx_program=poke_receive_interface)
        assert CLEAN_LINK.rx.pullup_ohms == 10_000.0

    def test_snapshot_shows_the_last_frame(self):
        frames = frames_fixture(3, seed=13)
        seen = []
        diode_send(frames, CLEAN_LINK, NOISE, rx_program=lambda port, i: seen.append(port.snapshot()))
        preamble = PREAMBLE_OCTETS + bytes([SFD_OCTET])
        assert seen == [{"decoded": preamble + f.serialize(), "rx": CLEAN_LINK.rx} for f in frames]

    def test_snoop_sees_but_cannot_touch(self):
        frames = frames_fixture(3, seed=12)
        base, _ = diode_send(frames, CLEAN_LINK, NOISE)
        adv, _ = diode_send(frames, CLEAN_LINK, NOISE, rx_program=snoop_receive_state)
        assert base.emitter_trace_digest == adv.emitter_trace_digest
        assert base.frames_accepted == adv.frames_accepted
