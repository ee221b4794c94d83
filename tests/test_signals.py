import numpy as np
import pytest

from ledleak.errors import ConfigError
from ledleak.signals import LogicEventStream, NoiseModel, OpticalTrace, SerialConfig


class TestSerialConfig:
    def test_defaults(self):
        cfg = SerialConfig()
        assert cfg.baud == 9600
        assert cfg.frame_bits == 10
        assert cfg.bit_time == pytest.approx(104.1666e-6, rel=1e-4)

    def test_parity_adds_bit(self):
        assert SerialConfig(parity="even").frame_bits == 11
        assert SerialConfig(stop_bits=2).frame_bits == 11

    @pytest.mark.parametrize("kwargs", [
        {"baud": 0}, {"baud": -9600}, {"data_bits": 9}, {"data_bits": 5},
        {"parity": "mark"}, {"stop_bits": 3}, {"idle_between_octets": -1e-3},
        {"baud": float("inf")}, {"baud": float("nan")},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            SerialConfig(**kwargs)

    def test_parity_bit(self):
        cfg = SerialConfig(parity="even")
        assert cfg.parity_bit(0x00) == 0
        assert cfg.parity_bit(0x01) == 1
        odd = SerialConfig(parity="odd")
        assert odd.parity_bit(0x00) == 1
        assert odd.parity_bit(0x03) == 1


class TestLogicEventStream:
    def test_level_at_flips_on_edges(self):
        s = LogicEventStream(1, (1.0, 2.0, 3.0), 4.0)
        assert s.level_at(0.5) == 1
        assert s.level_at(1.0) == 0  # right-continuous
        assert s.level_at(1.5) == 0
        assert s.level_at(2.5) == 1
        assert s.level_at(3.5) == 0

    def test_levels_at_matches_scalar(self):
        s = LogicEventStream(0, (0.25, 0.5, 0.75), 1.0)
        t = np.linspace(0, 1, 17)
        assert list(s.levels_at(t)) == [s.level_at(x) for x in t]

    def test_invert(self):
        s = LogicEventStream(1, (1.0,), 2.0)
        inv = s.invert()
        assert inv.initial_level == 0
        assert inv.edges == s.edges
        assert inv.invert() == s

    def test_intervals(self):
        s = LogicEventStream(0, (1.0, 2.0, 3.0), 5.0)
        assert s.intervals(1) == [(1.0, 2.0), (3.0, 5.0)]
        assert s.intervals(0) == [(0.0, 1.0), (2.0, 3.0)]

    def test_intervals_skip_zero_length(self):
        s = LogicEventStream(1, (0.0, 1.0), 1.0)
        assert s.intervals(1) == [(1.0, 1.0)] or s.intervals(1) == []
        # leading zero-length mark interval must not appear
        assert (0.0, 0.0) not in s.intervals(1)

    def test_shortest_pulse(self):
        s = LogicEventStream(0, (1.0, 1.25, 3.0), 5.0)
        assert s.shortest_pulse() == pytest.approx(0.25)
        assert LogicEventStream(0, (), 1.0).shortest_pulse() == np.inf

    @pytest.mark.parametrize("edges", [(2.0, 1.0), (1.0, 1.0), (-0.5,), (6.0,)])
    def test_rejects_bad_edges(self, edges):
        with pytest.raises(ValueError):
            LogicEventStream(0, edges, 5.0)

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            LogicEventStream(2, (), 1.0)


class TestOpticalTrace:
    def test_samples_frozen(self):
        tr = OpticalTrace(1000.0, np.zeros(10))
        with pytest.raises(ValueError):
            tr.samples[0] = 1.0

    def test_copy_decouples_from_input(self):
        src = np.zeros(4)
        tr = OpticalTrace(1.0, src)
        src[0] = 9.0
        assert tr.samples[0] == 0.0

    def test_duration_and_times(self):
        tr = OpticalTrace(100.0, np.zeros(50), origin_time=2.0)
        assert tr.duration == pytest.approx(0.5)
        assert tr.times()[0] == 2.0
        assert tr.times()[-1] == pytest.approx(2.49)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            OpticalTrace(1.0, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            OpticalTrace(0.0, np.zeros(3))


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(gaussian_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(seed=2**64)
        NoiseModel(0.1, 0.0, 2**63)
