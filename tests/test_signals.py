import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledleak.errors import ConfigError
from ledleak.signals import (
    _FINITE_BLOCK,
    LogicEventStream,
    NoiseModel,
    OpticalTrace,
    SerialConfig,
)

from oracles import intervals, intervals_loop, level_at, levels_at_sorted, trace_times
from strategies import grid_and_stream


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
        {"idle_between_octets": float("inf")}, {"idle_between_octets": float("nan")},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            SerialConfig(**kwargs)

    @pytest.mark.parametrize("baud", [1e-308, 5e-324, 5.5e-308])
    def test_rejects_baud_with_infinite_frame_time(self, baud):
        with pytest.raises(ConfigError, match=f"finite frame time, got {baud}$"):
            SerialConfig(baud=baud)

    def test_tiny_baud_with_finite_frame_time_accepted(self):
        assert SerialConfig(baud=1e-307).frame_time == 1e308


class TestLogicEventStream:
    def test_level_at_flips_on_edges(self):
        s = LogicEventStream(1, (1.0, 2.0, 3.0), 4.0)
        assert level_at(s, 0.5) == 1
        assert level_at(s, 1.0) == 0  # right-continuous
        assert level_at(s, 1.5) == 0
        assert level_at(s, 2.5) == 1
        assert level_at(s, 3.5) == 0

    def test_levels_at_matches_scalar(self):
        s = LogicEventStream(0, (0.25, 0.5, 0.75), 1.0)
        t = np.linspace(0, 1, 17)
        assert list(s.levels_at(t)) == [level_at(s, x) for x in t]

    def test_invert(self):
        s = LogicEventStream(1, (1.0,), 2.0)
        inv = s.invert()
        assert inv.initial_level == 0
        assert inv.edges == s.edges
        assert inv.invert() == s

    def test_intervals(self):
        s = LogicEventStream(0, (1.0, 2.0, 3.0), 5.0)
        assert intervals(s, 1) == [(1.0, 2.0), (3.0, 5.0)]
        assert intervals(s, 0) == [(0.0, 1.0), (2.0, 3.0)]

    def test_intervals_skip_zero_length(self):
        s = LogicEventStream(1, (0.0, 1.0), 1.0)
        assert intervals(s, 1) == [(1.0, 1.0)] or intervals(s, 1) == []
        # leading zero-length mark interval must not appear
        assert (0.0, 0.0) not in intervals(s, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 1),
           st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0]), max_size=6),
           st.sampled_from([0.0, 1.0, 2.0]))
    def test_interval_bounds_match_loop(self, initial, level, edges, duration):
        """Signed zeros included: an edge at -0.0 or at 0, or at ``duration``."""
        edges = [e for e in sorted(set(edges), key=lambda e: (e, str(e))) if e <= duration]
        edges = [e for i, e in enumerate(edges) if i == 0 or e > edges[i - 1]]
        line = LogicEventStream(initial, tuple(edges), duration)
        starts, ends = line.interval_bounds(level)
        assert starts.dtype == ends.dtype == np.float64
        want = intervals_loop(line, level)
        assert repr(list(zip(starts.tolist(), ends.tolist()))) == repr(want)
        assert repr(intervals(line, level)) == repr(want)

    def test_shortest_pulse(self):
        s = LogicEventStream(0, (1.0, 1.25, 3.0), 5.0)
        assert s.shortest_pulse() == pytest.approx(0.25)
        assert LogicEventStream(0, (), 1.0).shortest_pulse() == np.inf

    @pytest.mark.parametrize("edges", [(2.0, 1.0), (1.0, 1.0), (-0.5,), (6.0,)])
    def test_rejects_bad_edges(self, edges):
        with pytest.raises(ValueError):
            LogicEventStream(0, edges, 5.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), -1.0])
    def test_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError, match="duration"):
            LogicEventStream(0, (), duration)

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            LogicEventStream(2, (), 1.0)

    @pytest.mark.parametrize("edges, message", [
        ((2.0, 1.0), "strictly increasing"),
        ((1.0, 1.0), "strictly increasing"),
        ((1.0, float("nan")), "strictly increasing"),
        ((-0.5,), r"within \[0, duration\]"),
        ((6.0,), r"within \[0, duration\]"),
        ((float("inf"),), r"within \[0, duration\]"),
        ((float("nan"),), r"within \[0, duration\]"),
    ])
    def test_edge_errors_name_the_check(self, edges, message):
        with pytest.raises(ValueError, match=message):
            LogicEventStream(0, edges, 5.0)

    def test_edges_become_floats_and_a_read_only_array(self):
        s = LogicEventStream(0, [1, np.float64(2.5)], 5.0)
        assert s.edges == (1.0, 2.5)
        assert all(type(t) is float for t in s.edges)
        assert s.edge_array.tolist() == [1.0, 2.5]
        with pytest.raises(ValueError):
            s.edge_array[0] = 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3), unique=True, max_size=40).map(sorted),
           st.integers(0, 1))
    def test_array_edges_make_the_tuple_stream(self, times, initial):
        """Edges given as an array build the stream their tuple builds, and
        the stream keeps its own copy."""
        arr = np.array(times, dtype=np.float64)
        s = LogicEventStream(initial, arr, 1e3)
        t = LogicEventStream(initial, tuple(arr.tolist()), 1e3)
        assert s == t and hash(s) == hash(t)
        assert s.edges == t.edges and all(type(e) is float for e in s.edges)
        assert s.edge_array.tobytes() == t.edge_array.tobytes()
        assert not s.edge_array.flags.writeable
        arr[:] = -1.0
        assert s.edges == t.edges and s.edge_array.tobytes() == t.edge_array.tobytes()
        assert s.invert().invert() == s

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3), unique=True, max_size=40).map(sorted),
           st.integers(0, 1))
    def test_invert_is_the_checked_stream(self, times, initial):
        """``invert`` shares the checked edges, yet is the stream the
        constructor builds from them."""
        s = LogicEventStream(initial, times, 1e3)
        inv = s.invert()
        checked = LogicEventStream(1 - initial, times, 1e3)
        assert type(inv) is LogicEventStream and vars(inv).keys() == vars(checked).keys()
        assert inv == checked and hash(inv) == hash(checked)
        assert inv.edge_array is s.edge_array and inv.edges is s.edges
        assert not inv.edge_array.flags.writeable
        assert inv.invert() == s and s.initial_level == initial

    @pytest.mark.parametrize("edges", [1.0, np.float64(1.0), [[1.0, 2.0]], np.zeros((2, 0))])
    def test_edges_must_be_one_dimensional(self, edges):
        with pytest.raises(ValueError, match="one-dimensional"):
            LogicEventStream(0, edges, 5.0)


_FRACTIONS = st.lists(st.floats(0.0, 1.0), max_size=60)


class TestLevelsAtSorted:
    """``levels_at_sorted`` is ``levels_at`` on any non-decreasing 1-D array."""

    @settings(max_examples=150, deadline=None)
    @given(grid_and_stream(), st.data())
    def test_matches_levels_at(self, case, data):
        """On the trace's sample grid, or on a sorted multiset of instants on,
        one ulp either side of and beyond the edges."""
        trace, line = case
        t = trace_times(trace)
        if data.draw(st.booleans(), label="repeated instants"):
            spots = [0.0, line.duration, -1.0, line.duration + 1.0, *line.edges,
                     *(float(np.nextafter(e, np.inf)) for e in line.edges),
                     *(float(np.nextafter(e, -np.inf)) for e in line.edges)]
            u = np.array(data.draw(_FRACTIONS), dtype=np.float64)
            t = np.sort(np.array(spots)[(u * (len(spots) - 1)).astype(np.int64)])
        got = levels_at_sorted(line, t)
        assert got.dtype == np.int8
        assert np.array_equal(got, line.levels_at(t))

    def test_empty_grid_and_no_edges(self):
        line = LogicEventStream(1, (), 1.0)
        assert levels_at_sorted(line, np.arange(0.0)).tolist() == []
        assert levels_at_sorted(line, np.arange(3.0)).tolist() == [1, 1, 1]
        assert levels_at_sorted(LogicEventStream(0, (0.5,), 1.0), np.arange(0.0)).dtype == np.int8

    def test_edge_on_an_instant_counts_there(self):
        line = LogicEventStream(0, (0.0, 1.0, 2.0), 2.0)
        t = np.array([0.0, 0.5, 1.0, 1.0, 2.0])
        assert levels_at_sorted(line, t).tolist() == [1, 1, 0, 0, 1]


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
        assert trace_times(tr)[0] == 2.0
        assert trace_times(tr)[-1] == pytest.approx(2.49)

    def test_adopt_skips_only_the_copy(self):
        arr = np.zeros(4)
        tr = OpticalTrace._adopt(10.0, arr, 2.0)
        assert np.shares_memory(tr.samples, arr) and not tr.samples.flags.writeable
        assert type(tr.samples) is np.ndarray
        assert (tr.sample_rate, tr.origin_time) == (10.0, 2.0)
        for rate, samples, match in [(0.0, np.zeros(3), "sample_rate"),
                                     (1.0, np.zeros((2, 2)), "one-dimensional"),
                                     (1.0, np.array([0.0, np.inf]), "finite")]:
            with pytest.raises(ValueError, match=match):
                OpticalTrace._adopt(rate, samples)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            OpticalTrace(1.0, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            OpticalTrace(0.0, np.zeros(3))

    @pytest.mark.parametrize("origin", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_origin(self, origin):
        with pytest.raises(ValueError, match=f"^origin_time must be finite, got {origin}$"):
            OpticalTrace(1.0, np.zeros(3), origin)

    @pytest.mark.parametrize("at", [0, _FINITE_BLOCK - 1, _FINITE_BLOCK, 2 * _FINITE_BLOCK + 6])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_found_in_any_block(self, at, bad):
        samples = np.zeros(2 * _FINITE_BLOCK + 7)
        samples[at] = bad
        with pytest.raises(ValueError, match="finite"):
            OpticalTrace._adopt(1.0, samples)

    def test_finiteness_check_needs_no_sample_sized_mask(self):
        samples = np.zeros(1 << 20)
        tracemalloc.start()
        try:
            OpticalTrace._adopt(1.0, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(gaussian_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(seed=2**64)
        NoiseModel(0.1, 0.0, 2**63)

    @pytest.mark.parametrize("kwargs, field", [
        ({"gaussian_sigma": float("nan")}, "gaussian_sigma"),
        ({"gaussian_sigma": float("inf")}, "gaussian_sigma"),
        ({"gaussian_sigma": -0.1}, "gaussian_sigma"),
        ({"ambient_offset": float("nan")}, "ambient_offset"),
        ({"ambient_offset": float("inf")}, "ambient_offset"),
        ({"ambient_offset": float("-inf")}, "ambient_offset"),
    ])
    def test_non_finite_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**kwargs)
