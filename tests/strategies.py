"""Hypothesis strategies shared by the sample-grid property tests.

Every strategy is built once at import: building one per example (say a
``sampled_from`` over that example's instants) costs more than the test.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from ledleak.signals import LogicEventStream, OpticalTrace

from oracles import trace_times

#: 1 kHz to 3.3 MHz: named rates (16x 9600 baud, the sweep's 1 MHz, one whose
#: period is not exact) and any between.
SAMPLE_RATES = st.one_of(st.sampled_from([1e3, 153600.0, 1e6, 1e6 / 3, 3.3e6]),
                         st.floats(1e3, 3.3e6))
#: Trace origins, in sample periods (off the grid too) or in seconds.
_ORIGINS = st.one_of(st.sampled_from([0.0, -1.5, 0.5]).map(lambda k: ("periods", k)),
                     st.sampled_from([1e-3, -1e-3]).map(lambda s: ("seconds", s)),
                     st.floats(-2e-3, 2e-3).map(lambda s: ("seconds", s)))
#: Where an edge lands: on a grid instant in [0, duration], one ulp below
#: or above one, at 0, at ``duration`` or anywhere in between. The fraction
#: picks the instant or the time.
_SPOTS = st.tuples(st.sampled_from(["on", "below", "above", "zero", "end", "any"]),
                   st.floats(0.0, 1.0))
_ULP_TOWARD = {"on": 0.0, "below": -np.inf, "above": np.inf}


def _pick(arr: np.ndarray, u: float) -> float:
    return float(arr[int(u * (arr.size - 1))])


@st.composite
def grid_and_stream(draw, max_samples: int = 200):
    """An empty trace on a sample grid, and a stream whose edges sit on grid
    instants, one ulp either side of them, at 0, at ``duration`` or anywhere.

    The origin may be off zero or off the grid, and ``duration`` may fall on
    an instant, so the trace and the stream need not cover the same span.
    """
    rate = draw(SAMPLE_RATES)
    unit, k = draw(_ORIGINS)
    trace = OpticalTrace(rate, np.zeros(draw(st.integers(0, max_samples))),
                         k / rate if unit == "periods" else k)
    t = trace_times(trace)
    inside = t[t >= 0]
    on_grid, u = draw(st.tuples(st.booleans(), st.floats(0.0, 1.0)))
    if on_grid and inside.size:
        duration = _pick(inside, u)
    else:
        duration = u * max(_pick(inside, 1.0) if inside.size else 0.0,
                           (trace.n_samples + 1) / rate)
    g = inside[inside <= duration]
    edges = set()
    for kind, u in draw(st.lists(_SPOTS, max_size=16)):
        if kind in _ULP_TOWARD and g.size:
            edges.add(float(np.nextafter(_pick(g, u), _ULP_TOWARD[kind])))
        elif kind not in _ULP_TOWARD:
            edges.add({"zero": 0.0, "end": duration, "any": u * duration}[kind])
    edges = sorted(e for e in edges if 0.0 <= e <= duration)
    return trace, LogicEventStream(draw(st.integers(0, 1)), tuple(edges), duration)
