"""Shared signal value types.

Logic event streams (edge lists), sampled optical traces, serial framing
parameters and the additive noise model. All of these are immutable values;
the operations elsewhere in the package are pure functions over them, so
everything here is safe to share between threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: Standard asynchronous serial rates used as default baud candidates.
STANDARD_BAUDS = (300.0, 600.0, 1200.0, 2400.0, 4800.0, 9600.0, 14400.0,
                  19200.0, 28800.0, 38400.0, 57600.0, 115200.0)

_PARITIES = ("none", "even", "odd")


@dataclass(frozen=True)
class SerialConfig:
    """Asynchronous serial framing parameters (default 9600 baud, 8N1).

    ``idle_between_octets`` inserts extra mark time after each frame's stop
    bits; zero gives back-to-back frames.
    """

    baud: float = 9600.0
    data_bits: int = 8
    parity: str = "none"
    stop_bits: int = 1
    idle_between_octets: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.baud < float("inf"):
            raise ConfigError(f"baud must be positive and finite, got {self.baud}")
        if self.data_bits not in (7, 8):
            raise ConfigError(f"data_bits must be 7 or 8, got {self.data_bits}")
        if self.parity not in _PARITIES:
            raise ConfigError(f"parity must be one of {_PARITIES}, got {self.parity!r}")
        if self.stop_bits not in (1, 2):
            raise ConfigError(f"stop_bits must be 1 or 2, got {self.stop_bits}")
        if self.idle_between_octets < 0:
            raise ConfigError("idle_between_octets must be >= 0")

    @property
    def bit_time(self) -> float:
        return 1.0 / self.baud

    @property
    def frame_bits(self) -> int:
        """Bit cells per frame: start + data + parity + stop."""
        return 1 + self.data_bits + (self.parity != "none") + self.stop_bits

    @property
    def frame_time(self) -> float:
        """Seconds from one start bit to the earliest next start bit."""
        return self.frame_bits * self.bit_time + self.idle_between_octets

    def parity_bit(self, value: int) -> int:
        ones = bin(value & ((1 << self.data_bits) - 1)).count("1")
        return ones % 2 if self.parity == "even" else (ones % 2) ^ 1


@dataclass(frozen=True)
class LogicEventStream:
    """Binary waveform as an initial level plus strictly increasing edge times.

    An edge at time ``t`` means the level flips at ``t`` and the new level
    holds for all later instants (right-continuous). All timestamps are in
    seconds within ``[0, duration]``.
    """

    initial_level: int
    edges: tuple[float, ...]
    duration: float

    def __post_init__(self) -> None:
        if self.initial_level not in (0, 1):
            raise ValueError(f"initial_level must be 0 or 1, got {self.initial_level}")
        if not self.duration >= 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        edges = tuple(float(t) for t in self.edges)
        object.__setattr__(self, "edges", edges)
        if edges:
            arr = np.asarray(edges)
            if not np.all(np.diff(arr) > 0):
                raise ValueError("edge timestamps must be strictly increasing")
            if arr[0] < 0 or arr[-1] > self.duration:
                raise ValueError("edge timestamps must lie within [0, duration]")

    def level_at(self, t: float) -> int:
        k = bisect_right(self.edges, t)
        return self.initial_level ^ (k & 1)

    def levels_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`level_at` for an array of instants."""
        k = np.searchsorted(np.asarray(self.edges), times, side="right")
        return (self.initial_level ^ (k & 1)).astype(np.int8)

    def invert(self) -> "LogicEventStream":
        return LogicEventStream(1 - self.initial_level, self.edges, self.duration)

    def intervals(self, level: int = 1) -> list[tuple[float, float]]:
        """Maximal intervals during which the stream holds ``level``."""
        out: list[tuple[float, float]] = []
        prev = 0.0
        cur = self.initial_level
        for e in self.edges:
            if cur == level and e > prev:
                out.append((prev, e))
            prev = e
            cur ^= 1
        if cur == level and self.duration > prev:
            out.append((prev, self.duration))
        return out

    def shortest_pulse(self) -> float:
        """Shortest time between consecutive level flips (inf if < 2 edges)."""
        if len(self.edges) < 2:
            return float("inf")
        return float(np.min(np.diff(np.asarray(self.edges))))


@dataclass(frozen=True, eq=False)
class OpticalTrace:
    """Uniformly sampled photodetector signal in normalized irradiance.

    Sample ``i`` is the value at ``origin_time + i / sample_rate``. The
    sample array is frozen read-only on construction.
    """

    sample_rate: float
    samples: np.ndarray
    origin_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate < float("inf"):
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def times(self) -> np.ndarray:
        return self.origin_time + np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class NoiseModel:
    """Additive receiver noise: DC ambient offset plus Gaussian noise.

    The same seed and inputs always reproduce the exact same samples.
    """

    gaussian_sigma: float = 0.0
    ambient_offset: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gaussian_sigma < 0:
            raise ValueError("gaussian_sigma must be >= 0")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
