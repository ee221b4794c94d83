"""Shared signal value types.

Logic event streams (edge lists), sampled optical traces, serial framing
parameters and the additive noise model. All of these are immutable values;
the operations elsewhere in the package are pure functions over them, so
everything here is safe to share between threads.
"""

from __future__ import annotations

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
        if not 0 <= self.idle_between_octets < float("inf"):
            raise ConfigError(
                f"idle_between_octets must be >= 0 and finite, got {self.idle_between_octets}")
        if not self.frame_time < float("inf"):
            raise ConfigError(f"baud must give a finite frame time, got {self.baud}")

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


@dataclass(frozen=True)
class LogicEventStream:
    """Binary waveform as an initial level plus strictly increasing edge times.

    An edge at time ``t`` means the level flips at ``t`` and the new level
    holds for all later instants (right-continuous). All timestamps are in
    seconds within ``[0, duration]``, and ``duration`` is finite.

    ``edges`` may be any 1-D sequence or array of numbers. It is copied
    once into a read-only float64 array, :attr:`edge_array`, and kept as a
    tuple of Python floats, so later writes to the caller's array never
    reach the stream.
    """

    initial_level: int
    edges: tuple[float, ...]
    duration: float

    def __post_init__(self) -> None:
        if self.initial_level not in (0, 1):
            raise ValueError(f"initial_level must be 0 or 1, got {self.initial_level}")
        if not 0 <= self.duration < float("inf"):
            raise ValueError(f"duration must be >= 0 and finite, got {self.duration}")
        arr = np.array(self.edges, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"edges must be one-dimensional, got {arr.ndim} dimensions")
        if arr.size:
            if not np.all(np.diff(arr) > 0):
                raise ValueError("edge timestamps must be strictly increasing")
            if not (arr[0] >= 0 and arr[-1] <= self.duration):
                raise ValueError("edge timestamps must lie within [0, duration]")
        arr.setflags(write=False)
        object.__setattr__(self, "_edge_array", arr)
        object.__setattr__(self, "edges", tuple(arr.tolist()))

    @property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only float64 array, built once."""
        return self._edge_array

    def levels_at(self, times: np.ndarray) -> np.ndarray:
        """The level at each instant of ``times``, of any shape; an edge counts from its own."""
        k = np.searchsorted(self._edge_array, times, side="right")
        return (self.initial_level ^ (k & 1)).astype(np.int8)

    def invert(self) -> "LogicEventStream":
        """The stream with every level flipped, sharing this one's checked edges."""
        out = object.__new__(type(self))
        out.__dict__.update(vars(self), initial_level=1 - self.initial_level)
        return out

    def interval_bounds(self, level: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Starts and ends of the maximal intervals during which the stream
        holds ``level``, as two float64 arrays; an empty one is left out."""
        first = self.initial_level ^ level  # the first segment at ``level``: 0 or 1
        bounds = np.concatenate(([0.0], self._edge_array, [self.duration]))
        starts, ends = bounds[first:-1:2], bounds[first + 1::2]
        keep = ends > starts
        return starts[keep], ends[keep]

    def shortest_pulse(self) -> float:
        """Shortest time between consecutive level flips (inf if < 2 edges)."""
        if len(self.edges) < 2:
            return float("inf")
        return float(np.min(np.diff(self._edge_array)))


#: Samples checked for finiteness at a time: the mask is 64 KiB, not one byte per sample.
_FINITE_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class OpticalTrace:
    """Uniformly sampled photodetector signal in normalized irradiance.

    Sample ``i`` is the value at ``origin_time + i / sample_rate``. The
    sample array is copied and frozen read-only on construction.
    """

    sample_rate: float
    samples: np.ndarray
    origin_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate < float("inf"):
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")
        if not abs(self.origin_time) < float("inf"):
            raise ValueError(f"origin_time must be finite, got {self.origin_time}")
        arr = np.array(self.samples, dtype=np.float64, copy=type(self.samples) is not _Fresh)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not all(np.isfinite(arr[i:i + _FINITE_BLOCK]).all()
                   for i in range(0, arr.size, _FINITE_BLOCK)):
            raise ValueError("samples must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @classmethod
    def _adopt(cls, sample_rate: float, samples: np.ndarray,
               origin_time: float = 0.0) -> "OpticalTrace":
        """A trace over ``samples``, a float64 array that nothing else holds:
        every check of construction, without the copy."""
        return cls(sample_rate, samples.view(_Fresh), origin_time)


class _Fresh(np.ndarray):
    """Marks the array :meth:`OpticalTrace._adopt` hands over uncopied."""


@dataclass(frozen=True)
class NoiseModel:
    """Additive receiver noise: DC ambient offset plus Gaussian noise.

    The same seed and inputs always reproduce the exact same samples.
    """

    gaussian_sigma: float = 0.0
    ambient_offset: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.gaussian_sigma < float("inf"):
            raise ValueError(f"gaussian_sigma must be >= 0 and finite, got {self.gaussian_sigma}")
        if not -float("inf") < self.ambient_offset < float("inf"):
            raise ValueError(f"ambient_offset must be finite, got {self.ambient_offset}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
