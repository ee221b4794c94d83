"""Independent reference implementations used only to generate and check
expected test values.

Everything here is deliberately brute force (bit-serial loops, dense
sampling) and shares no code with the package under test.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# CRC-32 (bit-serial, reflected, init all-ones, final complement)
# ---------------------------------------------------------------------------

def crc32_bitserial(data: bytes) -> int:
    """One bit at a time, LSB first, reflected polynomial 0xEDB88320."""
    reg = 0xFFFFFFFF
    for byte in data:
        for i in range(8):
            bit = (byte >> i) & 1
            if (reg ^ bit) & 1:
                reg = (reg >> 1) ^ 0xEDB88320
            else:
                reg >>= 1
    return reg ^ 0xFFFFFFFF


def crc32_bitserial_le(data: bytes) -> bytes:
    return crc32_bitserial(data).to_bytes(4, "little")


# ---------------------------------------------------------------------------
# UART cell enumeration (hand oracle)
# ---------------------------------------------------------------------------

def uart_cells(octets: bytes, data_bits: int = 8, parity: str = "none",
               stop_bits: int = 1) -> list[int]:
    """Flat list of bit-cell levels for back-to-back frames, no idle gaps."""
    cells: list[int] = []
    for value in octets:
        cells.append(0)
        for k in range(data_bits):
            cells.append((value >> k) & 1)
        if parity != "none":
            ones = bin(value & ((1 << data_bits) - 1)).count("1")
            pbit = ones % 2 if parity == "even" else (ones % 2) ^ 1
            cells.append(pbit)
        cells.extend([1] * stop_bits)
    return cells


def uart_edges_from_cells(cells: list[int], bit_time: float) -> list[float]:
    """Edge instants of an idle-high line emitting the given cells from t=0."""
    edges = []
    level = 1
    for k, cell in enumerate(cells):
        if cell != level:
            edges.append(k * bit_time)
            level = cell
    return edges


# ---------------------------------------------------------------------------
# Dense-grid interval oracles (pulse stretching, activity windows)
# ---------------------------------------------------------------------------

def sample_levels(initial: int, edges: list[float], duration: float,
                  dt: float) -> np.ndarray:
    n = int(round(duration / dt))
    t = np.arange(n) * dt
    k = np.searchsorted(np.asarray(edges, dtype=float), t, side="right")
    return (initial ^ (k & 1)).astype(np.int8)


def intervals_from_dense(levels: np.ndarray, dt: float) -> list[tuple[float, float]]:
    """Maximal runs of ones as (start, end) times."""
    out = []
    start = None
    for i, v in enumerate(levels):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append((start * dt, i * dt))
            start = None
    if start is not None:
        out.append((start * dt, len(levels) * dt))
    return out


def stretch_intervals(ivs: list[tuple[float, float]], min_on: float) -> list[tuple[float, float]]:
    """Interval-union oracle: lengthen each short interval, then merge."""
    merged: list[list[float]] = []
    for s, e in ivs:
        e = max(e, s + min_on)
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def envelope_intervals(edges: list[float], window: float) -> list[tuple[float, float]]:
    """Union of [edge, edge + window] over all edges."""
    merged: list[list[float]] = []
    for e in sorted(edges):
        s, t = e, e + window
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t)
        else:
            merged.append([s, t])
    return [(s, e) for s, e in merged]


# ---------------------------------------------------------------------------
# First-order LED step response (closed form)
# ---------------------------------------------------------------------------

def exp_approach(v0: float, target: float, tau: float, t: float) -> float:
    return target + (v0 - target) * math.exp(-t / tau)


def led_transduce_loop(line, led, sample_rate: float, active_high: bool = True) -> np.ndarray:
    """LED brightness samples, one segment between edges at a time.

    Evaluates the exponential at every sample of every segment; the
    vectorised ``led_transduce`` must match it byte for byte.
    """
    n = int(round(line.duration * sample_rate))
    out = np.empty(n, dtype=np.float64)
    bounds = (0.0,) + line.edges + (line.duration,)
    level = line.initial_level
    lit = level if active_high else 1 - level
    # The line held its initial level forever before t=0: start at steady state.
    value = led.on_level if lit else led.off_level
    idx = 0
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        if j > 0:
            level ^= 1
        lit = level if active_high else 1 - level
        target = led.on_level if lit else led.off_level
        tau = led.rise_time if target > value else led.fall_time
        hi = min(n, int(np.ceil(b * sample_rate - 1e-9)))
        if hi > idx:
            t = np.arange(idx, hi) / sample_rate - a
            out[idx:hi] = target + (value - target) * np.exp(-t / tau)
            idx = hi
        value = target + (value - target) * np.exp(-(b - a) / tau)
    if idx < n:
        out[idx:] = value
    return out


# ---------------------------------------------------------------------------
# Hamming distance over octet sequences (definition oracle)
# ---------------------------------------------------------------------------

def ber_definition(sent: bytes, recovered: bytes) -> float:
    n = max(len(sent), len(recovered))
    if n == 0:
        return 0.0
    errors = 0
    for i in range(n):
        if i < len(sent) and i < len(recovered):
            errors += bin(sent[i] ^ recovered[i]).count("1")
        else:
            errors += 8
    return errors / (8 * n)
