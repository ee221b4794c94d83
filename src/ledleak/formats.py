"""Text file formats and atomic writes.

Trace files: ``# optrace v1 sample_rate_hz=<float> origin_s=<float>`` then
one decimal sample per line. Event files: ``# optevents v1 initial=<0|1>
duration_s=<float>`` then one edge timestamp per line. Floats are written
with ``repr`` so files round-trip bit-exactly.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .signals import LogicEventStream, OpticalTrace

TRACE_MAGIC = "# optrace v1"
EVENTS_MAGIC = "# optevents v1"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Header keys each file kind must carry.
_HEADER_KEYS = {TRACE_MAGIC: ("sample_rate_hz", "origin_s"),
                EVENTS_MAGIC: ("initial", "duration_s")}


def _header_fields(line: str, magic: str) -> dict[str, str]:
    if not line.startswith(magic):
        raise ValueError(f"not a {magic!r} file")
    fields = {}
    for token in line[len(magic):].split():
        key, _, value = token.partition("=")
        fields[key] = value
    for key in _HEADER_KEYS[magic]:
        if key not in fields:
            raise ValueError(f"{magic!r} header lacks {key}=")
    return fields


def write_trace(path: str | Path, trace: OpticalTrace) -> None:
    lines = [f"{TRACE_MAGIC} sample_rate_hz={trace.sample_rate!r} origin_s={trace.origin_time!r}"]
    lines.extend(repr(float(v)) for v in trace.samples)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trace(path: str | Path) -> OpticalTrace:
    with open(path, encoding="utf-8") as fh:
        header = _header_fields(fh.readline().rstrip("\n"), TRACE_MAGIC)
        samples = np.fromiter((float(line) for line in fh if line.strip()), dtype=np.float64)
    return OpticalTrace(float(header["sample_rate_hz"]), samples, float(header["origin_s"]))


def write_events(path: str | Path, events: LogicEventStream) -> None:
    lines = [f"{EVENTS_MAGIC} initial={events.initial_level} duration_s={events.duration!r}"]
    lines.extend(repr(float(t)) for t in events.edges)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_events(path: str | Path) -> LogicEventStream:
    with open(path, encoding="utf-8") as fh:
        header = _header_fields(fh.readline().rstrip("\n"), EVENTS_MAGIC)
        edges = tuple(float(line) for line in fh if line.strip())
    return LogicEventStream(int(header["initial"]), edges, float(header["duration_s"]))


def octets_to_hexline(octets: bytes) -> str:
    """Frame hex-dump form: lowercase hex octets, space separated."""
    return " ".join(f"{b:02x}" for b in octets)


def hexline_to_octets(line: str) -> bytes:
    parts = line.split()
    out = bytearray()
    for p in parts:
        if len(p) != 2:
            raise ValueError(f"bad hex octet {p!r}")
        out.append(int(p, 16))
    return bytes(out)
