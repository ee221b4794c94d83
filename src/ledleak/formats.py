"""Text file formats and atomic writes.

Trace files: ``# optrace v1 sample_rate_hz=<float> origin_s=<float>`` then
one decimal sample per line. Event files, the ground truth ``synth`` writes
beside its trace: ``# optevents v1 initial=<0|1> duration_s=<float>`` then
one edge timestamp per line; nothing here reads them back. Floats are
written with ``repr`` so files round-trip bit-exactly.

:func:`read_trace` takes one ASCII decimal float per body line, as ``float``
reads it but without underscores, with whitespace around it; blank and
whitespace-only lines are skipped, and lines may end in LF, CRLF or a bare
CR. Any other line (two numbers, a comment, hex, a non-ASCII digit, bytes
that are not UTF-8) is a :class:`ValueError` naming the file, the 1-based
line number and the line. A value the trace then refuses, such as a
non-finite sample or ``origin_s``, names the file. Any finite sample
round-trips, but ``recover`` and ``classify`` refuse, naming the file, a
sample beyond ±2**495 (:data:`MAX_SAMPLE_EXPONENT`). The header is checked
first: a bad one names the file, a value off the grammar its key and value.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

import numpy as np

from .signals import LogicEventStream, OpticalTrace

TRACE_MAGIC = "# optrace v1"
EVENTS_MAGIC = "# optevents v1"
#: Samples analysed lie within ±2**MAX_SAMPLE_EXPONENT (about 1.02e149): the squared
#: deviations (< 2**992) of 2**27 samples, the cap, sum below 2**1019, finite.
MAX_SAMPLE_EXPONENT = 495


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A text handle on a temp file in the same directory, renamed into
    place when the block ends, so readers see the old file or the whole new
    one; an exception removes the temp file instead. The kernel applies the
    umask to its mode ``0o666``, as for a plain ``open()``: the process umask
    is never written. ``O_EXCL`` keeps it from replacing an existing file."""
    path = Path(path)
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")  # fits whatever ``path.name`` fits
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Samples formatted per chunk: bounds the text held in memory at once.
_TRACE_BLOCK = 65536


@contextmanager
def trace_writer(path: str | Path, sample_rate: float,
                 origin: float = 0.0) -> Iterator[Callable[[np.ndarray], None]]:
    """A function that appends one sample array to the trace written to
    ``path`` through :func:`atomic_open`; the file is whole once the block ends."""
    with atomic_open(path) as fh:
        fh.write(f"{TRACE_MAGIC} sample_rate_hz={sample_rate!r} origin_s={origin!r}\n")

        def append(samples: np.ndarray) -> None:
            for i in range(0, samples.size, _TRACE_BLOCK):
                fh.write("\n".join(map(repr, samples[i:i + _TRACE_BLOCK].tolist())) + "\n")

        yield append


def write_trace(path: str | Path, trace: OpticalTrace) -> None:
    with trace_writer(path, trace.sample_rate, trace.origin_time) as append:
        append(trace.samples)


#: Characters read at a time while looking for the first sample.
_PROBE_CHARS = 65536
#: Name suffixes ``np.loadtxt`` opens through a decompressor.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _bad_sample(text: str) -> bool:
    """Whether ``text`` is neither blank nor one ASCII float; ``float``
    would also take underscores and non-ASCII digits."""
    text = text.strip()
    if not text:
        return False
    if not text.isascii() or "_" in text:
        return True
    try:
        float(text)
    except ValueError:
        return True
    return False


def _bad_line_error(fh: TextIO, path: str | Path) -> ValueError:
    """The error for the first body line of ``fh`` that is not a sample."""
    fh.seek(0)
    fh.readline()
    for number, line in enumerate(fh, start=2):
        if _bad_sample(line):
            text = line.rstrip("\n")
            return ValueError(f"{path}, line {number}: expected one decimal number, got {text!r}")
    return ValueError(f"{path} changed while it was read")


#: The keys a trace header must carry; each value parses as a float.
_TRACE_KEYS = ("sample_rate_hz", "origin_s")


def _read_header(fh: TextIO, path: str | Path) -> dict[str, float]:
    """The header values of an open trace file; errors name the file, and a
    value that does not parse names its key."""
    line = fh.readline().rstrip("\n")
    if not line.startswith(TRACE_MAGIC):
        raise ValueError(f"{path}: not a {TRACE_MAGIC!r} file")
    fields = {}
    for token in line[len(TRACE_MAGIC):].split():
        key, _, value = token.partition("=")
        fields[key] = value
    for key in _TRACE_KEYS:
        if key not in fields:
            raise ValueError(f"{path}: {TRACE_MAGIC!r} header lacks {key}=")
    for key in _TRACE_KEYS:
        if not fields[key] or _bad_sample(fields[key]):
            raise ValueError(f"{path}: header {key}: expected float, got {fields[key]!r}")
    return {key: float(fields[key]) for key in _TRACE_KEYS}


def read_trace(path: str | Path) -> OpticalTrace:
    """The trace in ``path``.

    numpy's C parser reads the body from the path in chunks, converting
    each sample as ``float`` does, so samples come back bit for bit. The
    header comes from a handle held open meanwhile; if the path names
    another file once the body is read, the read fails instead of pairing
    one file's header with another's samples.
    """
    suffix = os.path.splitext(path)[1]
    if suffix in _COMPRESSED_SUFFIXES:
        raise ValueError(f"{path}: numpy reads a file named *{suffix} as compressed; rename it")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = _read_header(fh, path)
        samples = np.empty((0, 1))  # loadtxt would warn of an empty input
        if not all(chunk.isspace() for chunk in iter(lambda: fh.read(_PROBE_CHARS), "")):
            try:
                # Absolute, so numpy never takes the path for a URL.
                samples = np.loadtxt(os.path.join(os.getcwd(), path), comments=None, ndmin=2,
                                     skiprows=1, encoding="utf-8")
            except ValueError:
                samples = None
            if not os.path.samestat(os.fstat(fh.fileno()), os.stat(path)):
                raise ValueError(f"{path} changed while it was read")
            if samples is None or samples.shape[1] != 1:
                raise _bad_line_error(fh, path)
    try:
        return OpticalTrace._adopt(header["sample_rate_hz"], samples.reshape(-1),
                                   header["origin_s"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_events(path: str | Path, events: LogicEventStream) -> None:
    header = f"{EVENTS_MAGIC} initial={events.initial_level} duration_s={events.duration!r}\n"
    with atomic_open(path) as fh:
        fh.write(header)
        fh.writelines(f"{t!r}\n" for t in events.edges)


def octets_to_hexline(octets: bytes) -> str:
    """Frame hex-dump form: lowercase hex octets, space separated."""
    return bytes(octets).hex(" ")


#: One octet of a hex dump: exactly two ASCII hex digits.
_HEX_OCTET = re.compile(r"[0-9a-fA-F]{2}")


def hexline_to_octets(line: str) -> bytes:
    """Inverse of :func:`octets_to_hexline`, any whitespace between octets."""
    parts = line.split()
    for p in parts:
        if not _HEX_OCTET.fullmatch(p):
            raise ValueError(f"bad hex octet {p!r}")
    return bytes.fromhex("".join(parts))
