"""In-memory span tracer that wraps the package's public functions.

Tracing is installed from the benchmark's own files: each traced function
is replaced, in every ``ledleak.*`` module namespace that binds it, by a
``functools.wraps`` wrapper that records a span (name, start, end, parent,
job id) and optional work counts. Class construction is traced by wrapping
``__post_init__``. Nothing under ``src/`` changes, and :meth:`Tracer.uninstall`
restores every original binding.

A span's self time is its duration minus the part its child spans cover.
The program is single-threaded, so children never overlap and that part is
the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

#: Root span of one job; every layer span of that job descends from it.
JOB = "job"


def _led_counts(args, kwargs, result):
    return {"segments": len(args[0].edges) + 1, "samples": result.n_samples}


def _validate_counts(args, kwargs, result):
    return {"nibbles": len(args[0].nibbles), "accepted": int(result.accepted)}


def _write_trace_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: (span name, module, attribute, counter) for every traced callable. A
#: dotted attribute names a method of a class in that module. The cut-through
#: peek is the benchmark's own loop over ``PipelineState.step``: it is traced
#: as one span because wrapping ``step`` would time every nibble.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("signals.LogicEventStream", "ledleak.signals", "LogicEventStream.__post_init__", None),
    ("signals.OpticalTrace", "ledleak.signals", "OpticalTrace.__post_init__", None),
    ("emanation.led_transduce", "ledleak.emanation", "led_transduce", _led_counts),
    ("emanation.uart_encode", "ledleak.emanation", "uart_encode", None),
    ("emanation.add_noise", "ledleak.emanation", "add_noise", None),
    ("emanation.apply_pulse_stretch", "ledleak.emanation", "apply_pulse_stretch", None),
    ("emanation.synthesize_class", "ledleak.emanation", "synthesize_class", None),
    ("recovery.threshold_detect", "ledleak.recovery", "threshold_detect", None),
    ("recovery.uart_decode", "ledleak.recovery", "uart_decode", None),
    ("recovery.estimate_baud", "ledleak.recovery", "estimate_baud", None),
    ("recovery.classify_trace", "ledleak.recovery", "classify_trace", None),
    ("recovery.leakage_mutual_information", "ledleak.recovery",
     "leakage_mutual_information", None),
    ("mac.build_frame", "ledleak.mac", "build_frame", None),
    ("mac.mii_marshal", "ledleak.mac", "mii_marshal", None),
    ("mac.abort_transmission", "ledleak.mac", "abort_transmission", None),
    ("mac.validate_frame", "ledleak.mac", "validate_frame", _validate_counts),
    ("mac.crc32_fcs", "ledleak.mac", "crc32_fcs", lambda a, k, r: {"octets": len(a[0])}),
    ("mac.cut_through", "workloads", "cut_through_peek", None),
    ("diode.diode_send", "ledleak.diode", "diode_send", None),
    ("diode.photodiode_receive", "ledleak.diode", "photodiode_receive", None),
    ("formats.write_trace", "ledleak.formats", "write_trace", _write_trace_counts),
    ("formats.read_trace", "ledleak.formats", "read_trace", None),
    ("formats.write_events", "ledleak.formats", "write_events", None),
    ("cli.main", "ledleak.cli", "main", None),
    ("cli.run_stretch_sweep", "ledleak.cli", "run_stretch_sweep", None),
)


class Tracer:
    """Records spans and per-span counts in memory while installed."""

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index, job_id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job = -1
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; spans opened inside carry ``job_id``."""
        self._job = job_id
        rec = self._open(JOB)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each ``ledleak.*`` namespace that binds it."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ledleak" or n.startswith("ledleak."))]
        for name, module_name, attr, counter in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, self.wrap(original, name, counter))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, counter)
            owners = package if module in package else package + [module]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner: object, key: str, value: object) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return out

    def coverage(self) -> float:
        """Share of job time covered by the layer spans directly under a job."""
        jobs = {i for i, rec in enumerate(self.spans) if rec[0] == JOB}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in jobs)
        covered = sum(e - s for n, s, e, p, _ in self.spans if p in jobs)
        return covered / total if total else 0.0

    def write(self, path: Path) -> None:
        """Write spans as JSON lines: name, start_ns, end_ns, parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
