#!/usr/bin/env python3
"""Benchmark runner for ledleak: four seeded closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exfil_cli --seed 1 --seconds 20 --trace 0

One client runs one job at a time, starting the next only when the last has
finished; there is no arrival schedule. Set-up (imports, input generation
from ``--seed`` and one warm-up job) is timed on its own and excluded from
job timing. Every job's output is checked and digested; a job whose check
fails or whose digest differs from the warm-up's counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` the run spends half of ``--seconds`` untraced and half with
every layer function wrapped by :mod:`tracer`, and the last line carries the
per-layer metrics. Metric names and units come from ``BENCHMARK.json``.
Results, with the output digest, versions, CPU and load average, are also
written under ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("exfil_cli", "diode_link", "mac_burst", "stretch_sweep")
SETUP_SAMPLES = 3
PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only sets up, for the set-up median.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def attempt(workload, inputs: dict, span=None):
    """Run one job, inside ``span`` if given, then check it: (job seconds, Outcome)."""
    from workloads import Outcome

    with span or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            outputs, error = workload.run_job(inputs), None
        except Exception:
            outputs, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
    if error is not None:
        return elapsed, Outcome(False, 0, "", error)
    return elapsed, workload.check(inputs, outputs)


def setup(name: str, seed: int, scale: float, out_dir: Path):
    """Import the program, make the inputs, run one warm-up job. Timed."""
    t0 = time.perf_counter()
    import workloads

    workload = workloads.make_workloads(out_dir / "work")[name]
    inputs = workload.make_inputs(seed, scale)
    _, warm = attempt(workload, inputs)
    return time.perf_counter() - t0, workload, inputs, warm


def probe_setup(name: str, seed: int) -> tuple[float, str]:
    """Set-up time and warm-up digest of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last["setup_s"], last["digest"]


def measure(workload, inputs: dict, seconds: float, reference: str, tracer=None) -> list:
    """Closed loop of jobs for ``seconds`` (at least one job)."""
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        span = tracer.job(len(jobs)) if tracer else None
        elapsed, outcome = attempt(workload, inputs, span)
        if outcome.ok and outcome.digest != reference:
            outcome.ok, outcome.octets = False, 0
            outcome.detail = "output digest differs from the warm-up job's"
        jobs.append((elapsed, outcome))
    return jobs


def end_to_end(jobs: list, setup_samples: list[float]) -> dict:
    times = [t for t, _ in jobs]
    ok = sum(o.ok for _, o in jobs)
    return {
        "octets_per_s": sum(o.octets for _, o in jobs) / sum(times),
        "job_s.p50": statistics.median(times),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok / len(jobs),
    }


def per_layer(tracer, traced: list, untraced: list) -> dict:
    from tracer import TARGETS

    n = len(traced)
    self_s = tracer.self_times()
    counts = tracer.counts

    def per_job(key: str) -> float:
        return counts.get(key, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{name}.self_s": self_s.get(name, 0.0) / n for name, *_ in TARGETS}
    facts = traced[-1][1].facts
    metrics.update({
        "signals.LogicEventStream.calls": per_job("signals.LogicEventStream.calls"),
        "signals.OpticalTrace.calls": per_job("signals.OpticalTrace.calls"),
        "emanation.led_transduce.segments": per_job("emanation.led_transduce.segments"),
        "emanation.led_transduce.samples": per_job("emanation.led_transduce.samples"),
        "recovery.uart_decode.calls": per_job("recovery.uart_decode.calls"),
        "mac.validate_frame.calls": per_job("mac.validate_frame.calls"),
        "mac.validate_frame.nibbles": per_job("mac.validate_frame.nibbles"),
        "mac.validate_frame.accept_ratio": ratio(counts.get("mac.validate_frame.accepted", 0),
                                                 counts.get("mac.validate_frame.calls", 0)),
        "mac.crc32_fcs.octets": per_job("mac.crc32_fcs.octets"),
        "mac.crc32_fcs.mb_per_s": ratio(counts.get("mac.crc32_fcs.octets", 0) / 1e6,
                                        self_s.get("mac.crc32_fcs", 0.0)),
        "diode.clean.frames": facts.get("clean.frames", 0),
        "diode.clean.accept_ratio": ratio(facts.get("clean.accepted", 0),
                                          facts.get("clean.frames", 0)),
        "diode.flood.frames": facts.get("flood.frames", 0),
        "diode.flood.accept_ratio": ratio(facts.get("flood.accepted", 0),
                                          facts.get("flood.frames", 0)),
        "formats.trace_bytes": per_job("formats.write_trace.bytes"),
        "trace.jobs": n,
        "trace.coverage": tracer.coverage(),
        "trace.overhead_ratio": statistics.median(t for t, _ in traced)
                                / statistics.median(t for t, _ in untraced) - 1,
    })
    return metrics


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(name: str, seed: int, seconds: float, trace: int, *, scale: float = 1.0,
        setup_samples: int = SETUP_SAMPLES, out_dir: Path = OUT) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    load_start = loadavg()
    setup_s, workload, inputs, warm = setup(name, seed, scale, out_dir)
    samples = [setup_s]
    probe_digests = []
    # Only the untraced run reports set-up time, so only it pays for probes.
    for _ in range(0 if trace else setup_samples - 1):
        probe_s, probe_digest = probe_setup(name, seed)
        samples.append(probe_s)
        probe_digests.append(probe_digest)

    if trace:
        from tracer import Tracer

        untraced = measure(workload, inputs, seconds / 2, warm.digest)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, inputs, seconds / 2, warm.digest, tracer)
        finally:
            tracer.uninstall()
        jobs = untraced + traced
        values = per_layer(tracer, traced, untraced)
        tracer.write(out_dir / f"{name}.spans.jsonl")
    else:
        jobs = measure(workload, inputs, seconds, warm.digest)
        values = end_to_end(jobs, samples)

    failed = sum(not o.ok for _, o in jobs)
    problems = [o.detail for _, o in jobs if not o.ok]
    if not warm.ok:
        problems.insert(0, f"warm-up: {warm.detail}")
    if any(d != warm.digest for d in probe_digests):
        problems.append("a fresh process produced a different output digest")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(trace)}
    result = {"correct": not problems, "attempted": len(jobs), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "result": result, "digest": warm.digest, "fail_ratio": failed / len(jobs),
        "problems": problems[:5], "job_s": [t for t, _ in jobs],
        "setup_s_samples": samples, "environment": environment(),
        "loadavg": {"start": load_start, "end": loadavg()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ledleak" / "__init__.py").is_file():
        print(f"error: no ledleak sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in PIN_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        setup_s, _, _, warm = setup(args.workload, args.seed, 1.0, OUT)
        print(json.dumps({"setup_s": setup_s, "digest": warm.digest}))
        return 0

    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"  jobs={result['attempted']} failed={result['failed']} "
          f"fail_ratio={record['fail_ratio']:g} setup_samples={len(record['setup_s_samples'])}")
    print(f"  digest sha256:{record['digest']}")
    print(f"  environment {json.dumps(record['environment'])}")
    print(f"  loadavg start={record['loadavg']['start']} end={record['loadavg']['end']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
