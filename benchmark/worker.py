"""One measuring process: builds a workload's inputs, then times verified passes.

Started by ``run.py`` with ``PYTHONPATH=src``; prints one JSON object as its
last line of standard output.  With ``--setup-only`` it stops after building
the inputs and prints ``ready`` and the clock, which is how ``run.py`` times
set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import numpy as np

from tracing import Tracer
from verify import Tally
from workloads import (
    BENCH_DIR,
    END_TO_END_UNITS,
    LAYER_UNITS,
    SWEEP_THREADS,
    TRACE_TARGETS,
    WORKLOADS,
    NullTracer,
)


def one_pass(workload, inputs, traced: bool, scratch) -> dict:
    """Run and verify one pass; the traced variant restores every wrapped
    module attribute before it returns, even when the pass raises."""
    tally, counts = Tally(), Counter()
    tracer = Tracer() if traced else NullTracer()
    if traced:
        for module, attribute, name in TRACE_TARGETS:
            tracer.wrap(module, attribute, name)
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        workload.run_pass(inputs, tally, tracer, counts, scratch)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if traced:
            tracer.restore()
    return {
        "traced": traced,
        "wall": wall,
        "cpu": cpu,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "counts": dict(counts),
        "layers": workload.layers(tracer, counts) if traced else {},
    }


def measure(workload, inputs, seconds: float, trace: bool, scratch) -> list:
    """Passes until the next one would end after ``seconds``; a traced
    measurement alternates untraced and traced passes, at least one of each."""
    passes: list = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workload, inputs, trace and len(passes) % 2 == 1, scratch))
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= (2 if trace else 1) and time.perf_counter() - start + typical > seconds:
            return passes


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


def summarize(passes: list, trace: bool) -> dict:
    """Medians over passes; set-up time is added by ``run.py``."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    run_s = statistics.median(p["wall"] for p in plain)
    out = {
        "attempted": attempted,
        "failed": failed,
        "pass_walls": [p["wall"] for p in plain],
        "traced_walls": [p["wall"] for p in traced],
    }
    if not trace:
        values = {
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        }
        out["metrics"] = _with_units(values, END_TO_END_UNITS)
        return out
    values: dict = {}
    for source in ("counts", "layers"):
        for name in {n for p in traced for n in p[source]}:
            values[name] = statistics.median(p[source].get(name, 0) for p in traced)
    values["process.cpu_s"] = statistics.median(p["cpu"] for p in plain)
    values["process.cpu_util"] = statistics.median(p["cpu"] / p["wall"] for p in plain)
    values["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - run_s
    out["metrics"] = _with_units(values, LAYER_UNITS)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(root, args.seed)
    if args.setup_only:
        print("ready", repr(time.monotonic()), flush=True)
        return 0
    scratch = root / ".benchmark_tmp" / str(os.getpid())
    try:
        passes = measure(workload, inputs, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another worker still uses it
            pass
    result = summarize(passes, bool(args.trace))
    result["numpy"] = np.__version__
    result["sweep_threads"] = SWEEP_THREADS
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
