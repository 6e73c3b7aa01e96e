"""Benchmark entry point for chargegame.

    python3 benchmark/run.py --workload atomic-sweep --seed 2 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all        # every workload, untraced and traced

Run from any directory of a source checkout; nothing needs building.  Set-up
is timed over several fresh worker processes that stop at the first solver
call; the measuring worker is one more fresh process (``PYTHONPATH=src``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record.  See ``benchmark/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOAD_NAMES = ("atomic-sweep", "atomic-mixed", "nonatomic-fleet")
DEFAULT_SEED = 2
# set-up processes per run, half before and half after the measuring worker,
# so that a slow spell of the machine moves the median less
SETUP_RUNS = 8
MACHINE_SETTINGS = (
    "unchanged: this benchmark sets no CPU pinning, frequency governor, "
    "cgroup limit or other machine setting"
)


class BenchmarkError(RuntimeError):
    """A worker failed; no result may be printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker_cmd(args, workload: str) -> list:
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed)]


def setup_seconds(args, workload: str, runs: int) -> list:
    """Wall time from spawning a fresh process to its first solver call.

    The process prints its ``time.monotonic()`` at that point; on Linux that
    clock is shared by all processes, so the difference is the set-up time.
    """
    times = []
    for _ in range(runs):
        start = time.monotonic()
        try:
            proc = subprocess.run(
                _worker_cmd(args, workload) + ["--setup-only"],
                stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"set-up of {workload} did not finish in 60 s") from exc
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise BenchmarkError(f"set-up of {workload} failed (exit {proc.returncode})")
        times.append(float(words[1]) - start)
    return times


def measure(args, workload: str, trace: int) -> dict:
    cmd = _worker_cmd(args, workload) + [
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT, text=True,
            timeout=2 * args.seconds + 90,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} worker did not finish in {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, workload: str, worker: dict) -> dict:
    sources = sorted((ROOT / "src" / "chargegame").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sweep_threads": worker.pop("sweep_threads"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker.pop("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": {p.stem: len(p.read_text().splitlines()) for p in sources},
        "machine_settings": MACHINE_SETTINGS,
    }


def run_workload(args, workload: str, trace: int) -> dict:
    half = 0 if trace else SETUP_RUNS // 2
    setup = setup_seconds(args, workload, half)
    worker = measure(args, workload, trace)
    setup += setup_seconds(args, workload, half)
    record = run_record(args, workload, worker)
    record["trace"] = trace
    record["pass_walls"] = worker.pop("pass_walls")
    record["traced_walls"] = worker.pop("traced_walls")
    metrics = worker["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        record["setup_runs"] = len(setup)
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def _print_summary(record: dict, result: dict) -> None:
    n = len(record["traced_walls"] if record["trace"] else record["pass_walls"])
    print(
        f"[{record['workload']} seed={record['seed']} trace={record['trace']}] "
        f"{result['attempted']} answers, {result['failed']} failed; "
        f"timings are medians of {n} pass(es)"
        + (f", setup_s of {record['setup_runs']} processes" if "setup_runs" in record else ""),
        file=sys.stderr,
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chargegame" / "__init__.py").is_file():
        print(f"no chargegame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = (
        [(w, t) for w in WORKLOAD_NAMES for t in (0, 1)]
        if args.workload == "all"
        else [(args.workload, args.trace)]
    )
    try:
        outcomes = [run_workload(args, w, t) for w, t in runs]
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        _print_summary(outcome["record"], outcome["result"])
        print(json.dumps({"record": outcome["record"]}))
    if len(outcomes) == 1:
        final = outcomes[0]["result"]
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outcomes),
            "attempted": sum(o["result"]["attempted"] for o in outcomes),
            "failed": sum(o["result"]["failed"] for o in outcomes),
            "metrics": {
                f"{o['record']['workload']}/{name}": metric
                for o in outcomes
                for name, metric in o["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
