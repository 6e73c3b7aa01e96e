"""Regenerate the stored answers the benchmark verifies against.

    PYTHONPATH=src python3 benchmark/make_expected.py

Writes ``expected/sweep_sha256.json`` (hashes of the committed sweep outputs
in ``demos/out/``) and ``expected/atomic_mixed.json`` (equilibrium start-count
sets and efficiency ratios of every reference-pool scan).  Run it only when
the answers are meant to change; the stored files are the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from chargegame import atomic  # noqa: E402

import instances  # noqa: E402
import verify  # noqa: E402

SWEEP_OUTPUT_PREFIXES = ("efficiency-vs-exponent_", "equilibrium-proportion_")


def sweep_hashes(out_dir: Path) -> dict:
    return {
        path.name: verify.sha256(path.read_bytes())
        for path in sorted(out_dir.iterdir())
        if path.name.startswith(SWEEP_OUTPUT_PREFIXES)
    }


def scan_answers() -> dict:
    answers = {}
    for pools in instances.scan_pools().values():
        for case in (case for pool in pools for case in pool):
            report = atomic.efficiency(case.instance, case.cost)
            entry = {"equilibria": verify.start_count_set(report.equilibria.equilibria)}
            if report.exact is not None:
                entry["exact"] = str(report.exact)
            else:
                entry["value"] = report.value
            answers[case.key] = entry
            print(case.key, entry.get("exact", entry.get("value")), file=sys.stderr)
    return answers


def main() -> int:
    expected = BENCH_DIR / "expected"
    expected.mkdir(exist_ok=True)
    root = BENCH_DIR.parent
    for name, data in (
        ("sweep_sha256.json", sweep_hashes(root / "demos" / "out")),
        ("atomic_mixed.json", scan_answers()),
    ):
        lines = [f"  {json.dumps(key)}: {json.dumps(data[key])}" for key in sorted(data)]
        (expected / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
