"""The benchmark's stored atomic answers, checked on every pool member.

A run of the ``atomic-mixed`` workload scans only the pool members its seed
picks.  This test scans them all and checks each answer against
``benchmark/expected/atomic_mixed.json`` with the benchmark's own
``verify.check_scan``.  It only reads ``benchmark/``.
"""

import json
import sys
from pathlib import Path

from chargegame import efficiency, enumerate_equilibria

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCH_DIR))

import instances  # noqa: E402
import verify  # noqa: E402


def test_every_stored_atomic_mixed_answer_matches():
    expected = json.loads((BENCH_DIR / "expected" / "atomic_mixed.json").read_text())
    tally = verify.Tally()
    for family, pools in instances.scan_pools().items():
        for case in (case for pool in pools for case in pool):
            if family == "hetero":  # the workload enumerates these profiles too
                eq_set = enumerate_equilibria(case.instance, case.cost)
                verify.check_scan(case.key, expected[case.key], eq_set.equilibria, tally)
            report = efficiency(case.instance, case.cost)
            verify.check_scan(case.key, expected[case.key], report.equilibria.equilibria, tally, report)
    # 24 efficiency scans and 8 enumerations
    assert (tally.attempted, tally.failed) == (32, 0)
