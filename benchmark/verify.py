"""Answer checks; every check is one attempted answer and may be one failure."""

from __future__ import annotations

import hashlib
import math
import sys
from fractions import Fraction
from pathlib import Path

GAP_LIMIT = 1e-9
SUPPORT_THRESHOLD = 1e-8
FLOAT_RTOL = 1e-12


class Tally:
    """Counts answers attempted and failed, and reports the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"verification failed: {what}", file=sys.stderr)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_sweep_outputs(out_dir, expected_sha: dict, reference_dir, tally: Tally) -> None:
    """Each expected file must exist with the stored hash and, where the
    committed reference directory is present, match it byte for byte."""
    out_dir = Path(out_dir)
    reference_dir = Path(reference_dir)
    for name, digest in sorted(expected_sha.items()):
        path = out_dir / name
        data = path.read_bytes() if path.is_file() else None
        ok = data is not None and sha256(data) == digest
        ref = reference_dir / name
        if ok and ref.is_file():
            ok = data == ref.read_bytes()
        tally.check(ok, f"sweep output {name} differs from the committed file")


def start_count_set(configs) -> list:
    return sorted(list(c.start_counts) for c in configs)


def check_scan(key: str, expected: dict, equilibria, tally: Tally, report=None) -> None:
    """Equilibrium start-count sets must match exactly.  With an efficiency
    ``report``, its ratio must match as a ``Fraction`` on exact data and to
    ``FLOAT_RTOL`` otherwise."""
    ok = start_count_set(equilibria) == expected["equilibria"]
    if report is not None and "exact" in expected:
        ok = ok and report.exact == Fraction(expected["exact"])
    elif report is not None:
        ok = ok and math.isclose(report.value, expected["value"], rel_tol=FLOAT_RTOL, abs_tol=0.0)
    tally.check(ok, f"scan answer for {key} differs from the stored one")


def check_dynamics(final_is_nash: bool, trace, tally: Tally, what: str) -> None:
    increasing = all(b > a for a, b in zip(trace, trace[1:]))
    tally.check(final_is_nash and increasing, f"dynamics run {what}: nash={final_is_nash}, increasing={increasing}")


def check_gap(gap: float, tally: Tally, what: str) -> None:
    tally.check(math.isfinite(gap) and gap <= GAP_LIMIT, f"{what}: Wardrop gap {gap:.3e} > {GAP_LIMIT:g}")


def check_counterexample(mass, support: tuple, first: float, tally: Tally, what: str) -> None:
    """Support and first start mass of the bundled continuum counter-example."""
    got = tuple(t + 1 for t, v in enumerate(mass) if v > SUPPORT_THRESHOLD)
    ok = got == support and abs(float(mass[support[0] - 1]) - first) <= 0.01
    tally.check(ok, f"{what}: support {got}, first mass {float(mass[got[0] - 1]) if got else None}")
