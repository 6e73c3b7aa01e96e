"""The scripts under ``demos/`` run to the end and tell their stories."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, env=env, timeout=120
    )


def test_equilibrium_tour_runs():
    done = run_demo("equilibrium_tour.py")
    assert done.returncode == 0, done.stderr


def test_invariance_tour_refuses_the_cliff_by_the_sign_of_its_solution():
    done = run_demo("invariance_tour.py")
    assert done.returncode == 0, done.stderr
    cliff = done.stdout.split("cliff:")[1].splitlines()
    assert cliff[2] == "  PositivityCertificateError: the equal-load system needs negative start mass -4.25"
