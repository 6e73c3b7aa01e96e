"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent import futures
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import instances  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer, self_times, union_length  # noqa: E402
from workloads import END_TO_END_UNITS, LAYER_UNITS, TRACE_TARGETS, WORKLOADS  # noqa: E402

EXPECTED = BENCH_DIR / "expected"


def test_generator_is_deterministic_per_seed():
    assert instances.atomic_mixed_inputs(3) == instances.atomic_mixed_inputs(3)
    assert instances.fleet_inputs(3) == instances.fleet_inputs(3)
    assert instances.atomic_mixed_inputs(3).dynamics != instances.atomic_mixed_inputs(4).dynamics
    assert instances.fleet_inputs(3) != instances.fleet_inputs(4)


def test_every_pool_member_has_a_stored_answer():
    stored = json.loads((EXPECTED / "atomic_mixed.json").read_text())
    keys = {case.key for pools in instances.scan_pools().values() for pool in pools for case in pool}
    assert keys == set(stored)


def _sweep_copy(tmp_path: Path) -> tuple[Path, dict]:
    expected = json.loads((EXPECTED / "sweep_sha256.json").read_text())
    out = tmp_path / "out"
    out.mkdir()
    for name in expected:
        shutil.copy(ROOT / "demos" / "out" / name, out / name)
    return out, expected


def test_sweep_check_counts_a_one_byte_change(tmp_path):
    out, expected = _sweep_copy(tmp_path)
    tally = verify.Tally()
    verify.check_sweep_outputs(out, expected, ROOT / "demos" / "out", tally)
    assert (tally.attempted, tally.failed) == (len(expected), 0)

    dat = out / "efficiency-vs-exponent_C3.dat"
    data = bytearray(dat.read_bytes())
    data[0] ^= 1
    dat.write_bytes(bytes(data))
    for reference in (ROOT / "demos" / "out", tmp_path / "absent"):
        tally = verify.Tally()
        verify.check_sweep_outputs(out, expected, reference, tally)
        assert (tally.attempted, tally.failed) == (len(expected), 1)


def test_scan_check_counts_a_wrong_fraction():
    stored = json.loads((EXPECTED / "atomic_mixed.json").read_text())
    key = "bigint-I12-0"
    configs = [SimpleNamespace(start_counts=tuple(c)) for c in stored[key]["equilibria"]]
    right = Fraction(stored[key]["exact"])
    tally = verify.Tally()
    for exact in (right, right + Fraction(1, 10**40)):
        report = SimpleNamespace(exact=exact, value=float(exact))
        verify.check_scan(key, stored[key], configs, tally, report)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_gap_check_counts_a_gap_of_2e9():
    tally = verify.Tally()
    for gap in (0.0, 1e-9, 2e-9, float("nan")):
        verify.check_gap(gap, tally, "probe")
    assert (tally.attempted, tally.failed) == (4, 2)


class _Boom(RuntimeError):
    pass


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    originals = [(m, a, getattr(m, a)) for m, a, _ in TRACE_TARGETS]
    seen = []

    def run_pass(inputs, tally, tracer, counts, scratch):
        seen.extend(getattr(m, a) is not orig for m, a, orig in originals)
        if inputs == "raise":
            raise _Boom()

    fake = SimpleNamespace(run_pass=run_pass, layers=lambda tracer, counts: {})
    worker.one_pass(fake, "ok", True, tmp_path)
    with pytest.raises(_Boom):
        worker.one_pass(fake, "raise", True, tmp_path)
    assert seen and all(seen)
    assert all(getattr(m, a) is orig for m, a, orig in originals)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, 1),
        Span(1, "child", 1.0, 5.0, 0, 2),
        Span(2, "child", 3.0, 8.0, 0, 3),  # overlaps the first child on another thread
        Span(3, "child", 9.0, 12.0, 0, 2),  # runs past the parent's end
        Span(4, "grandchild", 2.0, 4.0, 1, 2),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (7.0 + 1.0))
    assert own[1] == pytest.approx(4.0 - 2.0)
    assert own[2] == pytest.approx(5.0)
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_pool_thread_spans_are_children_of_the_open_span():
    tracer = Tracer()

    def job(_):
        with tracer.span("inner"):
            pass

    with tracer.span("outer"):
        with futures.ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(job, range(4)))
    outer = tracer.named("outer")[0]
    assert [s.parent for s in tracer.named("inner")] == [outer.id] * 4


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {**END_TO_END_UNITS, "setup_s": "s"}
