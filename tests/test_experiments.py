"""Tests for sweeps, data emission, file codecs and the command line."""

import contextlib
import hashlib
import json
import os
import pickle
import runpy
import signal
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from chargegame import (
    AtomicInstance,
    ChargingConfiguration,
    CostSum,
    Monomial,
    NonatomicInstance,
    SquareRoot,
    efficiency,
    grid_total_cost,
    ne_proportion,
    solve_equilibrium,
)
from chargegame import atomic
from chargegame.atomic import BudgetExceededError, IterationBudgetError
from chargegame.cli import main
from chargegame.experiments import (
    ATOMIC_COUNTEREXAMPLE,
    NONATOMIC_COUNTEREXAMPLE,
    DataSeries,
    SweepSpec,
    WorkerError,
    _deal,
    _run_jobs,
    emit_data,
    run_counterexamples,
    run_sweep,
)
from chargegame.nonatomic import ConvergenceError
from chargegame.fileio import (
    cost_from_dict,
    cost_label,
    cost_to_dict,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# ---------------------------------------------------------------------------
# sweep specs
# ---------------------------------------------------------------------------


def test_sweep_spec_roundtrip():
    specs = [
        ATOMIC_COUNTEREXAMPLE,
        NONATOMIC_COUNTEREXAMPLE,
        SweepSpec(
            kind="efficiency-vs-power",
            label="power",
            T=8,
            cost=Monomial(2, 3),
            I_values=(4,),
            C_values=(2, 3),
            exponents=(1, 2, 3),
            budget=1000,
        ),
    ]
    for spec in specs:
        data = spec.to_dict()
        json.dumps(data)  # must be JSON-serializable as written
        assert SweepSpec.from_dict(data) == spec


def test_sweep_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SweepSpec(kind="efficiency-vs-temperature", label="x", T=4)


def test_sweep_spec_coerces_sequences():
    spec = SweepSpec(
        kind="ne-proportion", label="x", T=4, I_values=[1, 2], C_values=[2], exogenous=[0, 1, 0, 1]
    )
    assert spec.I_values == (1, 2)
    assert spec.C_values == (2,)
    assert spec.exogenous == (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# sweep evaluation against direct calls
# ---------------------------------------------------------------------------


def test_ne_proportion_sweep_matches_direct_calls():
    spec = SweepSpec(kind="ne-proportion", label="prop", T=5, I_values=(1, 2, 3), C_values=(2, 3))
    series = run_sweep(spec)
    assert [s.label for s in series] == ["C2", "C3"]
    for s, C in zip(series, (2, 3)):
        assert s.x == (1, 2, 3)
        assert s.filename == f"prop_{s.label}.dat"
        for I, y in zip(s.x, s.y):
            inst = AtomicInstance.symmetric(5, I, C)
            assert y == ne_proportion(inst, Monomial(1, 2))


def test_efficiency_vs_I_sweep_matches_direct_calls():
    spec = SweepSpec(
        kind="efficiency-vs-I",
        label="effI",
        T=5,
        exogenous=(2, 0, 1, 0, 2),
        I_values=(1, 2, 3),
        C_values=(2,),
    )
    (s,) = run_sweep(spec)
    for I, y in zip(s.x, s.y):
        inst = AtomicInstance.symmetric(5, I, 2, exogenous=(2, 0, 1, 0, 2))
        assert y == efficiency(inst, Monomial(1, 2)).value


def test_efficiency_vs_C_sweep_matches_direct_calls():
    spec = SweepSpec(
        kind="efficiency-vs-C",
        label="effC",
        T=6,
        exogenous=(1, 2, 3, 2, 1, 3),
        I_values=(2, 3),
        C_values=(2, 3),
    )
    series = run_sweep(spec)
    assert [s.label for s in series] == ["I2", "I3"]
    for s, I in zip(series, (2, 3)):
        assert s.x == (2, 3)
        for C, y in zip(s.x, s.y):
            inst = AtomicInstance.symmetric(6, I, C, exogenous=(1, 2, 3, 2, 1, 3))
            assert y == efficiency(inst, Monomial(1, 2)).value


def test_efficiency_vs_power_sweep():
    spec = SweepSpec(
        kind="efficiency-vs-power",
        label="pow",
        T=6,
        exogenous=(1, 2, 3, 2, 1, 3),
        I_values=(3,),
        C_values=(2,),
        exponents=(1, 2, 3),
    )
    (s,) = run_sweep(spec)
    assert s.x == (1, 2, 3)
    assert dict(s.meta)["I"] == "3"
    for k, y in zip(s.x, s.y):
        inst = AtomicInstance.symmetric(6, 3, 2, exogenous=(1, 2, 3, 2, 1, 3))
        assert y == efficiency(inst, Monomial(1, k)).value


def test_power_sweep_scans_each_instance_once(monkeypatch):
    # 3 values of C times 9 exponents: one scan family per C, its one
    # instance under all 9 costs
    spec = SweepSpec.from_dict(json.loads((DEMOS / "specs" / "efficiency_vs_exponent.json").read_text()))
    families, scan = [], atomic._scan

    def counted(family, costs, budget):
        families.append(([member.I for member in family], len(costs)))
        return scan(family, costs, budget)

    monkeypatch.setattr(atomic, "_scan", counted)
    one_thread = run_sweep(spec, 1)
    assert families == [([12], 9)] * 3
    assert run_sweep(spec, 2) == one_thread


@pytest.mark.parametrize(
    "spec_name, tables",
    [
        # a run of player counts grows while it weighs no more than the
        # heaviest point, (I, C) = (12, 3): C(19, 7) = 50,388 configurations
        (
            "equilibrium_proportion",
            [list(range(1, 11)), [11], [12], list(range(1, 13)), list(range(1, 13))],
        ),
        # one table per C and exponent, each of the one player count
        ("efficiency_vs_exponent", [[12]] * 27),
        # the heaviest point is (20, 3): C(27, 7) = 888,030 configurations
        (
            "efficiency_vs_players",
            [list(range(1, 17)), [17, 18], [19], [20], list(range(1, 21)), list(range(1, 21))],
        ),
    ],
)
def test_bundled_sweeps_build_one_table_per_run_and_cost(monkeypatch, spec_name, tables):
    # a sweep that scans its grid points one by one again builds more tables
    spec = SweepSpec.from_dict(json.loads((DEMOS / "specs" / f"{spec_name}.json").read_text()))
    built, slot_table = [], atomic._slot_table

    def counted(instance, cost, counts=None):
        built.append(list(counts))
        return slot_table(instance, cost, counts)

    monkeypatch.setattr(atomic, "_slot_table", counted)
    run_sweep(spec, 1)
    assert built == tables


def test_efficiency_vs_power_needs_single_player_count():
    with pytest.raises(ValueError):
        SweepSpec(
            kind="efficiency-vs-power", label="pow", T=6, I_values=(2, 3), C_values=(2,), exponents=(2,)
        )


def test_counterexample_sweep_validation():
    with pytest.raises(ValueError):
        SweepSpec(kind="nonatomic-counterexample", label="x", T=11, C_values=(5, 6))
    with pytest.raises(ValueError):
        SweepSpec(kind="atomic-counterexample", label="x", T=6, I_values=(3,), C_values=(2, 3))


def test_bundled_atomic_counterexample_series():
    series = run_sweep(ATOMIC_COUNTEREXAMPLE)
    assert [s.label for s in series] == ["ne1", "ne2", "ne3", "optimum"]
    occupancies = [s.y for s in series[:3]]
    assert occupancies == [
        (1.0, 1.0, 0.0, 1.0, 2.0, 1.0),
        (1.0, 1.0, 0.0, 2.0, 2.0, 0.0),
        (2.0, 2.0, 0.0, 1.0, 1.0, 0.0),
    ]
    for s in series[:3]:
        counts = tuple(int(v) for v in dict(s.meta)["start_counts"].split(","))
        assert sum(counts) == 3
    assert dict(series[3].meta)["efficiency"] == "1"


def test_bundled_nonatomic_counterexample_series():
    series = run_sweep(NONATOMIC_COUNTEREXAMPLE)
    assert [s.label for s in series] == ["sqrtL", "L8"]
    for s in series:
        assert s.x == tuple(range(1, 12))
        assert abs(sum(s.y) - 1.0) < 1e-12
        assert float(dict(s.meta)["wardrop_gap"]) <= 1e-9
    for s in series:
        assert tuple(t for t, m in zip(s.x, s.y) if m > 1e-8) == (1, 6)
    # the slot-1 mass moves with the cost curve; frozen solver outputs
    assert series[0].y[0] == pytest.approx(0.452706, abs=1e-5)
    assert series[1].y[0] == pytest.approx(0.419959, abs=1e-5)


def test_run_counterexamples_summary():
    summary = run_counterexamples()
    atomic = summary["atomic"]
    assert atomic["multiple_equilibria"]
    assert len(atomic["equilibria"]) == 3
    assert atomic["efficiency"] == 1.0

    nonatomic = summary["nonatomic"]
    assert nonatomic["cost_dependent"]
    assert nonatomic["first_component_difference"] == pytest.approx(0.032747, abs=1e-5)
    assert nonatomic["mass_spread"] >= nonatomic["first_component_difference"]
    assert set(nonatomic["supports"].values()) == {(1, 6)}


def test_sweep_thread_determinism(tmp_path):
    specs = [
        SweepSpec(kind="ne-proportion", label="prop", T=5, I_values=(1, 2, 3), C_values=(2, 3)),
        SweepSpec(
            kind="efficiency-vs-C",
            label="effC",
            T=6,
            exogenous=(1, 2, 3, 2, 1, 3),
            I_values=(2, 3),
            C_values=(2, 3),
        ),
        NONATOMIC_COUNTEREXAMPLE,
        ATOMIC_COUNTEREXAMPLE,
    ]
    for spec in specs:
        baseline = run_sweep(spec, threads=1)
        for threads in (2, 4):
            assert run_sweep(spec, threads=threads) == baseline
        # repeated emission is byte-identical, including the manifest
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / spec.label / run
            manifest = emit_data(baseline, out, spec=spec)
            blob = {p.name: p.read_bytes() for p in out.iterdir()}
            blob["manifest-name"] = manifest.name
            blobs.append(blob)
        assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# data emission
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec_name", ["equilibrium_proportion", "efficiency_vs_exponent", "efficiency_vs_players"]
)
def test_committed_sweep_outputs_reproduce_byte_for_byte(tmp_path, spec_name):
    spec = SweepSpec.from_dict(json.loads((DEMOS / "specs" / f"{spec_name}.json").read_text()))
    emit_data(run_sweep(spec), tmp_path, spec=spec)
    emitted = sorted(p.name for p in tmp_path.iterdir())
    committed = sorted(p.name for p in (DEMOS / "out").glob(f"{spec.label}_*"))
    assert emitted == committed
    for name in emitted:
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name


def test_emit_data_manifest_hashes(tmp_path):
    series = run_sweep(ATOMIC_COUNTEREXAMPLE)
    manifest_path = emit_data(series, tmp_path, spec=ATOMIC_COUNTEREXAMPLE)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["sweep"] == "atomic-counterexample"
    assert manifest["series"] == ["ne1", "ne2", "ne3", "optimum"]
    assert manifest["spec"] == ATOMIC_COUNTEREXAMPLE.to_dict()
    assert "time" not in manifest_path.read_text().lower()
    for name, entry in manifest["files"].items():
        content = (tmp_path / name).read_bytes()
        assert entry["sha256"] == hashlib.sha256(content).hexdigest()
        assert entry["rows"] == len(content.decode().splitlines())


def test_emit_data_round_trips_floats(tmp_path):
    series = DataSeries("rt", "s", (1, 2, 3), (1 / 3, 2**-40, 0.1))
    emit_data([series], tmp_path)
    lines = (tmp_path / "rt_s.dat").read_text().splitlines()
    assert len(lines) == 3
    for line, xv, yv in zip(lines, series.x, series.y):
        sx, sy = line.split()
        assert float(sx) == xv
        assert float(sy) == yv  # 17 significant digits reproduce the double


def test_emit_data_rejects_mixed_or_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_data([], tmp_path)
    mixed = [
        DataSeries("a", "s", (1,), (1.0,)),
        DataSeries("b", "s", (1,), (1.0,)),
    ]
    with pytest.raises(ValueError):
        emit_data(mixed, tmp_path)


# ---------------------------------------------------------------------------
# file codecs
# ---------------------------------------------------------------------------


def test_cost_codec_roundtrip():
    costs = [
        Monomial(1, 2),
        Monomial(3, 8),
        SquareRoot(),
        SquareRoot(2),
        CostSum((Monomial(1, 1), Monomial(3, 4))),
    ]
    for cost in costs:
        data = cost_to_dict(cost)
        json.dumps(data)
        assert cost_from_dict(data) == cost


def test_cost_codec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cost_from_dict({"kind": "logarithm"})


def test_cost_label():
    assert cost_label(Monomial(1, 2)) == "L2"
    assert cost_label(Monomial(3, 4)) == "3L4"
    assert cost_label(SquareRoot()) == "sqrtL"
    assert cost_label(SquareRoot(2)) == "2sqrtL"
    assert cost_label(CostSum((Monomial(1, 1), Monomial(3, 4)))) == "L1+3L4"
    with pytest.raises(TypeError):
        cost_label(5)
    with pytest.raises(TypeError):
        cost_to_dict(5)


def test_instance_roundtrip_atomic():
    inst = AtomicInstance.create(
        6, [(1, 6, 2), (2, 5, 3), (1, 4, 2)], exogenous=(1, 2, 3, 2, 1, 3)
    )
    back, cost = instance_from_dict(instance_to_dict(inst, Monomial(1, 2)))
    assert back == inst
    assert cost == Monomial(1, 2)
    # exact integer loads survive the trip
    assert all(isinstance(v, int) for v in back.exogenous)


def test_instance_roundtrip_nonatomic():
    inst = NonatomicInstance.create(
        5,
        [(0.25, 1, 5, 2), (0.75, 2, 4, 2)],
        power=2.0,
        exogenous=(0.5, 0.0, 1.0, 0.0, 0.5),
    )
    back, cost = instance_from_dict(instance_to_dict(inst))
    assert back == inst
    assert cost is None


def test_instance_from_dict_requires_member_list():
    with pytest.raises(ValueError):
        instance_from_dict({"T": 4})


def test_load_instance(tmp_path):
    inst = AtomicInstance.symmetric(6, 3, 2, exogenous=(1, 2, 3, 2, 1, 3))
    path = tmp_path / "inst.json"
    dump_json(instance_to_dict(inst, SquareRoot()), path)
    back, cost = load_instance(path)
    assert back == inst
    assert cost == SquareRoot()


def test_dump_json_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_json({"b": 1, "a": [2, 3]}, a)
    dump_json({"a": [2, 3], "b": 1}, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _write_atomic_instance(path, cost=None):
    inst = AtomicInstance.symmetric(6, 3, 2, exogenous=(1, 2, 3, 2, 1, 3))
    dump_json(instance_to_dict(inst, cost), path)
    return inst


def _write_nonatomic_instance(path, cost=None):
    inst = NonatomicInstance.symmetric(
        11, 5, exogenous=NONATOMIC_COUNTEREXAMPLE.exogenous, departure=10
    )
    dump_json(instance_to_dict(inst, cost), path)
    return inst


def test_cli_sweep(tmp_path):
    spec = SweepSpec(kind="ne-proportion", label="tiny", T=4, I_values=(1, 2), C_values=(2,))
    spec_path = tmp_path / "spec.json"
    dump_json(spec.to_dict(), spec_path)
    out = tmp_path / "out"
    assert main(["sweep", str(spec_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["tiny_C2.dat", "tiny_manifest.json"]
    rows = (out / "tiny_C2.dat").read_text().splitlines()
    assert [r.split()[0] for r in rows] == ["1", "2"]
    inst = AtomicInstance.symmetric(4, 2, 2)
    assert float(rows[1].split()[1]) == ne_proportion(inst, Monomial(1, 2))
    manifest = json.loads((out / "tiny_manifest.json").read_text())
    assert manifest["spec"]["kind"] == "ne-proportion"
    pooled = tmp_path / "pooled"
    assert main(["sweep", str(spec_path), "--out", str(pooled), "--threads", "2"]) == 0
    for path in out.iterdir():
        assert (pooled / path.name).read_bytes() == path.read_bytes()
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as err:
            main(["sweep", str(spec_path), "--out", str(pooled), "--threads", bad])
        assert err.value.code == 2


def test_refusals_survive_a_pickle_round_trip():
    # a sweep's worker process sends its refusal back pickled
    with pytest.raises(BudgetExceededError) as budget:
        efficiency(AtomicInstance.symmetric(6, 3, 2), Monomial(1, 2), budget=5)
    back = pickle.loads(pickle.dumps(budget.value))
    assert type(back) is BudgetExceededError and str(back) == str(budget.value)
    assert back.partial is not None and back.partial == budget.value.partial

    instance = NonatomicInstance.symmetric(11, 5, exogenous=NONATOMIC_COUNTEREXAMPLE.exogenous, departure=10)
    with pytest.raises(ConvergenceError) as convergence:
        solve_equilibrium(instance, SquareRoot(), budget=1)
    back = pickle.loads(pickle.dumps(convergence.value))
    assert type(back) is ConvergenceError and str(back) == str(convergence.value)
    assert back.profile is not None and back.profile == convergence.value.profile
    assert back.gap == convergence.value.gap

    back = pickle.loads(pickle.dumps(IterationBudgetError("no equilibrium after 3 sweeps")))
    assert type(back) is IterationBudgetError and str(back) == "no equilibrium after 3 sweeps"


def _assert_no_child_left():
    # raises ChildProcessError only when this process has no child at all,
    # running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, n):
    # a process that may run on n CPUs, where os.sched_getaffinity exists or not
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_sweep_workers_are_gone_after_a_run_and_after_a_refusal():
    spec = SweepSpec(kind="ne-proportion", label="tiny", T=5, I_values=(1, 2, 3), C_values=(2, 3))
    assert run_sweep(spec, threads=2) == run_sweep(spec, threads=1)
    _assert_no_child_left()
    with pytest.raises(ConvergenceError):
        run_sweep(replace(NONATOMIC_COUNTEREXAMPLE, budget=1), threads=2)
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the runner forks only where os.fork exists")
def test_sweep_asks_for_at_most_one_worker_per_cpu(tmp_path, monkeypatch):
    # the sweep process is one of the workers, so 3 CPUs make 2 children
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    _cpus(monkeypatch, 3)
    spec = SweepSpec(kind="ne-proportion", label="tiny", T=5, I_values=(1, 2, 3), C_values=(2, 3))
    spec_path = tmp_path / "spec.json"
    dump_json(spec.to_dict(), spec_path)
    assert main(["sweep", str(spec_path), "--out", str(tmp_path / "out"), "--threads", "10000"]) == 0
    assert len(forks) == 2
    _assert_no_child_left()


def test_runner_counts_only_the_cpus_this_process_may_run_on(monkeypatch):
    # a process pinned to one CPU of two (taskset -c 0) runs every job itself
    def forbidden():
        raise AssertionError("forked a second worker onto a pinned process's one CPU")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", forbidden)
    assert _run_jobs([partial(_job, j) for j in range(4)], 2) == [0, 1, 4, 9]


def test_jobs_are_dealt_heaviest_first_to_the_least_loaded_share():
    # efficiency_vs_exponent's three series (I=12, T=10, C=3, 4, 5; 9 exponents)
    assert _deal([50388 * 9, 18564 * 9, 6188 * 9], 2) == [[0], [1, 2]]
    assert _deal([1] * 6, 2) == [[0, 2, 4], [1, 3, 5]]
    assert _deal([5, 4, 3, 3, 3], 2) == [[0, 3], [1, 2, 4]]
    assert _deal([2, 7, 1], 3) == [[1], [0], [2]]


@contextlib.contextmanager
def _alarm(seconds):
    # raises TimeoutError here after `seconds`; a forked child does not
    # inherit the alarm
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    # a runner that hangs fails its test after a minute instead of stalling
    # the suite
    with _alarm(60):
        yield


def _job(j, failing=(), sleep=0.0):
    if j in failing:
        raise BudgetExceededError(f"job {j} ran out", partial=None)
    time.sleep(sleep)
    return j * j


# equal weights over 2 workers: this process runs jobs 0, 2, 4 and the one
# child runs jobs 1, 3, 5
@pytest.mark.parametrize("failing, first", [((2, 3), 2), ((1, 4), 1), ((0, 1), 0), ((5,), 5), ((1,), 1)])
def test_runner_raises_the_lowest_index_failure_like_a_serial_run(monkeypatch, deadline, failing, first):
    _cpus(monkeypatch, 2)
    jobs = [partial(_job, j, failing) for j in range(6)]
    with pytest.raises(BudgetExceededError) as serial:
        _run_jobs(jobs, 1)
    with pytest.raises(BudgetExceededError) as shared:
        _run_jobs(jobs, 2)
    assert str(serial.value) == str(shared.value) == f"job {first} ran out"
    _assert_no_child_left()
    assert _run_jobs([partial(_job, j) for j in range(6)], 2) == [j * j for j in range(6)]


def test_runner_kills_a_child_whose_jobs_all_follow_its_own_failure(monkeypatch, deadline):
    _cpus(monkeypatch, 2)
    # job 1, the child's only job, would sleep for a minute
    jobs = [partial(_job, 0, (0,)), partial(_job, 1, sleep=60.0)]
    began = time.monotonic()
    with pytest.raises(BudgetExceededError, match="job 0 ran out"):
        _run_jobs(jobs, 2)
    assert time.monotonic() - began < 30
    _assert_no_child_left()


def test_runner_kills_its_children_when_interrupted(monkeypatch):
    _cpus(monkeypatch, 2)
    # the interrupt comes while this process waits on the child's minute
    began = time.monotonic()
    with pytest.raises(TimeoutError), _alarm(1):
        _run_jobs([partial(_job, 0), partial(_job, 1, sleep=60.0)], 2)
    assert time.monotonic() - began < 30
    _assert_no_child_left()


def _die(how):
    if how == "exit":
        os._exit(1)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the runner forks only where os.fork exists")
@pytest.mark.parametrize("how, status", [("exit", "exit status 1"), ("kill", f"signal {int(signal.SIGKILL)}")])
def test_runner_reports_a_child_that_dies_without_a_result(monkeypatch, deadline, how, status):
    _cpus(monkeypatch, 3)
    # three workers over four equal jobs: the children run jobs 1 and 2
    jobs = [partial(_job, 0), partial(_die, how), partial(_job, 2, sleep=60.0), partial(_job, 3)]
    with pytest.raises(WorkerError, match=rf"ended without its results \({status}\)"):
        _run_jobs(jobs, 3)
    _assert_no_child_left()


def test_sweep_imports_no_process_pool(tmp_path):
    spec = SweepSpec(kind="ne-proportion", label="tiny", T=4, I_values=(1, 2), C_values=(2, 3))
    spec_path = tmp_path / "spec.json"
    dump_json(spec.to_dict(), spec_path)
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"  # the shared path, on any host
        "from chargegame.cli import main\n"
        f"assert main(['sweep', {str(spec_path)!r}, '--out', {str(tmp_path / 'out')!r}, '--threads', '2']) == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("spec_name, error", [("atomic", "BudgetExceededError"), ("nonatomic", "ConvergenceError")])
def test_cli_sweep_reports_a_pooled_refusal_like_a_serial_one(tmp_path, capsys, spec_name, error):
    if spec_name == "atomic":
        spec_path = DEMOS / "specs" / "equilibrium_proportion.json"
    else:
        spec_path = tmp_path / "spec.json"
        dump_json(NONATOMIC_COUNTEREXAMPLE.to_dict(), spec_path)
    lines = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        assert main(["sweep", str(spec_path), "--out", str(out), "--budget", "5", "--threads", threads]) == 3
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    assert lines[0].startswith(f"{error}: ") and lines[0].count("\n") == 1
    _assert_no_child_left()


def test_cli_solve_atomic(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst = _write_atomic_instance(inst_path, Monomial(1, 2))
    out = tmp_path / "report.json"
    assert main(["solve-atomic", str(inst_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["complete"] is True
    assert len(data["equilibria"]) == 3
    assert data["efficiency"] == 1.0
    assert data["efficiency_exact"] == "1"
    assert data["equilibrium_costs"] == [56.0, 56.0, 56.0]
    assert data["optimum_cost"] == 56.0
    report = efficiency(inst, Monomial(1, 2))
    assert data["worst_equilibrium_cost"] == float(report.worst_cost)


def test_cli_solve_atomic_reports_the_scan_costs(tmp_path):
    # float data: recomputing the totals can differ from the scan's in the last ulp
    inst = AtomicInstance.symmetric(4, 1, 3, exogenous=(3.707, 1.545, 2.167, 2.881))
    cost = Monomial(1, 3)
    inst_path = tmp_path / "inst.json"
    dump_json(instance_to_dict(inst, cost), inst_path)
    out = tmp_path / "report.json"
    assert main(["solve-atomic", str(inst_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert max(data["equilibrium_costs"]) == data["worst_equilibrium_cost"]
    assert len(data["equilibrium_costs"]) == len(data["equilibria"])
    for config, total in zip(data["equilibria"], data["equilibrium_costs"]):
        config = ChargingConfiguration(config["start_counts"], config["occupancy"])
        assert total == pytest.approx(grid_total_cost(inst, cost, config), rel=1e-12)


def test_cli_solve_atomic_refuses_costs_past_the_float_range(tmp_path, capsys):
    # the scan answers exactly, about 1e320, but the report's floats cannot
    # hold it
    data = {"T": 2, "exogenous": [10**20, 10**20], "cost": {"kind": "monomial", "exponent": 16},
            "players": [{"arrival": 1, "departure": 2, "duration": 1}]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main(["solve-atomic", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: equilibrium_costs is past the float range\n"


def test_cli_solve_atomic_rejects_nonatomic_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    _write_nonatomic_instance(inst_path)
    assert main(["solve-atomic", str(inst_path)]) == 2
    assert capsys.readouterr().err == f"{inst_path}: solve-atomic expects an instance with a 'players' list\n"


def test_cli_solve_atomic_takes_a_constant_cost(tmp_path, capsys):
    # every profile is an equilibrium; only the nonatomic solver needs A1
    data = {**json.loads((DEMOS / "specs" / "valley_three_players.json").read_text()),
            "cost": {"kind": "monomial", "exponent": 0}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main(["solve-atomic", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["efficiency_exact"] == "1" and len(report["equilibria"]) == report["space_size"]


def test_cli_solve_nonatomic(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst = _write_nonatomic_instance(inst_path, SquareRoot())
    out = tmp_path / "eq.json"
    assert main(["solve-nonatomic", str(inst_path), "--tol", "1e-10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["wardrop_gap"] <= 1e-10
    assert data["start_mass"][0] == pytest.approx(0.452706, abs=1e-5)
    assert sum(data["start_mass"]) == pytest.approx(1.0, abs=1e-9)
    assert "efficiency" not in data  # sqrt is concave, no convex-optimum report
    eq = solve_equilibrium(inst, SquareRoot(), tol=1e-10)
    assert data["start_mass"] == [float(v) for v in eq.profile.start_mass()]


def test_cli_solve_nonatomic_convex_cost_reports_optimum(tmp_path):
    inst_path = tmp_path / "inst.json"
    _write_nonatomic_instance(inst_path, Monomial(1, 2))
    out = tmp_path / "eq.json"
    assert main(["solve-nonatomic", str(inst_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["efficiency"] >= 1.0 - 1e-9
    assert data["optimum_cost"] <= data["total_cost"] + 1e-9


def test_cli_solve_nonatomic_rejects_atomic_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    _write_atomic_instance(inst_path)
    assert main(["solve-nonatomic", str(inst_path)]) == 2
    assert capsys.readouterr().err == f"{inst_path}: solve-nonatomic expects an instance with a 'classes' list\n"


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "equilibrium_proportion.json", "--out", "out"],
        ["counterexamples"],
        ["solve-atomic", "valley_three_players.json"],
        ["solve-nonatomic", "evening_continuum.json"],
    ],
)
def test_cli_rejects_a_negative_budget(args):
    with pytest.raises(SystemExit) as err:
        main([*args, "--budget", "-5"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command, spec_name, budget, error",
    [
        ("solve-atomic", "valley_three_players", "5", "BudgetExceededError"),
        ("solve-nonatomic", "evening_continuum", "1", "ConvergenceError"),
    ],
    ids=["solve-atomic-valley_three_players-BudgetExceededError", "solve-nonatomic-evening_continuum-ConvergenceError"],
)
def test_cli_reports_a_refusal_in_one_line(capsys, command, spec_name, budget, error):
    spec = DEMOS / "specs" / f"{spec_name}.json"
    assert main([command, str(spec), "--budget", budget]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


def test_cli_solve_nonatomic_answers_when_the_budget_ends_within_tol(capsys):
    spec = DEMOS / "specs" / "evening_continuum.json"
    assert main(["solve-nonatomic", str(spec), "--budget", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cost_evaluations"] == 4 and data["wardrop_gap"] <= 1e-9


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_cli_solve_nonatomic_rejects_a_bad_tol(capsys, tol):
    spec = DEMOS / "specs" / "evening_continuum.json"
    with pytest.raises(SystemExit) as err:
        main(["solve-nonatomic", str(spec), "--tol", tol])
    assert err.value.code == 2
    assert "tol must be a finite number above 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, spec_name, keys",
    [
        (
            "solve-atomic",
            "valley_three_players",
            {"blocks", "exact_rows", "generate_s", "load_s", "evaluate_s", "dtype", "members"},
        ),
        ("solve-nonatomic", "evening_continuum", {"steps", "projected", "fallbacks", "solve_s"}),
        ("solve-nonatomic", "evening_continuum", {"steps", "arc", "optimum"}),
    ],
)
def test_cli_stats_go_to_stderr_only(tmp_path, capsys, command, spec_name, keys):
    spec = DEMOS / "specs" / f"{spec_name}.json"
    if "optimum" in keys:
        # the optimum is solved for a convex cost only, not the spec's sqrt(L)
        data = {**json.loads(spec.read_text()), "cost": {"kind": "monomial", "coefficient": 1, "exponent": 2}}
        spec = tmp_path / "convex.json"
        spec.write_text(json.dumps(data))
    spec = str(spec)
    assert main([command, spec]) == 0
    plain = capsys.readouterr()
    assert main([command, spec, "--stats"]) == 0
    counted = capsys.readouterr()
    assert counted.out == plain.out and plain.err == ""
    stats = json.loads(counted.err)
    assert counted.err.count("\n") == 1 and keys <= stats.keys()
    if "optimum" in keys:
        assert stats["optimum"].keys() == stats.keys() - {"optimum"}
        assert stats["optimum"]["steps"] >= 1
    elif command == "solve-nonatomic":
        assert "optimum" not in stats
    assert main([command, spec, "--out", str(tmp_path / "plain.json")]) == 0
    assert main([command, spec, "--out", str(tmp_path / "counted.json"), "--stats"]) == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "counted.json").read_bytes()


def test_sweep_spec_rejects_a_budget_below_one():
    with pytest.raises(ValueError, match="budget"):
        SweepSpec(kind="ne-proportion", label="tiny", T=4, I_values=(1,), C_values=(2,), budget=0)


def test_sweep_spec_rejects_unknown_keys():
    spec = json.loads((DEMOS / "specs" / "equilibrium_proportion.json").read_text())
    with pytest.raises(ValueError, match="budgett"):
        SweepSpec.from_dict({**spec, "budgett": 3})


_SPEC_BASES = {
    "proportion": lambda: json.loads((DEMOS / "specs" / "equilibrium_proportion.json").read_text()),
    "power": lambda: json.loads((DEMOS / "specs" / "efficiency_vs_exponent.json").read_text()),
    "atomic-ce": ATOMIC_COUNTEREXAMPLE.to_dict,
    "nonatomic-ce": NONATOMIC_COUNTEREXAMPLE.to_dict,
}


@pytest.mark.parametrize(
    "base, bad",
    [("proportion", {"budget": 0}), ("proportion", {"kind": "no-such-kind"}),
     ("proportion", {"budgett": 3}), ("proportion", {"T": 0}), ("proportion", {"C_values": [20]}),
     ("proportion", {"I_values": [0]}), ("proportion", {"I_values": 5}), ("proportion", {"cost": 5}),
     ("proportion", {"exogenous": 5}), ("power", {"exponents": ["x"]}),
     ("power", {"exponents": [-1]}), ("power", {"I_values": [2, 3]}),
     ("nonatomic-ce", {"C_values": [2, 3]}), ("nonatomic-ce", {"C_values": []}),
     ("atomic-ce", {"C_values": [2, 3]}), ("nonatomic-ce", {"costs": 5}),
     ("nonatomic-ce", {"tol": "x"}), ("proportion", {"label": "a/b"}),
     ("proportion", {"C_values": []}), ("proportion", {"I_values": ["x"]}),
     ("proportion", {"budget": [1]}), ("proportion", {"kind": ["x"]}),
     ("power", {"cost": {"kind": "sqrt", "coefficient": 3}}),
     ("power", {"cost": {"kind": "sum", "terms": [{"kind": "monomial", "coefficient": 5, "exponent": 1},
                                                  {"kind": "monomial", "coefficient": 2, "exponent": 2}]}}),
     ("proportion", {"budget": True}), ("proportion", {"budget": 2.5}), ("proportion", {"budget": "7"}),
     ("proportion", {"I_values": [True, 2]}), ("proportion", {"C_values": [True]}),
     ("nonatomic-ce", {"costs": [{"kind": "sqrt"}, {"kind": "monomial", "exponent": 0}]}),
     ("proportion", {"exponents": [3]}),
     ("power", {"cost": {"kind": "monomial", "coeficient": 3, "exponent": 2}}),
     ("proportion", {"tol": 1e-6}), ("nonatomic-ce", {"cost": {"kind": "monomial", "exponent": 0}}),
     ("proportion", {"C_values": [3, 3]}), ("nonatomic-ce", {"costs": [{"kind": "sqrt"}, {"kind": "sqrt"}]})],
    ids=["budget-0", "unknown-kind", "budgett", "T-0", "C-past-T", "I-0", "I-not-a-list",
         "cost-not-an-object", "exogenous-5", "exponent-x", "exponent-negative", "power-two-I",
         "nonatomic-two-C", "nonatomic-no-C", "atomic-two-C", "costs-5", "tol-x", "label-slash",
         "grid-no-C", "I-not-a-number", "budget-a-list", "kind-a-list", "power-sqrt-cost",
         "power-sum-cost", "budget-true", "budget-2.5", "budget-a-string", "I-true", "C-true",
         "costs-not-increasing", "proportion-exponents", "cost-misspelled-key",
         "proportion-tol", "nonatomic-cost", "C-repeated", "costs-repeated"],
)
def test_cli_sweep_rejects_a_bad_spec_in_one_line(tmp_path, capsys, base, bad):
    spec = {**_SPEC_BASES[base](), **bad}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", [[{}], 5], ids=["a-list", "a-number"])
def test_cli_sweep_rejects_a_spec_that_is_not_an_object(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"{spec_path}: sweep spec must be a JSON object\n"
    assert not (tmp_path / "out").exists()


def test_cli_sweep_names_a_missing_key_in_one_line(tmp_path, capsys):
    spec = json.loads((DEMOS / "specs" / "equilibrium_proportion.json").read_text())
    del spec["T"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"{spec_path}: sweep spec is missing 'T'\n"


@pytest.mark.parametrize(
    "drop, message",
    [(lambda data: data.pop("T"), "instance is missing 'T'"),
     (lambda data: data["players"][1].pop("arrival"), "player 1 is missing 'arrival'")],
    ids=["no-T", "player-without-arrival"],
)
def test_cli_solve_names_a_missing_key_in_one_line(tmp_path, capsys, drop, message):
    data = json.loads((DEMOS / "specs" / "valley_three_players.json").read_text())
    drop(data)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main(["solve-atomic", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}: {message}\n"


@pytest.mark.parametrize(
    "command, spec_name, section",
    [("solve-atomic", "valley_three_players", "players"), ("solve-nonatomic", "evening_continuum", "classes")],
    ids=["solve-atomic", "solve-nonatomic"],
)
def test_cli_solve_rejects_a_bad_instance_in_one_line(tmp_path, capsys, command, spec_name, section):
    data = json.loads((DEMOS / "specs" / f"{spec_name}.json").read_text())
    data[section][0].update(departure=2, duration=5)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(f"{path}: ") and "duration 5" in err


@pytest.mark.parametrize(
    "command, spec_name, change",
    [
        ("solve-atomic", "valley_three_players", {"players": 5}),
        ("solve-nonatomic", "evening_continuum", {"classes": 5}),
        ("solve-atomic", "valley_three_players", {"exogenous": 5}),
        ("solve-atomic", "valley_three_players", {"cost": 5}),
        ("solve-atomic", "valley_three_players", {"cost": {"kind": "monomial", "exponent": "x"}}),
        ("solve-atomic", "valley_three_players", {"power": "x"}),
        ("solve-nonatomic", "evening_continuum",
         {"classes": [{"weight": "x", "arrival": 1, "departure": 10, "duration": 5}]}),
        ("solve-atomic", "valley_three_players", {"exogenous": ["x"] * 6}),
        ("solve-atomic", "valley_three_players", {"players": [{"arrival": True, "departure": 6, "duration": 2}]}),
        ("solve-atomic", "valley_three_players", {"players": [{"arrival": 1, "departure": 6, "duration": True}]}),
        ("solve-nonatomic", "evening_continuum",
         {"T": True, "exogenous": [0.5], "classes": [{"weight": 1.0, "arrival": 1, "departure": 1, "duration": 1}]}),
        ("solve-nonatomic", "evening_continuum", {"cost": {"kind": "monomial", "exponent": 0}}),
        ("solve-atomic", "valley_three_players", {"exogneous": [1, 2, 3, 2, 1, 3]}),
        ("solve-atomic", "valley_three_players",
         {"players": [{"arrival": 1, "departure": 6, "duration": 2, "power": 2}]}),
        ("solve-atomic", "valley_three_players",
         {"classes": [{"weight": 1.0, "arrival": 1, "departure": 6, "duration": 2}]}),
    ],
    ids=["players-5", "classes-5", "exogenous-5", "cost-5", "exponent-x", "power-x", "weight-x",
         "exogenous-strings", "arrival-true", "duration-true", "T-true", "cost-not-increasing",
         "exogenous-misspelled", "player-power", "players-and-classes"],
)
def test_cli_solve_rejects_a_malformed_instance_in_one_line(tmp_path, capsys, command, spec_name, change):
    data = {**json.loads((DEMOS / "specs" / f"{spec_name}.json").read_text()), **change}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(f"{path}: ")


@pytest.mark.parametrize("demo", ["equilibrium_tour.py", "invariance_tour.py"])
def test_demo_tour_runs(demo, capsys):
    # a demo that reads a removed attribute or option fails here
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    # a renamed constructor or argument breaks the documented example here
    readme = (DEMOS.parent / "README.md").read_text()
    code = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "abc"])
@pytest.mark.parametrize(
    "command, spec_name",
    [("solve-atomic", "valley_three_players"), ("solve-nonatomic", "evening_continuum"),
     ("sweep", "equilibrium_proportion")],
    ids=["solve-atomic", "solve-nonatomic", "sweep"],
)
def test_cli_rejects_a_bad_budget_variable_in_one_line(tmp_path, capsys, monkeypatch, command, spec_name, value):
    monkeypatch.setenv("CHARGE_GAME_BUDGET", value)
    out = tmp_path / "out"
    assert main([command, str(DEMOS / "specs" / f"{spec_name}.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("CHARGE_GAME_BUDGET: ")
    assert not out.exists()


def test_cli_counterexamples_solves_each_counterexample_once(tmp_path, monkeypatch):
    import chargegame.experiments as experiments

    budgets = {"solve_equilibrium": [], "efficiency": []}

    def counted(name):
        real = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            budgets[name].append(kwargs["budget"])
            return real(*args, **kwargs)

        return wrapper

    for name in budgets:
        monkeypatch.setattr(experiments, name, counted(name))
    out = tmp_path / "ce"
    assert main(["counterexamples", "--budget", "1000", "--out", str(out)]) == 0
    # the printed claims and the emitted files come from the same solves
    assert budgets == {"solve_equilibrium": [1000, 1000], "efficiency": [1000]}
    for manifest in out.glob("*_manifest.json"):
        assert json.loads(manifest.read_text())["spec"]["budget"] == 1000


def test_cli_counterexamples(tmp_path, capsys):
    out = tmp_path / "ce"
    assert main(["counterexamples", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("ok") == 2
    assert "FAILED" not in text
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "atomic-counterexample_manifest.json",
        "atomic-counterexample_ne1.dat",
        "atomic-counterexample_ne2.dat",
        "atomic-counterexample_ne3.dat",
        "atomic-counterexample_optimum.dat",
        "nonatomic-counterexample_L8.dat",
        "nonatomic-counterexample_manifest.json",
        "nonatomic-counterexample_sqrtL.dat",
    ]
