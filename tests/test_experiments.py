"""Tests for sweeps, data emission, file codecs and the command line."""

import hashlib
import json
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
from chargegame.cli import main
from chargegame.experiments import (
    ATOMIC_COUNTEREXAMPLE,
    NONATOMIC_COUNTEREXAMPLE,
    DataSeries,
    SweepSpec,
    emit_data,
    run_counterexamples,
    run_sweep,
)
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


def test_efficiency_vs_power_needs_single_player_count():
    spec = SweepSpec(
        kind="efficiency-vs-power", label="pow", T=6, I_values=(2, 3), C_values=(2,), exponents=(2,)
    )
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_counterexample_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(kind="nonatomic-counterexample", label="x", T=11, C_values=(5, 6)))
    with pytest.raises(ValueError):
        run_sweep(
            SweepSpec(kind="atomic-counterexample", label="x", T=6, I_values=(3,), C_values=(2, 3))
        )


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
    # the slot-1 mass moves with the cost curve; frozen solver outputs
    assert series[0].y[0] == pytest.approx(0.452706, abs=1e-5)
    assert series[1].y[0] == pytest.approx(0.419959, abs=1e-5)


def test_run_counterexamples_summary():
    summary = run_counterexamples()
    atomic = summary["atomic"]
    assert atomic["multiple_equilibria"]
    assert len(atomic["equilibria"]) == 3
    assert atomic["report"].value == 1.0

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


def test_cli_solve_atomic(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst = _write_atomic_instance(inst_path, Monomial(1, 2))
    out = tmp_path / "report.json"
    assert main(["solve-atomic", str(inst_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["complete"] is True
    assert data["method"] == "configurations"
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


def test_cli_solve_atomic_rejects_nonatomic_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    _write_nonatomic_instance(inst_path)
    assert main(["solve-atomic", str(inst_path)]) == 2
    assert "players" in capsys.readouterr().err


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
    assert "classes" in capsys.readouterr().err


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
    "command, spec_name, error",
    [
        ("solve-atomic", "valley_three_players", "BudgetExceededError"),
        ("solve-nonatomic", "evening_continuum", "ConvergenceError"),
    ],
)
def test_cli_reports_a_refusal_in_one_line(capsys, command, spec_name, error):
    spec = DEMOS / "specs" / f"{spec_name}.json"
    assert main([command, str(spec), "--budget", "5"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


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
