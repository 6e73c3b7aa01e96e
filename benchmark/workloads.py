"""The three workloads: inputs, one verified pass, and per-layer numbers.

A pass is the unit that ``run_s`` times: from the first solver call to the
last verified answer.  Solvers are called through their module attributes
(``atomic.efficiency``, not a name bound at import) so that the traced run's
wrappers see every call the harness makes.
"""

from __future__ import annotations

import json
import math
import shutil
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from chargegame import atomic, cli, experiments, nonatomic
from chargegame.experiments import NONATOMIC_COUNTEREXAMPLE, SweepSpec
from chargegame.fileio import cost_label
from chargegame.model import Monomial, NonatomicInstance, SquareRoot

import instances
import verify

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
SWEEP_SPECS = ("efficiency_vs_exponent.json", "equilibrium_proportion.json")
# the sweep's thread pool at the core count of the baseline machine
SWEEP_THREADS = 2

# (module, attribute, span name): the public names each module imports from
# the next, then the solver entry points the harness calls itself
TRACE_TARGETS = (
    (cli, "run_sweep", "experiments.run_sweep"),
    (cli, "emit_data", "experiments.emit_data"),
    (experiments, "efficiency", "atomic.efficiency"),
    (experiments, "ne_proportion", "atomic.ne_proportion"),
    (experiments, "dump_json", "fileio.dump_json"),
    (nonatomic, "wardrop_gap", "nonatomic.wardrop_gap"),
    (nonatomic, "potential_nonatomic", "model.potential_nonatomic"),
    (nonatomic, "grid_total_cost", "model.grid_total_cost"),
    (cli, "main", "cli.main"),
    (atomic, "efficiency", "atomic.efficiency"),
    (atomic, "enumerate_equilibria", "atomic.enumerate_equilibria"),
    (atomic, "best_response_dynamics", "atomic.best_response_dynamics"),
    (nonatomic, "solve_equilibrium", "nonatomic.solve_equilibrium"),
    (nonatomic, "social_optimum_nonatomic", "nonatomic.social_optimum_nonatomic"),
)

L2 = Monomial(1, 2)
SQRT = SquareRoot()
# first start mass of the bundled counter-example (support {1, 6}) per cost
COUNTEREXAMPLE_FIRST_MASS = {"sqrtL": 0.45, "L8": 0.42}


class NullTracer:
    """Stands in for ``tracing.Tracer`` in untraced passes."""

    def span(self, name):
        return nullcontext()


# --- atomic-sweep -----------------------------------------------------------


@dataclass(frozen=True)
class SweepInputs:
    root: Path
    specs: tuple  # (path, SweepSpec)
    expected_sha: dict
    configs: int


def _sweep_configs(spec: SweepSpec) -> int:
    """Configurations the sweep scans: C(I+A-1, A-1) per grid point, A = T-C+1."""
    extra = len(spec.exponents) if spec.kind == "efficiency-vs-power" else 1
    total = 0
    for C in spec.C_values:
        A = spec.T - C + 1
        total += extra * sum(math.comb(I + A - 1, A - 1) for I in spec.I_values)
    return total


def prepare_sweep(root: Path, seed: int) -> SweepInputs:
    # the inputs are the committed specs, so the seed changes nothing here
    specs = []
    for name in SWEEP_SPECS:
        path = root / "demos" / "specs" / name
        specs.append((path, SweepSpec.from_dict(json.loads(path.read_text()))))
    expected = json.loads((EXPECTED_DIR / "sweep_sha256.json").read_text())
    configs = sum(_sweep_configs(spec) for _, spec in specs)
    return SweepInputs(root, tuple(specs), expected, configs)


def run_sweep_pass(inp: SweepInputs, tally, tracer, counts: Counter, scratch: Path) -> None:
    out = scratch / "sweep"
    shutil.rmtree(out, ignore_errors=True)
    for path, spec in inp.specs:
        try:
            status = cli.main(["sweep", str(path), "--out", str(out), "--threads", str(SWEEP_THREADS)])
        except Exception as exc:  # the pass goes on; the missing files fail below
            status = repr(exc)
        tally.check(status == 0, f"sweep {path.name} returned {status}")
    verify.check_sweep_outputs(out, inp.expected_sha, inp.root / "demos" / "out", tally)
    counts["atomic.sweep.configs"] += inp.configs


def sweep_layers(tracer, counts: dict) -> dict:
    # CPU time, not span time: two GIL-bound threads stretch each other's
    # spans, so summed span time reads 2 at --threads 2 with no speed-up
    sweep_wall = tracer.total("experiments.run_sweep")
    scan = tracer.child_cpu("experiments.run_sweep", "atomic.")
    configs = counts.get("atomic.sweep.configs", 0)
    return {
        "cli.main.self_s": tracer.self_total("cli.main"),
        "fileio.dump_json.s": tracer.total("fileio.dump_json"),
        "experiments.emit_data.s": tracer.total("experiments.emit_data"),
        "experiments.run_sweep.self_s": tracer.self_total("experiments.run_sweep"),
        "experiments.run_sweep.parallelism": scan / sweep_wall if sweep_wall else 0.0,
        "atomic.sweep.ns_per_config": 1e9 * scan / configs if configs else 0.0,
    }


# --- atomic-mixed -----------------------------------------------------------


@dataclass(frozen=True)
class MixedInputs:
    cases: instances.AtomicMixedInputs
    expected: dict


def prepare_mixed(root: Path, seed: int) -> MixedInputs:
    expected = json.loads((EXPECTED_DIR / "atomic_mixed.json").read_text())
    return MixedInputs(instances.atomic_mixed_inputs(seed), expected)


def _scan_family(cases, family: str, expected: dict, tally, tracer, counts: Counter) -> None:
    for case in cases:
        try:
            with tracer.span(f"atomic.{family}"):
                if family == "profiles":
                    eq_set = atomic.enumerate_equilibria(case.instance, case.cost)
                    counts["atomic.profiles.count"] += eq_set.examined
                    counts["atomic.equilibria"] += len(eq_set.equilibria)
                    verify.check_scan(case.key, expected[case.key], eq_set.equilibria, tally)
                report = atomic.efficiency(case.instance, case.cost)
        except Exception as exc:
            tally.check(False, f"scan {case.key} raised {exc!r}")
            continue
        examined = report.equilibria.examined
        counts["atomic.profiles.count" if family == "profiles" else f"atomic.{family}.configs"] += examined
        counts["atomic.equilibria"] += len(report.equilibria.equilibria)
        verify.check_scan(case.key, expected[case.key], report.equilibria.equilibria, tally, report)


def run_mixed_pass(inp: MixedInputs, tally, tracer, counts: Counter, scratch: Path) -> None:
    cases = inp.cases
    _scan_family(cases.bigint, "bigint", inp.expected, tally, tracer, counts)
    _scan_family(cases.float, "float", inp.expected, tally, tracer, counts)
    _scan_family(cases.hetero, "profiles", inp.expected, tally, tracer, counts)
    for r, (instance, cost, starts) in enumerate(cases.dynamics):
        try:
            final, trace = atomic.best_response_dynamics(instance, cost, starts)
            final_is_nash = atomic.is_nash(instance, cost, final)
        except Exception as exc:
            tally.check(False, f"dynamics run {r} raised {exc!r}")
            continue
        counts["atomic.dynamics.moves"] += len(trace) - 1
        verify.check_dynamics(final_is_nash, trace, tally, str(r))


def mixed_layers(tracer, counts: dict) -> dict:
    def per(total_s: float, n: int, scale: float) -> float:
        return scale * total_s / n if n else 0.0

    return {
        "atomic.bigint.ns_per_config": per(tracer.total("atomic.bigint"), counts.get("atomic.bigint.configs", 0), 1e9),
        "atomic.float.ns_per_config": per(tracer.total("atomic.float"), counts.get("atomic.float.configs", 0), 1e9),
        "atomic.profiles.us_per_profile": per(tracer.total("atomic.profiles"), counts.get("atomic.profiles.count", 0), 1e6),
        "atomic.dynamics.s": tracer.total("atomic.best_response_dynamics"),
    }


# --- nonatomic-fleet --------------------------------------------------------


@dataclass(frozen=True)
class FleetInputs:
    fleets: tuple  # (kind, NonatomicInstance)
    counterexample: NonatomicInstance
    counterexample_costs: tuple


def prepare_fleet(root: Path, seed: int) -> FleetInputs:
    spec = NONATOMIC_COUNTEREXAMPLE
    counterexample = NonatomicInstance.symmetric(
        spec.T, spec.C_values[0], exogenous=spec.exogenous, departure=spec.departure
    )
    return FleetInputs(instances.fleet_inputs(seed), counterexample, spec.costs)


def _certified_gap(instance, cost, profile, tally, counts: Counter, what: str) -> float:
    gap = nonatomic.wardrop_gap(instance, cost, profile)
    verify.check_gap(gap, tally, what)
    counts["nonatomic.max_gap"] = max(counts["nonatomic.max_gap"], gap)
    return gap


def _fleet_answers(inp: FleetInputs, tally, tracer, counts: Counter) -> None:
    for kind, instance in inp.fleets:
        # sqrt(L) on wide fleets does not always converge at this commit (see
        # README), and a benchmark answer must not fail by design
        costs = (("l2", L2),) if kind == "wide" else (("l2", L2), ("sqrt", SQRT))
        for label, cost in costs:
            what = f"{kind} fleet, {label} equilibrium"
            try:
                with tracer.span(f"nonatomic.solve.{label}"):
                    eq = nonatomic.solve_equilibrium(instance, cost)
            except Exception as exc:
                tally.check(False, f"{what} raised {exc!r}")
                continue
            counts[f"nonatomic.solve.{label}.evals"] += eq.cost_evaluations
            counts[f"nonatomic.solve.{label}.fw_iters"] += eq.iterations
            _certified_gap(instance, cost, eq.profile, tally, counts, what)
        what = f"{kind} fleet, l2 optimum"
        try:
            profile, _ = nonatomic.social_optimum_nonatomic(instance, L2)
        except Exception as exc:
            tally.check(False, f"{what} raised {exc!r}")
            continue
        # an optimum is a Wardrop equilibrium under the marginal cost f'
        _certified_gap(instance, L2.derivative(), profile, tally, counts, what)
    for cost in inp.counterexample_costs:
        label = cost_label(cost)
        what = f"counter-example under {label}"
        try:
            eq = nonatomic.solve_equilibrium(inp.counterexample, cost)
        except Exception as exc:
            tally.check(False, f"{what} raised {exc!r}")
            continue
        _certified_gap(inp.counterexample, cost, eq.profile, tally, counts, what)
        verify.check_counterexample(
            eq.profile.start_mass(), (1, 6), COUNTEREXAMPLE_FIRST_MASS[label], tally, what
        )


def run_fleet_pass(inp: FleetInputs, tally, tracer, counts: Counter, scratch: Path) -> None:
    # warnings are counted, then shown again: recording must not hide them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _fleet_answers(inp, tally, tracer, counts)
    counts["nonatomic.runtime_warnings"] += len(caught)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def fleet_layers(tracer, counts: dict) -> dict:
    solve_s = tracer.total("nonatomic.solve.l2") + tracer.total("nonatomic.solve.sqrt")
    evals = counts.get("nonatomic.solve.l2.evals", 0) + counts.get("nonatomic.solve.sqrt.evals", 0)
    return {
        "nonatomic.solve.l2.s": tracer.total("nonatomic.solve.l2"),
        "nonatomic.solve.sqrt.s": tracer.total("nonatomic.solve.sqrt"),
        "nonatomic.us_per_eval": 1e6 * solve_s / evals if evals else 0.0,
        "nonatomic.optimum.s": tracer.total("nonatomic.social_optimum_nonatomic"),
        "nonatomic.wardrop_gap.s": tracer.total("nonatomic.wardrop_gap"),
        "model.potential_nonatomic.s": tracer.total("model.potential_nonatomic"),
        "model.grid_total_cost.s": tracer.total("model.grid_total_cost"),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    run_pass: object
    layers: object


WORKLOADS = {
    "atomic-sweep": Workload("atomic-sweep", prepare_sweep, run_sweep_pass, sweep_layers),
    "atomic-mixed": Workload("atomic-mixed", prepare_mixed, run_mixed_pass, mixed_layers),
    "nonatomic-fleet": Workload("nonatomic-fleet", prepare_fleet, run_fleet_pass, fleet_layers),
}

# end-to-end metrics the worker measures (run.py adds setup_s): name -> unit
END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}

# per-layer metrics: name -> unit; a workload that never reaches a layer
# reports 0 for it
LAYER_UNITS = {
    "cli.main.self_s": "s",
    "fileio.dump_json.s": "s",
    "experiments.emit_data.s": "s",
    "experiments.run_sweep.self_s": "s",
    "experiments.run_sweep.parallelism": "ratio",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "atomic.sweep.configs": "count",
    "atomic.sweep.ns_per_config": "ns",
    "atomic.bigint.ns_per_config": "ns",
    "atomic.float.ns_per_config": "ns",
    "atomic.profiles.count": "count",
    "atomic.profiles.us_per_profile": "us",
    "atomic.dynamics.s": "s",
    "atomic.dynamics.moves": "count",
    "atomic.equilibria": "count",
    "nonatomic.solve.l2.s": "s",
    "nonatomic.solve.sqrt.s": "s",
    "nonatomic.solve.l2.evals": "count",
    "nonatomic.solve.sqrt.evals": "count",
    "nonatomic.solve.l2.fw_iters": "count",
    "nonatomic.solve.sqrt.fw_iters": "count",
    "nonatomic.us_per_eval": "us",
    "nonatomic.optimum.s": "s",
    "nonatomic.wardrop_gap.s": "s",
    "model.potential_nonatomic.s": "s",
    "model.grid_total_cost.s": "s",
    "nonatomic.max_gap": "cost",
    "nonatomic.runtime_warnings": "count",
    "trace.overhead_s": "s",
}
