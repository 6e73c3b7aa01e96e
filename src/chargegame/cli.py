"""Command line front end.

Subcommands:
  sweep SPEC.json --out DIR        run a sweep spec, emit .dat files + manifest
  counterexamples --out DIR        reproduce the two bundled counter-examples
  solve-atomic INSTANCE.json       enumerate equilibria / optimum / efficiency
  solve-nonatomic INSTANCE.json    Wardrop equilibrium (and optimum when convex)
"""

from __future__ import annotations

import argparse
import json
import sys

from .atomic import BudgetExceededError, efficiency
from .experiments import (
    ATOMIC_COUNTEREXAMPLE,
    NONATOMIC_COUNTEREXAMPLE,
    SweepSpec,
    emit_data,
    run_counterexamples,
    run_sweep,
)
from .fileio import dump_json, load_instance
from .model import AtomicInstance, Monomial
from .nonatomic import ConvergenceError, social_optimum_nonatomic, solve_equilibrium


def _emit_or_print(data: dict, out: str | None) -> None:
    if out:
        dump_json(data, out)
    else:
        json.dump(data, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        spec = SweepSpec.from_dict(json.load(fh))
    if args.budget is not None:
        spec = SweepSpec.from_dict({**spec.to_dict(), "budget": args.budget})
    series = run_sweep(spec, threads=args.threads)
    manifest = emit_data(series, args.out, spec=spec)
    print(manifest)
    return 0


def _cmd_counterexamples(args) -> int:
    summary = run_counterexamples(budget=args.budget)
    if args.out:
        for spec in (ATOMIC_COUNTEREXAMPLE, NONATOMIC_COUNTEREXAMPLE):
            emit_data(run_sweep(spec), args.out, spec=spec)
    atomic_ok = summary["atomic"]["multiple_equilibria"]
    nonatomic_ok = summary["nonatomic"]["cost_dependent"]
    configs = summary["atomic"]["equilibria"]
    print(f"atomic: {len(configs)} distinct equilibrium configurations "
          f"(several -> equilibrium selection matters): {'ok' if atomic_ok else 'FAILED'}")
    for config in configs:
        print(f"  occupancy {config.occupancy}  starts {config.start_counts}")
    print(f"atomic efficiency: {summary['atomic']['report'].value:.6f}")
    spread = summary["nonatomic"]["mass_spread"]
    print(f"nonatomic: equilibrium moves with the cost curve "
          f"(max start-mass shift {spread:.4f}): {'ok' if nonatomic_ok else 'FAILED'}")
    for label, support in summary["nonatomic"]["supports"].items():
        eq = summary["nonatomic"]["equilibria"][label]
        mass = eq.profile.start_mass()
        head = ", ".join(f"slot {t}: {mass[t - 1]:.4f}" for t in support)
        print(f"  {label}: support {support} ({head})")
    return 0 if (atomic_ok and nonatomic_ok) else 1


def _config_dict(config) -> dict:
    return {"start_counts": list(config.start_counts), "occupancy": list(config.occupancy)}


def _cmd_solve_atomic(args) -> int:
    instance, cost = load_instance(args.instance)
    if not isinstance(instance, AtomicInstance):
        print("solve-atomic expects an instance with a 'players' list", file=sys.stderr)
        return 2
    cost = cost if cost is not None else Monomial(1, 2)
    report = efficiency(instance, cost, budget=args.budget)
    eq_set = report.equilibria
    data = {
        "equilibria": [_config_dict(c) for c in eq_set.equilibria],
        "equilibrium_costs": [float(c) for c in eq_set.costs],
        "complete": eq_set.complete,
        "examined": eq_set.examined,
        "space_size": eq_set.space_size,
        "method": eq_set.method,
        "optimum": _config_dict(report.optimum),
        "optimum_cost": float(report.optimum_cost),
        "worst_equilibrium_cost": float(report.worst_cost),
        "efficiency": report.value,
        "efficiency_exact": str(report.exact) if report.exact is not None else None,
    }
    _emit_or_print(data, args.out)
    return 0


def _cmd_solve_nonatomic(args) -> int:
    from .model import grid_total_cost

    instance, cost = load_instance(args.instance)
    if isinstance(instance, AtomicInstance):
        print("solve-nonatomic expects an instance with a 'classes' list", file=sys.stderr)
        return 2
    cost = cost if cost is not None else Monomial(1, 2)
    eq = solve_equilibrium(instance, cost, tol=args.tol, budget=args.budget)
    data = {
        "start_mass": [float(v) for v in eq.profile.start_mass()],
        "occupancy_mass": [float(v) for v in eq.profile.occupancy_mass()],
        "distributions": [list(row) for row in eq.profile.distributions],
        "wardrop_gap": eq.wardrop_gap,
        "potential": eq.potential_value,
        "total_cost": float(grid_total_cost(instance, cost, eq.profile)),
        "iterations": eq.iterations,
        "cost_evaluations": eq.cost_evaluations,
    }
    if cost.satisfies_a2:
        opt_profile, opt_cost = social_optimum_nonatomic(
            instance, cost, tol=args.tol, budget=args.budget
        )
        data["optimum_mass"] = [float(v) for v in opt_profile.start_mass()]
        data["optimum_cost"] = float(opt_cost)
        data["efficiency"] = data["total_cost"] / float(opt_cost)
    _emit_or_print(data, args.out)
    return 0


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chargegame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out_dir=False):
        p.add_argument("--budget", type=_positive_int, default=None, help="search/evaluation budget cap")
        if needs_out_dir:
            p.add_argument("--out", required=True, help="output directory for .dat files")
        else:
            p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("sweep", help="run a sweep spec and emit data files")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--threads", type=_positive_int, default=1, help="grid points run at once")
    common(p, needs_out_dir=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("counterexamples", help="reproduce the bundled counter-examples")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--out", default=None, help="also emit .dat files into this directory")
    p.set_defaults(func=_cmd_counterexamples)

    p = sub.add_parser("solve-atomic", help="equilibria and efficiency of a finite instance")
    p.add_argument("instance", help="instance JSON file (with a 'players' list)")
    common(p)
    p.set_defaults(func=_cmd_solve_atomic)

    p = sub.add_parser("solve-nonatomic", help="Wardrop equilibrium of a continuum instance")
    p.add_argument("instance", help="instance JSON file (with a 'classes' list)")
    p.add_argument("--tol", type=float, default=1e-9, help="Wardrop gap tolerance")
    common(p)
    p.set_defaults(func=_cmd_solve_nonatomic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, ConvergenceError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
