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
from dataclasses import replace

from .atomic import BUDGET_ENV_VAR, BudgetExceededError, efficiency, resolve_budget
from .experiments import SweepSpec, emit_data, run_counterexamples, run_sweep
from .fileio import cost_label, dump_json, instance_from_dict
from .model import AtomicInstance, Monomial, grid_total_cost
from .nonatomic import ConvergenceError, _social_optimum, check_tol, solve_equilibrium


class _BadInput(Exception):
    """An input file that cannot be read; ``main`` prints it and exits 2."""


def _read(path: str, parse):
    """``parse`` applied to the JSON file at ``path``, or ``_BadInput``
    carrying ``<path>: <message>``."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError) as err:
        raise _BadInput(f"{path}: {err}") from None


def _emit_or_print(data: dict, args, stats: dict) -> None:
    """Write ``data`` to ``--out`` or stdout; with ``--stats``, ``stats``
    goes to stderr as one JSON line."""
    if args.out:
        dump_json(data, args.out)
    else:
        json.dump(data, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    if args.stats:
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)


def _cmd_sweep(args) -> int:
    spec = _read(args.spec, SweepSpec.from_dict)
    if args.budget is not None:
        spec = replace(spec, budget=args.budget)
    series = run_sweep(spec, threads=args.threads)
    manifest = emit_data(series, args.out, spec=spec)
    print(manifest)
    return 0


def _cmd_counterexamples(args) -> int:
    summary = run_counterexamples(budget=args.budget)
    atomic, nonatomic = summary["atomic"], summary["nonatomic"]
    if args.out:
        for side in (atomic, nonatomic):
            emit_data(side["series"], args.out, spec=side["spec"])
    atomic_ok = atomic["multiple_equilibria"]
    nonatomic_ok = nonatomic["cost_dependent"]
    print(f"atomic: {len(atomic['equilibria'])} distinct equilibrium configurations "
          f"(several -> equilibrium selection matters): {'ok' if atomic_ok else 'FAILED'}")
    for s in atomic["equilibria"]:
        starts = tuple(int(v) for v in dict(s.meta)["start_counts"].split(","))
        print(f"  occupancy {tuple(int(v) for v in s.y)}  starts {starts}")
    print(f"atomic efficiency: {atomic['efficiency']:.6f}")
    print(f"nonatomic: equilibrium moves with the cost curve "
          f"(max start-mass shift {nonatomic['mass_spread']:.4f}): {'ok' if nonatomic_ok else 'FAILED'}")
    for s in nonatomic["series"]:
        support = nonatomic["supports"][s.label]
        head = ", ".join(f"slot {t}: {s.y[t - 1]:.4f}" for t in support)
        print(f"  {s.label}: support {support} ({head})")
    return 0 if (atomic_ok and nonatomic_ok) else 1


def _config_dict(config) -> dict:
    return {"start_counts": list(config.start_counts), "occupancy": list(config.occupancy)}


def _cmd_solve_atomic(args) -> int:
    instance, cost = _read(args.instance, instance_from_dict)
    if not isinstance(instance, AtomicInstance):
        raise _BadInput(f"{args.instance}: solve-atomic expects an instance with a 'players' list")
    cost = cost if cost is not None else Monomial(1, 2)
    report = efficiency(instance, cost, budget=args.budget)
    eq_set = report.equilibria
    data = {
        "equilibria": [_config_dict(c) for c in eq_set.equilibria],
        "equilibrium_costs": [float(c) for c in eq_set.costs],
        "complete": eq_set.complete,
        "examined": eq_set.examined,
        "space_size": eq_set.space_size,
        "optimum": _config_dict(report.optimum),
        "optimum_cost": float(report.optimum_cost),
        "worst_equilibrium_cost": float(report.worst_cost),
        "efficiency": report.value,
        "efficiency_exact": str(report.exact),
    }
    _emit_or_print(data, args, eq_set.stats)
    return 0


def _cmd_solve_nonatomic(args) -> int:
    instance, cost = _read(args.instance, instance_from_dict)
    if isinstance(instance, AtomicInstance):
        raise _BadInput(f"{args.instance}: solve-nonatomic expects an instance with a 'classes' list")
    cost = cost if cost is not None else Monomial(1, 2)
    if not cost.satisfies_a1:
        raise _BadInput(f"{args.instance}: solve-nonatomic needs a strictly increasing cost (A1), got {cost_label(cost)}")
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
    stats = eq.stats
    if cost.satisfies_a2:
        opt = _social_optimum(instance, cost, args.tol, args.budget)
        opt_cost = float(grid_total_cost(instance, cost, opt.profile))
        data["optimum_mass"] = [float(v) for v in opt.profile.start_mass()]
        data["optimum_cost"] = opt_cost
        data["efficiency"] = data["total_cost"] / opt_cost
        stats = {**stats, "optimum": opt.stats}
    _emit_or_print(data, args, stats)
    return 0


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _tol(text: str) -> float:
    try:
        return check_tol(float(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chargegame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out_dir=False):
        p.add_argument("--budget", type=_positive_int, default=None, help="search/evaluation budget cap")
        if needs_out_dir:
            p.add_argument("--out", required=True, help="output directory for .dat files")
        else:
            p.add_argument("--out", default=None, help="write JSON here instead of stdout")
            p.add_argument("--stats", action="store_true",
                           help="print the solver's counters and phase times to stderr as one JSON line")

    p = sub.add_parser("sweep", help="run a sweep spec and emit data files")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="workers sharing the grid points: this process and forked children (at most one per CPU)")
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
    p.add_argument("--tol", type=_tol, default=1e-9, help="Wardrop gap tolerance")
    common(p)
    p.set_defaults(func=_cmd_solve_nonatomic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_budget(None)  # refuse a bad environment budget before any work
    except ValueError as err:
        print(f"{BUDGET_ENV_VAR}: {err}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _BadInput as err:
        print(err, file=sys.stderr)
        return 2
    except (BudgetExceededError, ConvergenceError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
