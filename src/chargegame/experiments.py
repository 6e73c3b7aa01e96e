"""Parameter sweeps, bundled counter-examples and deterministic data files.

Every sweep produces ``DataSeries`` records; ``emit_data`` serializes them as
two-column text files named ``<sweep>_<seriesLabel>.dat`` (17 significant
digits) next to a ``<sweep>_manifest.json`` listing the files with their
SHA-256 hashes.  Output depends only on the spec, never on thread count or
wall clock, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
from concurrent import futures
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .atomic import efficiency, ne_proportion, resolve_budget
from .fileio import cost_from_dict, cost_label, cost_to_dict, dump_json
from .model import (
    AtomicInstance,
    GridCostFunction,
    Monomial,
    NonatomicInstance,
    SquareRoot,
)
from .nonatomic import SUPPORT_THRESHOLD, check_tol, solve_equilibrium

# kind: the grid fields it reads, each with the number of values it must
# hold (None: at least one)
SWEEP_KINDS = {
    "ne-proportion": {"I_values": None, "C_values": None},
    "efficiency-vs-I": {"I_values": None, "C_values": None},
    "efficiency-vs-C": {"I_values": None, "C_values": None},
    "efficiency-vs-power": {"I_values": 1, "C_values": None, "exponents": None},
    "nonatomic-counterexample": {"C_values": 1, "costs": None},
    "atomic-counterexample": {"I_values": 1, "C_values": 1},
}


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep (see ``SWEEP_KINDS``).

    ``I_values``/``C_values``/``exponents`` select the grid; which of them is
    the x axis and which spawns one series per value depends on the kind:

    ne-proportion, efficiency-vs-I   x = player count, one series per C
    efficiency-vs-C                  x = duration, one series per I
    efficiency-vs-power              x = cost exponent, one series per C
                                     (exactly one player count)
    nonatomic-counterexample         x = slot, one series per cost in ``costs``
                                     (exactly one duration)
    atomic-counterexample            x = slot, one series per equilibrium
                                     (exactly one player count and duration)

    Every rule is checked when the spec is built, down to building each
    instance and grid cost the sweep will solve, so ``run_sweep`` never
    refuses a spec midway.
    """

    kind: str
    label: str
    T: int
    power: float = 1
    exogenous: Optional[tuple] = None
    departure: Optional[int] = None
    cost: GridCostFunction = Monomial(1, 2)
    I_values: tuple = ()
    C_values: tuple = ()
    exponents: tuple = ()
    costs: tuple = ()
    tol: float = 1e-9
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; pick one of {tuple(SWEEP_KINDS)}")
        if not (isinstance(self.label, str) and self.label) or set(self.label) & set("/\\"):
            raise ValueError(f"label must be a non-empty name without / or \\, got {self.label!r}")
        for name in ("exogenous", "I_values", "C_values", "exponents", "costs"):
            values = getattr(self, name)
            if values is None and name == "exogenous":
                continue
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        for name, count in SWEEP_KINDS[self.kind].items():
            n = len(getattr(self, name))
            if n == 0 if count is None else n != count:
                need = "exactly one value" if count else "at least one value"
                raise ValueError(f"{self.kind} sweeps need {need} in {name}, got {n}")
        check_tol(self.tol)
        if self.budget is not None:
            resolve_budget(self.budget)  # the scans' rule: at least 1
        # build every grid cost and instance the sweep will solve, so that a
        # grid point that cannot exist is refused here rather than midway
        for k in self.exponents:
            _power_cost(self, k)
        if self.kind == "nonatomic-counterexample":
            _nonatomic_instance(self, self.C_values[0])
        else:
            for I in self.I_values:
                for C in self.C_values:
                    _atomic_instance(self, I, C)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown sweep spec keys {unknown}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ValueError(f"sweep spec is missing {', '.join(map(repr, missing))}")
        data = dict(data)
        if "cost" in data:
            data["cost"] = cost_from_dict(data["cost"])
        if isinstance(data.get("costs"), list):  # anything else is refused by the constructor
            data["costs"] = [cost_from_dict(c) for c in data["costs"]]
        return cls(**data)

    def to_dict(self) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or value == ():
                continue
            if f.name == "cost":
                value = cost_to_dict(value)
            elif f.name == "costs":
                value = [cost_to_dict(c) for c in value]
            elif isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data


@dataclass(frozen=True)
class DataSeries:
    """One plottable column pair plus free-form string metadata."""

    sweep: str
    label: str
    x: tuple
    y: tuple
    meta: tuple = ()

    @property
    def filename(self) -> str:
        return f"{self.sweep}_{self.label}.dat"


def _run_jobs(jobs, threads: int):
    # jobs: list of zero-argument callables; results in submission order
    if threads <= 1:
        return [job() for job in jobs]
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda job: job(), jobs))


def _atomic_instance(spec: SweepSpec, I: int, C: int) -> AtomicInstance:
    return AtomicInstance.symmetric(
        spec.T, I, C, power=spec.power, exogenous=spec.exogenous, departure=spec.departure
    )


def _nonatomic_instance(spec: SweepSpec, C: int) -> NonatomicInstance:
    return NonatomicInstance.symmetric(
        spec.T, C, power=spec.power, exogenous=spec.exogenous, departure=spec.departure
    )


def _power_cost(spec: SweepSpec, k) -> Monomial:
    # an efficiency-vs-power grid cost: the spec cost's coefficient, exponent k
    coeff = spec.cost.coefficient if isinstance(spec.cost, Monomial) else 1
    return Monomial(coeff, k)


def _atomic_point(spec: SweepSpec, I: int, C: int, cost: GridCostFunction):
    instance = _atomic_instance(spec, I, C)
    if spec.kind == "ne-proportion":
        return ne_proportion(instance, cost, budget=spec.budget)
    return efficiency(instance, cost, budget=spec.budget).value


def run_sweep(spec: SweepSpec, threads: int = 1) -> tuple[DataSeries, ...]:
    """Evaluate a sweep; one thread per grid point at most."""
    by_C = (spec.I_values, "C", spec.C_values, lambda C, I: _atomic_point(spec, I, C, spec.cost), ())
    grids = {
        # kind: (x values, series prefix, series values, point(series value, x), meta)
        "ne-proportion": by_C,
        "efficiency-vs-I": by_C,
        "efficiency-vs-C": (
            spec.C_values, "I", spec.I_values, lambda I, C: _atomic_point(spec, I, C, spec.cost), ()
        ),
        "efficiency-vs-power": (
            spec.exponents,
            "C",
            spec.C_values,
            lambda C, k: _atomic_point(spec, spec.I_values[0], C, _power_cost(spec, k)),
            tuple(("I", str(I)) for I in spec.I_values),
        ),
    }
    if spec.kind in grids:
        xs, prefix, keys, point, meta = grids[spec.kind]
        jobs = [(lambda key=key, x=x: point(key, x)) for key in keys for x in xs]
        values = _run_jobs(jobs, threads)
        n = len(xs)
        return tuple(
            DataSeries(spec.label, f"{prefix}{key}", xs, tuple(values[j * n : (j + 1) * n]), meta)
            for j, key in enumerate(keys)
        )

    slots = tuple(range(1, spec.T + 1))
    if spec.kind == "nonatomic-counterexample":
        instance = _nonatomic_instance(spec, spec.C_values[0])
        jobs = [
            (lambda c=c: solve_equilibrium(instance, c, tol=spec.tol, budget=spec.budget))
            for c in spec.costs
        ]
        return tuple(
            DataSeries(
                spec.label,
                cost_label(c),
                slots,
                tuple(float(v) for v in eq.profile.start_mass()),
                meta=(("wardrop_gap", f"{eq.wardrop_gap:.3e}"),),
            )
            for c, eq in zip(spec.costs, _run_jobs(jobs, threads))
        )

    # atomic-counterexample
    instance = _atomic_instance(spec, spec.I_values[0], spec.C_values[0])
    report = efficiency(instance, spec.cost, budget=spec.budget)
    series = [
        DataSeries(
            spec.label,
            f"ne{j}",
            slots,
            tuple(float(v) for v in config.occupancy),
            meta=(("start_counts", ",".join(map(str, config.start_counts))),),
        )
        for j, config in enumerate(report.equilibria.equilibria, start=1)
    ]
    series.append(
        DataSeries(
            spec.label,
            "optimum",
            slots,
            tuple(float(v) for v in report.optimum.occupancy),
            meta=(("efficiency", format(report.value, ".17g")),),
        )
    )
    return tuple(series)


# ---------------------------------------------------------------------------
# bundled counter-examples
# ---------------------------------------------------------------------------

# three users, duration two, in a six-slot valley-shaped exogenous load:
# small enough to enumerate by hand, rich enough to carry several equilibria
ATOMIC_COUNTEREXAMPLE = SweepSpec(
    kind="atomic-counterexample",
    label="atomic-counterexample",
    T=6,
    exogenous=(1, 2, 3, 2, 1, 3),
    cost=Monomial(1, 2),
    I_values=(3,),
    C_values=(2,),
)

# a continuum on an 11-slot horizon, duration 5, users gone after slot 10
# (start slots 1..6): the equilibrium support stays {1, 6} but the split
# between the two starts moves with the cost curve, so no cost-independent
# equilibrium exists for this exogenous load
NONATOMIC_COUNTEREXAMPLE = SweepSpec(
    kind="nonatomic-counterexample",
    label="nonatomic-counterexample",
    T=11,
    exogenous=(0.1, 0.2, 0.3, 0.4, 0.5, 0.2, 0.2, 0.3, 0.2, 0.1, 0.2),
    departure=10,
    C_values=(5,),
    costs=(SquareRoot(), Monomial(1, 8)),
)


def run_counterexamples(budget: Optional[int] = None):
    """Re-derive both bundled counter-examples through ``run_sweep``; returns
    a summary dict whose two sides carry the ``spec`` solved and the
    ``series`` it gave, ready for ``emit_data``.

    atomic: the equilibrium set has several distinct configurations, so
    "which equilibrium" matters (their total costs differ).
    nonatomic: the equilibrium start mass changes with the cost function,
    so no cost-independent equilibrium exists for that exogenous load.
    """
    atomic_spec = replace(ATOMIC_COUNTEREXAMPLE, budget=budget)
    atomic = run_sweep(atomic_spec)
    *equilibria, optimum = atomic
    atomic_summary = {
        "spec": atomic_spec,
        "series": atomic,
        "equilibria": tuple(equilibria),
        "multiple_equilibria": len(equilibria) >= 2,
        "efficiency": float(dict(optimum.meta)["efficiency"]),
    }

    nonatomic_spec = replace(NONATOMIC_COUNTEREXAMPLE, budget=budget)
    nonatomic = run_sweep(nonatomic_spec)
    masses = [np.array(s.y) for s in nonatomic]
    pairs = [(m1, m2) for i, m1 in enumerate(masses) for m2 in masses[i + 1 :]]
    first_component = max(abs(float(m1[0] - m2[0])) for m1, m2 in pairs)
    nonatomic_summary = {
        "spec": nonatomic_spec,
        "series": nonatomic,
        "supports": {
            s.label: tuple(int(t) for t in np.flatnonzero(m > SUPPORT_THRESHOLD) + 1)
            for s, m in zip(nonatomic, masses)
        },
        "cost_dependent": first_component >= 0.01,
        "first_component_difference": first_component,
        "mass_spread": max(float(np.max(np.abs(m1 - m2))) for m1, m2 in pairs),
    }
    return {"atomic": atomic_summary, "nonatomic": nonatomic_summary}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return format(v, ".17g")


def emit_data(series, out_dir, spec: Optional[SweepSpec] = None) -> Path:
    """Write ``.dat`` files plus the manifest; returns the manifest path.

    Reruns are byte-identical: content depends only on the series values, and
    the manifest carries no timestamps.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = list(series)
    if not series:
        raise ValueError("nothing to emit")
    sweeps = {s.sweep for s in series}
    if len(sweeps) != 1:
        raise ValueError(f"emit_data expects a single sweep, got {sorted(sweeps)}")
    files = {}
    for s in series:
        lines = [f"{_fmt(xv)} {_fmt(yv)}" for xv, yv in zip(s.x, s.y)]
        content = "\n".join(lines) + "\n"
        path = out / s.filename
        path.write_text(content)
        files[s.filename] = {
            "sha256": hashlib.sha256(content.encode()).hexdigest(),
            "rows": len(lines),
            "meta": {k: v for k, v in s.meta},
        }
    manifest = {
        "sweep": series[0].sweep,
        "series": [s.label for s in series],
        "files": files,
        "spec": spec.to_dict() if spec is not None else None,
    }
    manifest_path = out / f"{series[0].sweep}_manifest.json"
    dump_json(manifest, manifest_path)
    return manifest_path
