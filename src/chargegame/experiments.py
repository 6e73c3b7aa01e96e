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
from dataclasses import MISSING, dataclass, fields
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
    TimeHorizon,
)
from .nonatomic import solve_equilibrium

SWEEP_KINDS = (
    "ne-proportion",
    "efficiency-vs-I",
    "efficiency-vs-C",
    "efficiency-vs-power",
    "nonatomic-counterexample",
    "atomic-counterexample",
)


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
    atomic-counterexample            x = slot, one series per equilibrium
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
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; pick one of {SWEEP_KINDS}")
        for name in ("I_values", "C_values", "exponents", "costs"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        if self.exogenous is not None:
            object.__setattr__(self, "exogenous", tuple(self.exogenous))
        if self.budget is not None:
            resolve_budget(self.budget)  # the scans' rule: at least 1
        # build every instance the sweep will solve, so that a grid point
        # that cannot exist is refused here rather than midway through it
        TimeHorizon(self.T)
        if self.kind == "nonatomic-counterexample":
            for C in self.C_values:
                _nonatomic_instance(self, C)
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
        if "costs" in data:
            data["costs"] = tuple(cost_from_dict(c) for c in data["costs"])
        return cls(**data)

    def to_dict(self) -> dict:
        data = {
            "kind": self.kind,
            "label": self.label,
            "T": self.T,
            "power": self.power,
            "cost": cost_to_dict(self.cost),
            "tol": self.tol,
        }
        if self.exogenous is not None:
            data["exogenous"] = list(self.exogenous)
        if self.departure is not None:
            data["departure"] = self.departure
        for name in ("I_values", "C_values", "exponents"):
            if getattr(self, name):
                data[name] = list(getattr(self, name))
        if self.costs:
            data["costs"] = [cost_to_dict(c) for c in self.costs]
        if self.budget is not None:
            data["budget"] = self.budget
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


def _atomic_point(spec: SweepSpec, I: int, C: int, cost: GridCostFunction):
    instance = _atomic_instance(spec, I, C)
    if spec.kind == "ne-proportion":
        return ne_proportion(instance, cost, budget=spec.budget)
    return efficiency(instance, cost, budget=spec.budget).value


def run_sweep(spec: SweepSpec, threads: int = 1) -> tuple[DataSeries, ...]:
    """Evaluate a sweep; one thread per grid point at most."""
    if spec.kind == "efficiency-vs-power" and len(spec.I_values) != 1:
        raise ValueError("efficiency-vs-power sweeps need exactly one player count")
    coeff = spec.cost.coefficient if isinstance(spec.cost, Monomial) else 1
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
            lambda C, k: _atomic_point(spec, spec.I_values[0], C, Monomial(coeff, k)),
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

    if spec.kind == "nonatomic-counterexample":
        if len(spec.C_values) != 1 or not spec.costs:
            raise ValueError(
                "nonatomic-counterexample sweeps need exactly one duration and a costs list"
            )
        instance = _nonatomic_instance(spec, spec.C_values[0])
        jobs = [
            (lambda c=c: solve_equilibrium(instance, c, tol=spec.tol, budget=spec.budget))
            for c in spec.costs
        ]
        results = _run_jobs(jobs, threads)
        slots = tuple(range(1, spec.T + 1))
        series = []
        for c, eq in zip(spec.costs, results):
            mass = tuple(float(v) for v in eq.profile.start_mass())
            series.append(
                DataSeries(
                    spec.label,
                    cost_label(c),
                    slots,
                    mass,
                    meta=(("wardrop_gap", f"{eq.wardrop_gap:.3e}"),),
                )
            )
        return tuple(series)

    # atomic-counterexample
    if len(spec.I_values) != 1 or len(spec.C_values) != 1:
        raise ValueError("atomic-counterexample sweeps need a single I and a single C")
    instance = _atomic_instance(spec, spec.I_values[0], spec.C_values[0])
    report = efficiency(instance, spec.cost, budget=spec.budget)
    slots = tuple(range(1, spec.T + 1))
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


def run_counterexamples(tol: float = 1e-9, budget: Optional[int] = None):
    """Re-derive both bundled counter-examples; returns a summary dict.

    atomic: the equilibrium set has several distinct configurations, so
    "which equilibrium" matters (their total costs differ).
    nonatomic: the equilibrium start mass changes with the cost function,
    so no cost-independent equilibrium exists for that exogenous load.
    """
    spec_a = ATOMIC_COUNTEREXAMPLE
    instance_a = AtomicInstance.symmetric(
        spec_a.T, spec_a.I_values[0], spec_a.C_values[0], exogenous=spec_a.exogenous
    )
    report = efficiency(instance_a, spec_a.cost, budget=budget)
    atomic_summary = {
        "report": report,
        "equilibria": report.equilibria.equilibria,
        "multiple_equilibria": len(report.equilibria.equilibria) >= 2,
    }

    spec_n = NONATOMIC_COUNTEREXAMPLE
    instance_n = NonatomicInstance.symmetric(
        spec_n.T, spec_n.C_values[0], exogenous=spec_n.exogenous, departure=spec_n.departure
    )
    per_cost = {}
    masses = []
    for c in spec_n.costs:
        eq = solve_equilibrium(instance_n, c, tol=tol, budget=budget)
        per_cost[cost_label(c)] = eq
        masses.append(eq.profile.start_mass())
    spread = max(
        float(np.max(np.abs(m1 - m2))) for i, m1 in enumerate(masses) for m2 in masses[i + 1 :]
    )
    first_component = max(
        abs(float(m1[0] - m2[0])) for i, m1 in enumerate(masses) for m2 in masses[i + 1 :]
    )
    nonatomic_summary = {
        "equilibria": per_cost,
        "supports": {
            label: tuple(int(t) for t in np.flatnonzero(eq.profile.start_mass() > 1e-8) + 1)
            for label, eq in per_cost.items()
        },
        "cost_dependent": first_component >= 0.01,
        "first_component_difference": first_component,
        "mass_spread": spread,
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
