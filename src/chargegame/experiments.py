"""Parameter sweeps, bundled counter-examples and deterministic data files.

Every sweep produces ``DataSeries`` records; ``emit_data`` serializes them as
two-column text files named ``<sweep>_<seriesLabel>.dat`` (17 significant
digits) next to a ``<sweep>_manifest.json`` listing the files with their
SHA-256 hashes.  Output depends only on the spec, never on the number of
grid points solved at once or on wall clock, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import signal
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

# efficiency and ne_proportion stay importable from here: benchmark/workloads.py traces them
from .atomic import _efficiencies, _proportions, efficiency, ne_proportion, resolve_budget  # noqa: F401
from .fileio import _fields, cost_from_dict, cost_label, cost_to_dict, dump_json
from .model import (
    AtomicInstance,
    GridCostFunction,
    Monomial,
    NonatomicInstance,
    SquareRoot,
)
from .nonatomic import SUPPORT_THRESHOLD, check_tol, solve_equilibrium

# kind: the fields it reads among cost, tol and the grid, a grid field with
# the number of values it must hold (None: at least one); every other field
# among them must keep its default
SWEEP_KINDS = {
    "ne-proportion": {"cost": None, "I_values": None, "C_values": None},
    "efficiency-vs-I": {"cost": None, "I_values": None, "C_values": None},
    "efficiency-vs-C": {"cost": None, "I_values": None, "C_values": None},
    "efficiency-vs-power": {"cost": None, "I_values": 1, "C_values": None, "exponents": None},
    "nonatomic-counterexample": {"tol": None, "C_values": 1, "costs": None},
    "atomic-counterexample": {"cost": None, "I_values": 1, "C_values": 1},
}
_GRID = ("I_values", "C_values", "exponents", "costs")


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep (see ``SWEEP_KINDS``).

    ``I_values``/``C_values``/``exponents`` select the grid; which of them is
    the x axis and which spawns one series per value depends on the kind:

    ne-proportion, efficiency-vs-I   x = player count, one series per C
    efficiency-vs-C                  x = duration, one series per I
    efficiency-vs-power              x = cost exponent, one series per C
                                     (exactly one player count; ``cost``
                                     a ``Monomial``, whose exponent varies)
    nonatomic-counterexample         x = slot, one series per cost in ``costs``
                                     (exactly one duration)
    atomic-counterexample            x = slot, one series per equilibrium
                                     (exactly one player count and duration)

    ``cost``, ``tol`` and each grid field that the kind does not read must
    keep its default (a grid field: empty), so the atomic kinds take no
    ``tol`` and ``nonatomic-counterexample`` no ``cost``.  No grid field may
    repeat a value, since each names a series or a row (two ``costs``
    repeat when their ``cost_label``s do), and each of ``costs`` must be
    strictly increasing (A1), since the nonatomic solver takes no other.
    Every rule is checked when the spec is built, down to building each
    instance and grid cost the sweep will solve, so ``run_sweep`` never
    refuses a spec midway.  ``from_dict`` reads a JSON object by the
    rule of every other input file (``fileio``): no unknown or missing key.
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
        for name in ("exogenous", *_GRID):
            values = getattr(self, name)
            if values is None and name == "exogenous":
                continue
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        reads = SWEEP_KINDS[self.kind]
        for f in fields(self):
            if f.name in ("cost", "tol", *_GRID) and f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} sweeps do not read {f.name}, so it must keep its default")
        for name in _GRID:
            count, n = reads.get(name, 0), len(getattr(self, name))  # 0: unread, so empty by now
            if n == 0 if count is None else n != count:
                need = "at least one value" if count is None else "exactly one value"
                raise ValueError(f"{self.kind} sweeps take {need} in {name}, got {n}")
        check_tol(self.tol)
        if self.budget is not None:
            resolve_budget(self.budget)  # the scans' rule: at least 1
        if self.exponents and not isinstance(self.cost, Monomial):
            raise ValueError(f"exponents vary the exponent of a monomial cost, got cost {cost_label(self.cost)}")
        # build every grid cost and instance the sweep will solve, so that a
        # grid point that cannot exist is refused here rather than midway
        for k in self.exponents:
            _power_cost(self, k)
        for c in self.costs:
            if not c.satisfies_a1:
                raise ValueError(f"costs must be strictly increasing (A1) for the nonatomic solver, got {cost_label(c)}")
        if self.kind == "nonatomic-counterexample":
            _nonatomic_instance(self, self.C_values[0])
        else:
            for I in self.I_values:
                for C in self.C_values:
                    _atomic_instance(self, I, C)
        for name in _GRID:
            keys = [cost_label(v) if name == "costs" else v for v in getattr(self, name)]
            if len(set(keys)) < len(keys):
                raise ValueError(f"{name} repeats a value: {keys}")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        required = [f.name for f in fields(cls) if f.default is MISSING]
        _fields(data, required, "sweep spec", [f.name for f in fields(cls)])
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


class WorkerError(RuntimeError):
    """A sweep worker process ended without sending its results back."""


def _deal(weights, shares: int) -> list:
    """Job indices of each of ``shares`` shares, each share in job order.

    Jobs are dealt heaviest first (equal weights in job order), each to the
    share with the least weight so far (the first of equals): Graham's
    largest-processing-time rule.
    """
    load = [0] * shares
    dealt = [[] for _ in range(shares)]
    for j in sorted(range(len(weights)), key=lambda j: -weights[j]):
        s = load.index(min(load))
        dealt[s].append(j)
        load[s] += weights[j]
    return [sorted(share) for share in dealt]


def _run_share(jobs, share, results: dict):
    # runs the jobs of `share` in order into `results`; (index, error) of
    # the first one to raise, which ends the share, else None
    for j in share:
        try:
            results[j] = jobs[j]()
        except Exception as err:
            return j, err
    return None


def _fork(jobs, share) -> tuple:
    """Fork a child that runs ``share`` and sends ``(results, failure)`` back
    pickled; returns its pid and the read end of its pipe."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    # the child leaves by os._exit whatever happens: no atexit handler runs
    # and the parent's buffered output is not written a second time
    status = 1
    try:
        os.close(read)
        results = {}
        failure = _run_share(jobs, share, results)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump((results, failure), pipe)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read: int) -> tuple:
    # a child's (results, failure): its pipe is read to the end and closed,
    # and the child reaped; a read that is interrupted kills it first
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        return pickle.loads(data)
    except Exception:
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise WorkerError(f"sweep worker {pid} ended without its results ({how})") from None


def _run_jobs(jobs, threads: int, weights=None) -> list:
    """Results of ``jobs``, zero-argument callables whose results and
    errors pickle, in order.

    The jobs are dealt by ``weights`` (default: all equal) into one share
    per worker, ``min(threads, jobs, CPUs)`` of them, counting only the CPUs
    this process may run on (see ``_deal``).  This process runs share 0
    itself, and each other share runs in one child forked from it
    (copy-on-write, so a child imports nothing), which sends its results
    back through a pipe.  A share stops at its first error, and the error of
    the lowest-index failing job is raised here, as in a serial run.  So
    once this process's own share fails, the children whose jobs all come
    after its failing one are killed unread; the others are read to the end.
    No child outlives the call.  With one worker, or where ``fork`` is
    unavailable, the jobs run here one after the other: a spawned worker
    would import numpy afresh, which takes longer than a bundled sweep.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, len(jobs), cpus)
    if workers < 2 or not hasattr(os, "fork"):
        return [job() for job in jobs]
    shares = _deal(weights or [1] * len(jobs), workers)
    children = {}  # pid: (read end of its pipe, its share), until reaped
    try:
        for share in shares[1:]:
            pid, read = _fork(jobs, share)
            children[pid] = (read, share)
        results = {}
        own = _run_share(jobs, shares[0], results)
        failures = [own] if own else []
        for pid, (read, share) in list(children.items()):
            if failures and share[0] > min(failures)[0]:
                continue  # nothing it runs can fail earlier: killed below
            del children[pid]
            done, failure = _collect(pid, read)
            results.update(done)
            if failure:
                failures.append(failure)
        if failures:
            raise min(failures)[1]
        return [results[j] for j in range(len(jobs))]
    finally:
        for pid, (read, _) in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _atomic_instance(spec: SweepSpec, I: int, C: int) -> AtomicInstance:
    return AtomicInstance.symmetric(
        spec.T, I, C, power=spec.power, exogenous=spec.exogenous, departure=spec.departure
    )


def _nonatomic_instance(spec: SweepSpec, C: int) -> NonatomicInstance:
    return NonatomicInstance.symmetric(
        spec.T, C, power=spec.power, exogenous=spec.exogenous, departure=spec.departure
    )


def _power_cost(spec: SweepSpec, k) -> Monomial:
    # an efficiency-vs-power grid cost: the spec's monomial with exponent k
    return Monomial(spec.cost.coefficient, k)


def _atomic_run(spec: SweepSpec, C: int, Is: tuple) -> list:
    # the y values of each player count of a run, from one scan: a single
    # one, or one per exponent
    family = [_atomic_instance(spec, I, C) for I in Is]
    if spec.kind == "ne-proportion":
        return [(p,) for p in _proportions(family, spec.cost, spec.budget)]
    costs = tuple(_power_cost(spec, k) for k in spec.exponents) or (spec.cost,)
    return [tuple(report.value for report in reports) for reports in _efficiencies(family, costs, spec.budget)]


def run_sweep(spec: SweepSpec, threads: int = 1) -> tuple[DataSeries, ...]:
    """Evaluate a sweep, up to ``threads`` jobs at once.

    An atomic job is a run of grid points, consecutive in the order the
    series list them, that share one duration: one scan of their player
    counts together (``atomic._scan``), and of every exponent of an
    ``efficiency-vs-power`` series (``efficiencies``).  A grid point weighs
    its configuration count C(I+A-1, A-1), A its start count, times its
    number of costs, and a run grows while it weighs no more than the
    heaviest grid point: the bundled ``equilibrium_proportion`` spec is 5
    jobs, not 36, and ``efficiency_vs_players`` 6, not 60.  A run of
    ``efficiency-vs-C`` holds one point (its neighbours differ in C), and
    so does one of ``efficiency-vs-power`` (its one I).  Each cost of a
    nonatomic counter-example is one job of weight 1.  With ``threads``
    above one, up to ``threads`` workers, at most one per CPU, share the
    jobs, dealt heaviest first: this process and forked children (see
    ``_run_jobs``).  A scan that streams one configuration of each mirror
    pair (``atomic._mirrored``) does about half that work, but the weights
    stay whole: every job of one spec shares T, the load and the departure,
    so either all of its jobs are halved or none are.  Neither the runs nor
    the result depend on ``threads``, and a refusal is the one a scan of
    each point in turn meets first.
    """
    by_C = [(I, C) for C in spec.C_values for I in spec.I_values]
    by_I = [(I, C) for I in spec.I_values for C in spec.C_values]
    grids = {
        # kind: (x values, series prefix, series values, (I, C) of each point, meta)
        "ne-proportion": (spec.I_values, "C", spec.C_values, by_C, ()),
        "efficiency-vs-I": (spec.I_values, "C", spec.C_values, by_C, ()),
        "efficiency-vs-C": (spec.C_values, "I", spec.I_values, by_I, ()),
        # one I: a point per C
        "efficiency-vs-power": (spec.exponents, "C", spec.C_values, by_I, tuple(("I", str(I)) for I in spec.I_values)),
    }
    if spec.kind in grids:
        xs, prefix, keys, points, meta = grids[spec.kind]
        last = spec.T if spec.departure is None else spec.departure  # slot the windows end in
        weight = {(I, C): math.comb(I + last - C, last - C) * (len(spec.exponents) or 1) for I, C in points}
        heaviest = max(weight.values())
        runs, weights = [], []  # (C, player counts) of each job, and its weight
        for I, C in points:
            if runs and runs[-1][0] == C and weights[-1] + weight[I, C] <= heaviest:
                runs[-1][1].append(I)
                weights[-1] += weight[I, C]
            else:
                runs.append((C, [I]))
                weights.append(weight[I, C])
        jobs = [partial(_atomic_run, spec, C, tuple(Is)) for C, Is in runs]
        found = {(I, C): y for (C, Is), ys in zip(runs, _run_jobs(jobs, threads, weights)) for I, y in zip(Is, ys)}
        # points come series by series, so the y values are series-major
        values = [y for point in points for y in found[point]]
        n = len(xs)
        return tuple(
            DataSeries(spec.label, f"{prefix}{key}", xs, tuple(values[j * n : (j + 1) * n]), meta)
            for j, key in enumerate(keys)
        )

    slots = tuple(range(1, spec.T + 1))
    if spec.kind == "nonatomic-counterexample":
        instance = _nonatomic_instance(spec, spec.C_values[0])
        jobs = [partial(solve_equilibrium, instance, c, tol=spec.tol, budget=spec.budget) for c in spec.costs]
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
