"""End-to-end acceptance checks for the headline behaviors.

One test per claim, each printing a single PASS/FAIL line with the pinned
numbers and tolerances: the two bundled counter-examples, cost-independent
equilibria and their efficiency consequence, the ordinal-potential property
and convergent dynamics, the efficiency trends over the standard T=10 grid,
the full-horizon boundary, and byte-identical reruns.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from chargegame import (
    AtomicInstance,
    Monomial,
    NonatomicInstance,
    PricingMap,
    SquareRoot,
    StrategyProfile,
    action_set,
    best_response_dynamics,
    check_invariance_condition,
    efficiency,
    efficiency_nonatomic,
    enumerate_equilibria,
    is_nash,
    potential_atomic,
    solve_equilibrium,
    solve_symmetric_invariant,
    utility_atomic,
    wardrop_gap,
)
from chargegame.experiments import (
    ATOMIC_COUNTEREXAMPLE,
    NONATOMIC_COUNTEREXAMPLE,
    SweepSpec,
    emit_data,
    run_sweep,
)


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def test_continuum_counterexample_equilibrium_moves_with_cost():
    # T=11, C=5, users gone after slot 10: the equilibrium keeps support
    # {1, 6} but its split depends on the cost curve.
    spec = NONATOMIC_COUNTEREXAMPLE
    instance = NonatomicInstance.symmetric(
        spec.T, spec.C_values[0], exogenous=spec.exogenous, departure=spec.departure
    )
    t0 = time.perf_counter()
    first = {}
    supports = {}
    for cost, label in ((SquareRoot(), "sqrt"), (Monomial(1, 8), "L8")):
        eq = solve_equilibrium(instance, cost)
        mass = eq.profile.start_mass()
        supports[label] = tuple(int(t) for t in np.flatnonzero(mass > 1e-8) + 1)
        first[label] = float(mass[0])
    elapsed = time.perf_counter() - t0
    ok = (
        supports["sqrt"] == (1, 6)
        and supports["L8"] == (1, 6)
        and abs(first["sqrt"] - 0.45) <= 0.01
        and abs(first["L8"] - 0.42) <= 0.01
        and elapsed < 10.0
    )
    assert _verdict(
        "continuum counter-example",
        ok,
        f"slot-1 mass {first['sqrt']:.6f} (sqrt, want 0.45 +/- 0.01) and "
        f"{first['L8']:.6f} (L8, want 0.42 +/- 0.01), support {supports['sqrt']} and "
        f"{supports['L8']} (want (1, 6)), {elapsed:.2f} s (< 10 s)",
    )


def test_constant_load_equilibrium_invariant_across_costs():
    # constant exogenous load: equilibria under sqrt, square and eighth power
    # agree in occupancy, and all sit on the closed-form linear solution
    costs = (SquareRoot(), Monomial(1, 2), Monomial(1, 8))
    worst_pair = 0.0
    worst_gap = 0.0
    for C in (3, 5):
        instance = NonatomicInstance.symmetric(10, C, exogenous=(1.0,) * 10)
        occupancies = []
        for cost in costs:
            eq = solve_equilibrium(instance, cost)
            occupancies.append(np.asarray(eq.profile.occupancy_mass(), dtype=float))
        for a, b in itertools.combinations(occupancies, 2):
            worst_pair = max(worst_pair, float(np.max(np.abs(a - b))))
        invariant, _ = solve_symmetric_invariant(instance)
        for cost in costs:
            worst_gap = max(worst_gap, wardrop_gap(instance, cost, invariant))
    ok = worst_pair <= 1e-6 and worst_gap <= 1e-7
    assert _verdict(
        "constant-load invariance",
        ok,
        f"max occupancy spread {worst_pair:.2e} (<= 1e-6), "
        f"linear-solution equilibrium gap {worst_gap:.2e} (<= 1e-7)",
    )


def test_efficiency_is_one_when_invariance_condition_holds():
    # 20 seeded convex nondecreasing loads passing the sufficient condition:
    # the equilibrium is also socially optimal, under both L^2 and L^4
    rng = np.random.default_rng(20260814)

    def euclid_q(T, C):
        return (T - C + 1) // C

    pairs = [
        (T, C)
        for T in range(8, 13)
        for C in range(2, 6)
        if euclid_q(T, C) >= 1 and T - 1 - euclid_q(T, C) * C >= 1
    ]
    worst = 0.0
    for _ in range(20):
        T, C = pairs[rng.integers(len(pairs))]
        base = rng.uniform(0.05, 0.25)
        first = rng.uniform(0.0, 0.01)
        curvature = rng.uniform(0.0, 0.004, size=T - 2)
        diffs = first + np.concatenate(([0.0], np.cumsum(curvature)))
        exo = base + np.concatenate(([0.0], np.cumsum(diffs)))
        instance = NonatomicInstance.symmetric(
            T, C, exogenous=tuple(float(v) for v in exo)
        )
        assert check_invariance_condition(instance)
        for cost in (Monomial(1, 2), Monomial(1, 4)):
            worst = max(worst, abs(efficiency_nonatomic(instance, cost).value - 1.0))
    ok = worst <= 1e-6
    assert _verdict(
        "efficiency one under invariance",
        ok,
        f"20 instances, worst |efficiency - 1| = {worst:.2e} (<= 1e-6)",
    )


def test_finite_counterexample_has_multiple_equilibria():
    spec = ATOMIC_COUNTEREXAMPLE
    instance = AtomicInstance.symmetric(
        spec.T, spec.I_values[0], spec.C_values[0], exogenous=spec.exogenous
    )
    t0 = time.perf_counter()
    eq_set = enumerate_equilibria(instance, spec.cost)
    elapsed = time.perf_counter() - t0
    distinct = len(set(c.occupancy for c in eq_set.equilibria))
    ok = eq_set.complete and distinct >= 2 and elapsed < 1.0
    assert _verdict(
        "finite counter-example multiplicity",
        ok,
        f"{distinct} distinct equilibrium configurations (>= 2), "
        f"complete scan, {elapsed * 1000:.0f} ms (< 1 s)",
    )


def test_potential_change_tracks_utility_change():
    # exhaustive structure (T 2..8, C 1..3, I 1..4), seeded integer loads and
    # windows; every sampled profile gets a full one-player deviation scan in
    # exact integer arithmetic
    double = PricingMap(lambda x: 2 * x, "double")
    cost = Monomial(1, 2)
    rng = random.Random(5081)
    deviations = 0
    for T in range(2, 9):
        for C in range(1, min(3, T) + 1):
            for I in range(1, 5):
                exos = [(0,) * T, tuple(rng.randrange(6) for _ in range(T))]
                windows = [None]
                if T >= 4:
                    players = []
                    for _ in range(I):
                        c = rng.randrange(1, C + 1)
                        a = rng.randrange(1, T - c + 2)
                        d = rng.randrange(a + c - 1, T + 1)
                        players.append((a, d, c))
                    windows.append(players)
                for exo in exos:
                    for players in windows:
                        if players is None:
                            instance = AtomicInstance.symmetric(T, I, C, exogenous=exo)
                        else:
                            instance = AtomicInstance.create(T, players, exogenous=exo)
                        acts = [list(action_set(instance, i)) for i in range(instance.I)]
                        space = 1
                        for a in acts:
                            space *= len(a)
                        if space <= 512:
                            profiles = list(itertools.product(*acts))
                        else:
                            profiles = [
                                tuple(rng.choice(a) for a in acts) for _ in range(60)
                            ]
                        for starts in profiles:
                            prof = StrategyProfile(tuple(starts))
                            phi = potential_atomic(instance, cost, prof)
                            base = [
                                utility_atomic(instance, cost, prof, i)
                                for i in range(instance.I)
                            ]
                            priced = [
                                utility_atomic(instance, cost, prof, i, double)
                                for i in range(instance.I)
                            ]
                            for i in range(instance.I):
                                for t in acts[i]:
                                    if t == starts[i]:
                                        continue
                                    dev = StrategyProfile(
                                        tuple(starts[:i]) + (t,) + tuple(starts[i + 1 :])
                                    )
                                    dphi = potential_atomic(instance, cost, dev) - phi
                                    du = utility_atomic(instance, cost, dev, i) - base[i]
                                    dup = (
                                        utility_atomic(instance, cost, dev, i, double)
                                        - priced[i]
                                    )
                                    assert du == dphi
                                    assert _sign(dup) == _sign(dphi)
                                    deviations += 1
    assert _verdict(
        "potential tracks utility",
        True,
        f"{deviations} exact deviations, zero sign mismatches, "
        "identity pricing change equal exactly",
    )


def test_improvement_dynamics_reaches_equilibrium():
    rng = random.Random(60110)
    runs = 0
    for _ in range(20):
        T = rng.randrange(4, 11)
        C = rng.randrange(1, min(T, 5) + 1)
        I = rng.randrange(2, 7)
        exo = tuple(rng.randrange(4) for _ in range(T))
        cost = rng.choice([Monomial(1, 2), Monomial(1, 3), SquareRoot()])
        instance = AtomicInstance.symmetric(T, I, C, exogenous=exo)
        acts = [list(action_set(instance, i)) for i in range(I)]
        for _ in range(100):
            start = StrategyProfile(tuple(rng.choice(a) for a in acts))
            final, trace = best_response_dynamics(instance, cost, start)
            assert all(b > a for a, b in zip(trace, trace[1:]))
            assert is_nash(instance, cost, final)
            runs += 1
    assert _verdict(
        "improvement dynamics",
        True,
        f"{runs} runs (100 starts x 20 instances), "
        "strictly increasing potential, terminal profiles all equilibria",
    )


def _square_cost_ratio_from_definitions(T: int, I: int, C: int) -> Fraction:
    """Worst-NE/optimum of the symmetric, load-free square-cost game, in plain Python.

    Every multiset of start slots is scanned: unit loads, window costs and,
    for each occupied start, every unilateral move to another start.
    """
    slots = range(1, T - C + 2)

    def add(loads, start, step):
        out = list(loads)
        for t in range(start - 1, start - 1 + C):
            out[t] += step
        return out

    def window(loads, start):
        return sum(v * v for v in loads[start - 1 : start - 1 + C])

    worst_ne = optimum = None
    for starts in itertools.combinations_with_replacement(slots, I):
        loads = [0] * T
        for s in starts:
            loads = add(loads, s, 1)
        total = sum(v * v for v in loads)
        optimum = total if optimum is None else min(optimum, total)
        stable = all(
            window(add(add(loads, s, -1), alt, 1), alt) >= window(loads, s)
            for s in set(starts)
            for alt in slots
        )
        if stable:
            worst_ne = total if worst_ne is None else max(worst_ne, total)
    return Fraction(worst_ne, optimum)


def test_efficiency_band_and_global_decrease():
    # T=10, no exogenous load, square cost, exact ratios: every value in
    # [1, 1.25], and per duration the crowded games (I 15..20) are strictly
    # nearer one than the sparse ones (I 2..7).  Where C divides T (C=5) the
    # equilibria tile the horizon flat and the sparse maximum is already 1,
    # so "nearer one" can only mean "still one": every value for I 1..20
    # must be exactly 1, and a plain-Python scan from the definitions
    # (I 1..8) must agree.
    t0 = time.perf_counter()
    table = {}
    for C in (3, 4, 5):
        vals = []
        for I in range(1, 21):
            report = efficiency(AtomicInstance.symmetric(10, I, C), Monomial(1, 2))
            assert isinstance(report.exact, Fraction), (
                f"C={C}, I={I}: integral data gave an inexact ratio {report.value!r}"
            )
            vals.append(report.exact)
        table[C] = vals
    witness = {I: _square_cost_ratio_from_definitions(10, I, 5) for I in range(1, 9)}
    elapsed = time.perf_counter() - t0

    broken = [
        f"C={C}: band [1, 5/4] fails at I={I} ({v})"
        for C, vals in table.items()
        for I, v in enumerate(vals, start=1)
        if not 1 <= v <= Fraction(5, 4)
    ]
    in_band = not broken
    clauses = {}
    for C, vals in table.items():
        sparse, crowded = max(vals[1:7]), max(vals[14:20])
        if 10 % C:
            clauses[C] = "strictly nearer one"
            if not crowded < sparse:
                broken.append(
                    f"C={C}: strictly nearer one fails, max(I 15..20) {crowded} "
                    f"vs max(I 2..7) {sparse}"
                )
        else:
            clauses[C] = "exactly one at every I"
            off = {I: v for I, v in enumerate(vals, start=1) if v != Fraction(1)}
            if off:
                broken.append(f"C={C}: exactly one at every I fails at {off}")
    off = {I: r for I, r in witness.items() if r != Fraction(1)}
    if off:
        broken.append(f"C=5: definition witness is not exactly one at {off}")
    if elapsed >= 600.0:
        broken.append(f"time bound fails: {elapsed:.1f} s")
    detail = ", ".join(
        f"C{C} ({clauses[C]}): max(I 15..20) {float(max(vals[14:20])):.5f} vs "
        f"max(I 2..7) {float(max(vals[1:7])):.5f}"
        for C, vals in table.items()
    )
    assert _verdict(
        "efficiency band and decrease",
        not broken,
        f"all values exact, in [1, 1.25]: {in_band}; {detail}; C5 definition witness "
        f"I 1..8: {', '.join(map(str, witness.values()))}; {elapsed:.1f} s (< 600 s)",
    ), "; ".join(broken)


def test_full_horizon_duration_gives_efficiency_one():
    # C = T leaves a single start slot, so the unique configuration is both
    # the only equilibrium and the optimum
    exact = {}
    for I in range(8, 13):
        report = efficiency(AtomicInstance.symmetric(10, I, 10), Monomial(1, 2))
        exact[I] = report.exact
    ok = all(v == 1 for v in exact.values())
    assert _verdict(
        "full-horizon boundary",
        ok,
        f"C = T = 10, I in 8..12: efficiency exactly {sorted(set(exact.values()))}",
    )


def test_efficiency_not_monotone_in_cost_exponent():
    t0 = time.perf_counter()
    nonmono = {}
    for C in (3, 4, 5):
        vals = [
            efficiency(AtomicInstance.symmetric(10, 12, C), Monomial(1, k)).value
            for k in range(2, 11)
        ]
        nonmono[C] = any(b < a for a, b in zip(vals, vals[1:]))
    elapsed = time.perf_counter() - t0
    ok = any(nonmono.values())
    assert _verdict(
        "non-monotone in exponent",
        ok,
        f"I=12, exponents 2..10, decreasing step found: {nonmono}; {elapsed:.1f} s",
    )


def test_sweep_output_independent_of_thread_count(tmp_path):
    specs = [
        SweepSpec(kind="ne-proportion", label="prop", T=5, I_values=(1, 2, 3), C_values=(2, 3)),
        SweepSpec(kind="efficiency-vs-I", label="effI", T=5, I_values=(1, 2, 3), C_values=(2,)),
        SweepSpec(
            kind="efficiency-vs-C",
            label="effC",
            T=6,
            exogenous=(1, 2, 3, 2, 1, 3),
            I_values=(2, 3),
            C_values=(2, 3),
        ),
        SweepSpec(
            kind="efficiency-vs-power",
            label="effK",
            T=6,
            exogenous=(1, 2, 3, 2, 1, 3),
            I_values=(3,),
            C_values=(2,),
            exponents=(1, 2, 3),
        ),
        ATOMIC_COUNTEREXAMPLE,
        NONATOMIC_COUNTEREXAMPLE,
    ]
    files = 0
    for spec in specs:
        blobs = []
        for tag, threads in (("t1", 1), ("t2", 2), ("t4", 4), ("t4b", 4)):
            out = tmp_path / spec.label / tag
            emit_data(run_sweep(spec, threads=threads), out, spec=spec)
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3], spec.label
        files += len(blobs[0])
    assert _verdict(
        "deterministic emission",
        True,
        f"{len(specs)} sweep kinds, threads 1/2/4 plus rerun, "
        f"{files} files byte-identical",
    )
