"""Tests for the continuum game: Wardrop solver, invariance, social optimum."""

import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from chargegame import (
    ConvergenceError,
    InvarianceConditionError,
    MixedProfile,
    Monomial,
    NonatomicInstance,
    PositivityCertificateError,
    SquareRoot,
    action_set,
    check_invariance_condition,
    efficiency_nonatomic,
    grid_total_cost,
    is_wardrop_equilibrium,
    load,
    potential_nonatomic,
    social_optimum_nonatomic,
    solve_equilibrium,
    solve_symmetric_invariant,
    wardrop_gap,
)
from chargegame.nonatomic import _gram_solve

COST_DEPENDENT_EXO = (0.1, 0.2, 0.3, 0.4, 0.5, 0.2, 0.2, 0.3, 0.2, 0.1, 0.2)


def cost_dependent_instance():
    """Symmetric continuum whose equilibrium moves with the cost curve.

    Eleven slots with departures at slot 10, so the last slot is unreachable
    padding; the humped exogenous load breaks the invariance property.
    """
    return NonatomicInstance.symmetric(T=11, C=5, exogenous=COST_DEPENDENT_EXO, departure=10)


def random_feasible_profile(rng, inst):
    rows = []
    for k in range(inst.K):
        a, d, C = inst.window(k)
        slots = range(a, d - C + 2)
        raw = [rng.random() if t in slots else 0.0 for t in range(1, inst.horizon.T + 1)]
        total = sum(raw)
        rows.append(tuple(v / total for v in raw))
    return MixedProfile(inst, tuple(rows))


# ---------------------------------------------------------------------------
# the invariance condition


@pytest.mark.parametrize("T, C, q", [(10, 3, 2), (11, 5, 1), (10, 5, 1)])
def test_invariance_quotient(T, C, q):
    inst = NonatomicInstance.symmetric(T=T, C=C, exogenous=tuple([1.0] * T))
    assert check_invariance_condition(inst).quotient == q


def test_invariance_condition_constant_exogenous():
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=tuple([1.0] * 10))
    check = check_invariance_condition(inst)
    assert check
    assert check.nondecreasing and check.convex and check.inequality_holds
    assert check.lhs == pytest.approx(0.0)
    assert check.quotient == 2


STEEP_CONVEX_EXO = (0.0,) * 7 + (1.0, 3.0, 6.0)


def test_invariance_condition_inequality_fails_on_steep_load():
    # q=2 samples slots 9, 6, 3: lhs = 2*3 - 0 - 0 = 6 >= 1
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=STEEP_CONVEX_EXO)
    check = check_invariance_condition(inst)
    assert check.nondecreasing and check.convex
    assert not check.inequality_holds and not check
    assert check.lhs == pytest.approx(6.0)


def test_invariance_condition_shape_subchecks():
    decreasing = NonatomicInstance.symmetric(T=10, C=3, exogenous=tuple(float(10 - t) for t in range(10)))
    check = check_invariance_condition(decreasing)
    assert not check.nondecreasing and not check
    concave = NonatomicInstance.symmetric(T=10, C=3, exogenous=(0, 5, 8, 9, 9.5, 9.7, 9.8, 9.85, 9.9, 9.91))
    check = check_invariance_condition(concave)
    assert check.nondecreasing and not check.convex and not check


def test_invariance_condition_scales_with_power():
    # the inequality reads the exogenous load in units of the charging power
    inst = NonatomicInstance.symmetric(T=10, C=3, power=20.0, exogenous=STEEP_CONVEX_EXO)
    check = check_invariance_condition(inst)
    assert check.inequality_holds and check
    assert check.lhs == pytest.approx(0.3)


def test_invariance_condition_underflow():
    # T=9, C=2 makes the referenced slot index fall below the horizon
    inst = NonatomicInstance.symmetric(T=9, C=2)
    with pytest.raises(ValueError):
        check_invariance_condition(inst)


# ---------------------------------------------------------------------------
# the cost-independent linear system


def holds_equal_loads(inst, masses) -> bool:
    """The definition, in rationals of the data, for the start masses of a
    symmetric full-window instance: the exact loads e_t / P + o_t of slots
    t and t + C are equal for t = 1..N-1, N = T - C + 1 the start count,
    and the masses sum to 1."""
    C = inst.classes[0].duration
    N = inst.horizon.T - C + 1
    P = Fraction(inst.power)
    loads = [Fraction(e) / P + sum(masses[max(0, i - C + 1) : i + 1]) for i, e in enumerate(inst.exogenous)]
    return len(masses) == N and all(loads[t] == loads[t + C] for t in range(N - 1)) and sum(masses) == 1


def test_symmetric_system_solution_is_consistent():
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=tuple([1.0] * 10))
    _, masses = solve_symmetric_invariant(inst)
    assert holds_equal_loads(inst, masses)


def _float_min_solution(inst) -> float:
    # least-squares float solve of the equal-load equations and the unit
    # mass, written from the definition through the slot-start incidence
    T, C = inst.horizon.T, inst.classes[0].duration
    N = T - C + 1
    incidence = np.array([[s <= i < s + C for s in range(N)] for i in range(T)], dtype=float)
    e = np.array([float(Fraction(v) / Fraction(inst.power)) for v in inst.exogenous])
    A = np.vstack([incidence[: N - 1] - incidence[C : C + N - 1], np.ones(N)])
    b = np.append(e[C : C + N - 1] - e[: N - 1], 1.0)
    return float(np.linalg.lstsq(A, b, rcond=None)[0].min())


def test_invariant_solver_matches_the_definition_on_random_instances():
    # every duration of every horizon up to 30 slots, C = T (one start) and
    # C >= N (chains of one index) included, on int, Fraction and float
    # loads, most of them nondecreasing and convex so that the gate passes
    rng = random.Random(207)
    seen = {"answer": 0, "negative": 0, "gate": 0, "geometry": 0, "one start": 0, "one-index chains": 0}
    for T in range(2, 31):
        for C in range(1, T + 1):
            kind = rng.choice((int, Fraction, float))
            steps = sorted(rng.choice((0, 0, 1, 2)) for _ in range(T - 1))
            if rng.random() < 0.2:
                rng.shuffle(steps)
            scale = {int: 1, Fraction: Fraction(1, rng.randint(1, 4 * T)), float: rng.uniform(0, 2 / T)}[kind]
            base = kind(rng.randint(0, 3))
            exogenous = tuple(base + scale * sum(steps[:i]) for i in range(T))
            power = rng.choice((1, 2, Fraction(1, 3)))
            inst = NonatomicInstance.symmetric(T, C, power=power, exogenous=exogenous)
            try:
                _, masses = solve_symmetric_invariant(inst)
            except PositivityCertificateError:
                seen["negative"] += 1
                low = _float_min_solution(inst)
                assert abs(low) <= 1e-9 or low < 0
                continue
            except InvarianceConditionError:
                seen["gate"] += 1
                assert not check_invariance_condition(inst)
                continue
            except ValueError as err:
                seen["geometry"] += 1
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    check_invariance_condition(inst)
                continue
            seen["answer"] += 1
            seen["one start"] += C == T
            seen["one-index chains"] += C >= T - C + 1
            assert min(masses) >= 0 and holds_equal_loads(inst, masses)
    assert all(seen.values()), seen


def test_invariant_solution_duration_three():
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=tuple([1.0] * 10))
    profile, masses = solve_symmetric_invariant(inst)
    expected = tuple(map(Fraction, ("1/4", "1/12", "0", "1/6", "1/6", "0", "1/12", "1/4")))
    assert np.allclose(profile.start_mass()[:8], [float(m) for m in expected], atol=1e-9)
    # the certified exact solution is the one returned, exactly
    assert masses == expected and all(type(m) is Fraction for m in masses)
    assert [float(m) for m in masses] == list(profile.start_mass()[:8])


def test_invariant_solution_duration_five():
    inst = NonatomicInstance.symmetric(T=10, C=5, exogenous=tuple([2.0] * 10))
    profile, system = solve_symmetric_invariant(inst)
    assert np.allclose(profile.start_mass()[:6], (0.5, 0, 0, 0, 0, 0.5), atol=1e-9)
    # the flat occupancy it induces is load-levelling: 0.5 everywhere
    assert np.allclose(profile.occupancy_mass(), 0.5, atol=1e-9)


def test_invariant_solution_is_equilibrium_for_every_admissible_cost():
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=tuple([1.0] * 10))
    profile, _ = solve_symmetric_invariant(inst)
    for cost in (SquareRoot(), Monomial(1, 2), Monomial(1, 8)):
        assert wardrop_gap(inst, cost, profile) <= 1e-7
        assert is_wardrop_equilibrium(inst, cost, profile, tol=1e-7)


@pytest.mark.parametrize("power, first", [(6, Fraction(11, 12)), (7, Fraction(6, 7)), (10, Fraction(3, 4))])
def test_invariant_solution_of_a_linear_ramp(power, first):
    # the load t / power rises by equal steps, which its floats do not take:
    # only an exact reading of the data finds it convex.  The same ramp in
    # other units, written in Fractions, must not be rounded through floats
    units = [(power, range(10)), (1, [Fraction(t, power) for t in range(10)])]
    units.append((Fraction(power, 3), [Fraction(t, 3) for t in range(10)]))
    for P, exogenous in units:
        inst = NonatomicInstance.symmetric(10, 5, power=P, exogenous=tuple(exogenous))
        assert check_invariance_condition(inst).convex
        profile, masses = solve_symmetric_invariant(inst)
        assert masses == (first, 0, 0, 0, 0, 1 - first)
        assert list(profile.start_mass()) == [float(first), 0, 0, 0, 0, float(1 - first), 0, 0, 0, 0]


def test_invariant_solver_rejects_violating_exogenous():
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=STEEP_CONVEX_EXO)
    with pytest.raises(InvarianceConditionError):
        solve_symmetric_invariant(inst)


def test_certificate_catches_loads_the_inequality_misses():
    # all three sub-checks pass here, yet the equal-load system needs
    # negative mass (the last slot's surge is invisible to the inequality,
    # which samples slots T-1, T-1-C, ...): the sign of the exact solution
    # is the authoritative gate
    exo = (0.0,) * 9 + (9.0,)
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=exo)
    assert check_invariance_condition(inst)
    with pytest.raises(PositivityCertificateError, match="negative start mass"):
        solve_symmetric_invariant(inst)


def test_invariant_solver_requires_full_window_single_class():
    two = NonatomicInstance.create(T=10, classes=[(0.5, 1, 10, 3), (0.5, 1, 10, 3)])
    with pytest.raises(ValueError):
        solve_symmetric_invariant(two)
    partial = NonatomicInstance.symmetric(T=10, C=3, departure=8)
    with pytest.raises(ValueError):
        solve_symmetric_invariant(partial)


# ---------------------------------------------------------------------------
# the equilibrium solver


def test_solver_requires_strictly_increasing_cost():
    inst = NonatomicInstance.symmetric(T=6, C=2)
    with pytest.raises(ValueError):
        solve_equilibrium(inst, Monomial(5, 0))


def test_solver_reaches_machine_gap_on_the_cost_dependent_instance():
    inst = cost_dependent_instance()
    for cost, first in ((SquareRoot(), 0.452706), (Monomial(1, 8), 0.419959)):
        eq = solve_equilibrium(inst, cost, tol=1e-9)
        assert eq.wardrop_gap <= 1e-9
        mass = eq.profile.start_mass()
        assert mass[0] == pytest.approx(first, abs=1e-4)
        support = {t for t in range(1, 12) if mass[t - 1] > 1e-8}
        assert support == {1, 6}
        assert is_wardrop_equilibrium(inst, cost, eq.profile, tol=1e-8)


def test_solver_equilibrium_maximizes_the_potential():
    rng = random.Random(201)
    inst = cost_dependent_instance()
    for cost in (Monomial(1, 2), SquareRoot()):
        eq = solve_equilibrium(inst, cost, tol=1e-10)
        best = potential_nonatomic(inst, cost, eq.profile)
        for _ in range(30):
            other = random_feasible_profile(rng, inst)
            assert potential_nonatomic(inst, cost, other) <= best + 1e-9


def test_solver_handles_multiple_classes():
    rng = random.Random(202)
    for trial in range(40):
        T = rng.randint(6, 10)
        classes = []
        K = rng.randint(2, 3)
        for _ in range(K):
            a = rng.randint(1, T - 2)
            d = rng.randint(a + 2, T)
            C = rng.randint(1, d - a)
            classes.append([0.0, a, d, C])
        weights = [rng.random() for _ in range(K)]
        for k, w in enumerate(weights):
            classes[k][0] = w / sum(weights)
        exo = tuple(0.5 * rng.random() for _ in range(T))
        inst = NonatomicInstance.create(T=T, classes=[tuple(c) for c in classes], exogenous=exo)
        for cost in (Monomial(1, 2), SquareRoot()):
            eq = solve_equilibrium(inst, cost, tol=1e-9)
            assert eq.wardrop_gap <= 1e-9
            assert is_wardrop_equilibrium(inst, cost, eq.profile, tol=1e-8)
            # every class's support pays that class's minimal cost
            for k in range(inst.K):
                costs = eq.class_costs[k]
                finite = [c for c in costs if math.isfinite(c)]
                for t, m in enumerate(eq.profile.distributions[k], start=1):
                    if m > 1e-8:
                        assert costs[t - 1] <= min(finite) + 1e-8 * max(1.0, abs(min(finite)))


def test_solver_handles_empty_slots_under_a_square_root():
    # zero exogenous load leaves slots empty, where sqrt(L) has an infinite
    # derivative; costs that undercut through an empty slot must still fill it
    rng = random.Random(204)
    for trial in range(40):
        T = rng.randint(4, 12)
        K = rng.randint(1, 3)
        raw = [rng.random() + 0.1 for _ in range(K)]
        classes = []
        for w in raw:
            a = rng.randint(1, T - 1)
            d = rng.randint(a + 1, T)
            classes.append((w / sum(raw), a, d, rng.randint(1, d - a + 1)))
        exo = tuple(0.0 if rng.random() < 0.6 else rng.random() for _ in range(T))
        inst = NonatomicInstance.create(T=T, classes=classes, exogenous=exo)
        eq = solve_equilibrium(inst, SquareRoot())
        assert wardrop_gap(inst, SquareRoot(), eq.profile) <= 1e-9


def steep_cost_instances():
    """400 small random instances, the n-th under L2, L3, sqrt(L) or L8 as
    n mod 4, at power 0.5, 1 or 4: under L8 at power 4 window costs reach
    1e4-1e6."""
    rng = random.Random(7)
    for n in range(400):
        T, K = rng.randint(6, 40), rng.randint(1, 6)
        raw = [rng.random() + 0.1 for _ in range(K)]
        classes = []
        for w in raw:
            C = rng.randint(1, max(1, T // 3))
            a = rng.randint(1, T - C + 1)
            d = rng.randint(a + C - 1, T)
            classes.append((w / sum(raw), a, d, C))
        exo = tuple(rng.choice((0.0, rng.uniform(0.0, 3.0))) for _ in range(T))
        power = rng.choice((0.5, 1, 4))
        cost = (Monomial(1, 2), Monomial(1, 3), SquareRoot(), Monomial(1, 8))[n % 4]
        yield n, NonatomicInstance.create(T=T, classes=classes, exogenous=exo, power=power), cost


def test_solver_balances_costs_to_tol_under_a_steep_cost():
    # T=39, one class, L8 at power 4: a balance threshold of 1e-13 times the
    # cost scale exceeds tol, so the solver stopped stepping at a gap above
    # tol and refused though no start undercut
    inst, cost = next((inst, cost) for n, inst, cost in steep_cost_instances() if n == 167)
    eq = solve_equilibrium(inst, cost, tol=1e-9)
    assert 1e-13 * max(c for c in eq.class_costs[0] if math.isfinite(c)) > 1e-9
    assert wardrop_gap(inst, cost, eq.profile) <= 1e-9


def test_solver_solves_random_instances_under_steep_costs():
    for n, inst, cost in steep_cost_instances():
        eq = solve_equilibrium(inst, cost, tol=1e-9)
        assert wardrop_gap(inst, cost, eq.profile) <= 1e-9, n


NARROW_SPANS = (6, 8, 10, 12, 6, 8, 10, 12)
WIDE_SPANS = (16, 20, 24, 28, 16, 20, 24, 28)


def daily_load(rng, T, base, swing):
    """Exogenous load: a daily sine of random phase plus noise."""
    phase = rng.uniform(0, 2 * math.pi)
    return [
        max(0.05, base + swing * math.sin(2 * math.pi * t / T + phase) + rng.gauss(0, 0.05))
        for t in range(T)
    ]


def daily_fleet(seed, spans, base=2.0, swing=0.8):
    """T=96 fleet of eight classes under a noisy daily sine load.

    ``spans`` gives each class's number of start slots.  Draws in the order
    of the benchmark's fleet generator, so ``daily_fleet(12, NARROW_SPANS,
    0.8, 0.5)`` is its low-load probe fleet: there an undamped Newton step
    drives masses negative and the square-root cost is evaluated at
    negative loads.
    """
    rng = random.Random(seed)
    T = 96
    exo = daily_load(rng, T, base, swing)
    spans = list(spans)
    durations = [4, 6, 8, 10, 4, 6, 8, 10]
    rng.shuffle(spans)
    rng.shuffle(durations)
    raw = [rng.uniform(0.5, 1.5) for _ in spans]
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    classes = []
    for w, n, C in zip(weights, spans, durations):
        a = rng.randint(1, T - (n + C - 1) + 1)
        classes.append((w, a, a + n + C - 2, C))
    return NonatomicInstance.create(T, classes, exogenous=exo)


def test_solver_keeps_loads_nonnegative_on_a_low_load_fleet():
    inst = daily_fleet(12, NARROW_SPANS, base=0.8, swing=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eq = solve_equilibrium(inst, SquareRoot())
    assert wardrop_gap(inst, SquareRoot(), eq.profile) <= 1e-9
    assert min(min(row) for row in eq.profile.distributions) >= 0.0


def test_solver_drops_every_blocking_start_in_one_step_on_a_wide_fleet():
    # from the uniform profile the equilibrium support is about 170 starts
    # smaller; dropping one start per step took 170 steps here
    inst = daily_fleet(5, WIDE_SPANS)
    eq = solve_equilibrium(inst, Monomial(1, 2))
    assert eq.iterations <= 50
    assert wardrop_gap(inst, Monomial(1, 2), eq.profile) <= 1e-9


def test_solver_memory_stays_small_on_a_wide_fleet():
    # W over the allowed starts only: one row per (class, start) of all K*T
    # pairs would push the peak past the bound
    inst, cost = daily_fleet(5, WIDE_SPANS), Monomial(1, 2)
    solve_equilibrium(inst, cost)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        solve_equilibrium(inst, cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("cost", [Monomial(1, 2), SquareRoot()], ids=["L2", "sqrtL"])
def test_class_costs_are_window_sums_of_the_slot_costs(cost):
    # windows inside slots 2..T-1 leave starts outside every action set at
    # both ends, so a start cost read off the wrong window shows here
    rng = random.Random(206)
    for _ in range(20):
        T, K = rng.randint(6, 14), rng.randint(2, 4)
        raw = [rng.random() + 0.1 for _ in range(K)]
        classes = []
        for w in raw:
            a = rng.randint(2, T - 2)
            d = rng.randint(a + 1, T - 1)
            classes.append((w / sum(raw), a, d, rng.randint(1, d - a + 1)))
        exo = tuple(rng.uniform(0.2, 2.0) for _ in range(T))
        inst = NonatomicInstance.create(T=T, classes=classes, exogenous=exo)
        eq = solve_equilibrium(inst, cost)
        slot_costs = cost(load(inst, eq.profile))
        for k in range(K):
            C, acts = inst.classes[k].duration, action_set(inst, k)
            for t in range(1, T + 1):
                got = eq.class_costs[k][t - 1]
                if t in acts:
                    want = sum(float(slot_costs[tau - 1]) for tau in range(t, t + C))
                    assert abs(got - want) <= 1e-12 * want
                else:
                    assert got == math.inf


def many_class_fleet(K, power=20):
    """T=96 fleet of K classes of weight 1/K under ``daily_fleet``'s load,
    each with 6-28 start slots and a duration of 4, 6, 8 or 10."""
    rng = random.Random(K)
    T = 96
    exo = daily_load(rng, T, 2.0, 0.8)
    classes = []
    for _ in range(K):
        n, C = rng.randint(6, 28), rng.choice((4, 6, 8, 10))
        a = rng.randint(1, T - (n + C - 1) + 1)
        classes.append((1.0 / K, a, a + n + C - 2, C))
    return NonatomicInstance.create(T, classes, power=power, exogenous=exo)


def test_solver_solves_a_many_class_fleet_within_budget():
    # an n x n least-squares Newton step (n active starts, rank at most T)
    # needs 781 evaluations here
    inst, cost = many_class_fleet(128), Monomial(1, 2)
    eq = solve_equilibrium(inst, cost, budget=500)
    assert wardrop_gap(inst, cost, eq.profile) <= 1e-9


@pytest.mark.parametrize(
    "inst, cost, falls_back",
    # on the narrow fleet a shorter step along the arc is kept where the full
    # projected step does not raise the potential
    [(daily_fleet(7, NARROW_SPANS), Monomial(1, 2), False), (many_class_fleet(128), Monomial(1, 2), True)],
    ids=["narrow-fleet-L2", "many-class-fleet-L2"],
)
def test_solver_stats_show_projected_and_fallback_steps(inst, cost, falls_back):
    eq = solve_equilibrium(inst, cost)
    stats = eq.stats
    assert (stats["steps"], stats["evals"]) == (eq.iterations, eq.cost_evaluations)
    assert stats["projected"] >= 1 and stats["arc"] >= 1
    assert (stats["fallbacks"] >= 1) == falls_back
    # a fallback drops at most one start and an arc step may drop none, so
    # some full-step projection dropped several
    assert stats["drops"] - stats["fallbacks"] > stats["projected"] - stats["arc"]
    assert stats["arc"] <= stats["projected"]
    assert stats["projected"] + stats["fallbacks"] <= stats["steps"]
    assert all(stats[k] >= 0.0 for k in ("jacobian_s", "solve_s", "cost_s", "check_s"))
    assert wardrop_gap(inst, cost, eq.profile) <= 1e-9


def test_solver_step_count_on_fixed_fleets():
    # the counters are deterministic: 258 steps here, where starting each
    # solve on every allowed start took 309
    L2 = Monomial(1, 2)
    fleets = [daily_fleet(seed, spans) for seed in range(6) for spans in (NARROW_SPANS, WIDE_SPANS)]
    steps = sum(solve_equilibrium(inst, L2).iterations for inst in [*fleets, many_class_fleet(128)])
    assert steps <= 284


@pytest.mark.parametrize("m", [7, 20, 45], ids=["m<T", "m=T", "m>T"])
def test_gram_solve_is_the_pseudoinverse_solution(m):
    rng = np.random.default_rng(m)
    T = 20
    for rank in (1, 5, min(m, T) - 1, min(m, T)):
        B = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, T))
        for r in (rng.standard_normal(m), B @ rng.standard_normal(T)):
            want = np.linalg.pinv(B @ B.T) @ r
            got = _gram_solve(B, r)
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_solver_matches_the_invariant_solution():
    # the invariant equilibrium is an oracle for the Newton solver: under
    # every admissible cost both must give the same (unique) occupancy
    for powers in ((1,), (1, 3, 10)):
        rng = random.Random(205)
        checked = 0
        while checked < 12:
            T = rng.randint(6, 14)
            C = rng.randint(2, 5)
            slope, curve = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.01)
            exo = tuple(0.5 + slope * t + curve * t * t for t in range(T))
            inst = NonatomicInstance.symmetric(T=T, C=C, power=rng.choice(powers), exogenous=exo)
            try:
                expected = solve_symmetric_invariant(inst)[0].occupancy_mass()
            except (ValueError, PositivityCertificateError):
                continue  # the condition fails or is undefined, or is not certified
            for cost in (Monomial(1, 2), Monomial(1, 4), SquareRoot()):
                eq = solve_equilibrium(inst, cost)
                assert np.max(np.abs(eq.profile.occupancy_mass() - expected)) <= 1e-9
            checked += 1


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
def test_solvers_reject_a_bad_tol(tol):
    inst = cost_dependent_instance()
    with pytest.raises(ValueError, match="tol must be a finite number above 0"):
        solve_equilibrium(inst, Monomial(1, 2), tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number above 0"):
        social_optimum_nonatomic(inst, Monomial(1, 2), tol=tol)


def test_wardrop_checker_rejects_non_equilibria():
    inst = cost_dependent_instance()
    uniform = MixedProfile.uniform(inst)
    assert not is_wardrop_equilibrium(inst, Monomial(1, 2), uniform)
    assert wardrop_gap(inst, Monomial(1, 2), uniform) > 1e-3


def test_solver_budget_exhaustion():
    # budget=1 allows only the evaluation of the uniform start, which is far
    # from the tolerance, so the solver refuses before its second evaluation.
    inst = cost_dependent_instance()
    with pytest.raises(ConvergenceError) as err:
        solve_equilibrium(inst, Monomial(1, 8), tol=1e-15, budget=1)
    assert err.value.profile is not None
    assert err.value.gap >= 0


def test_solver_never_spends_past_its_budget():
    inst = cost_dependent_instance()
    unbudgeted = solve_equilibrium(inst, Monomial(1, 8))
    for budget in range(1, 41):
        try:
            eq = solve_equilibrium(inst, Monomial(1, 8), budget=budget)
        except ConvergenceError:
            assert budget < unbudgeted.cost_evaluations
            continue
        assert eq.cost_evaluations <= budget
        if budget >= unbudgeted.cost_evaluations:
            assert eq.profile.start_mass().tolist() == unbudgeted.profile.start_mass().tolist()


def test_solver_returns_a_best_iterate_within_tol_when_the_budget_runs_out():
    # under sqrt(L) the fourth evaluation's iterate is within tol before its
    # active costs balance; the fifth would balance them
    inst = cost_dependent_instance()
    refused = []
    for budget in (1, 2, 3):
        with pytest.raises(ConvergenceError, match="budget spent") as err:
            solve_equilibrium(inst, SquareRoot(), budget=budget)
        refused.append(err.value.gap)
    assert refused[0] > 0.9 and refused[1] > 0.2 and 1e-4 < refused[2] < 1e-3
    eq = solve_equilibrium(inst, SquareRoot(), budget=4)
    assert eq.cost_evaluations == 4 and 0 < eq.wardrop_gap <= 1e-9
    assert wardrop_gap(inst, SquareRoot(), eq.profile) == pytest.approx(eq.wardrop_gap, abs=1e-15)
    slot_costs = SquareRoot()(load(inst, eq.profile))
    starts = action_set(inst, 0)
    expected = [sum(slot_costs[t - 1 : t + 4]) for t in starts]
    assert eq.class_costs[0][: len(starts)] == pytest.approx(expected, rel=1e-14)
    # the counter-example's L8 refusal stays a refusal at budget 5
    with pytest.raises(ConvergenceError) as err:
        solve_equilibrium(inst, Monomial(1, 8), budget=5)
    assert err.value.gap > 0.5


def test_solver_certifies_only_the_profile_it_returns_at_large_cost_scale():
    # at cost scale 4e13 a unit-mass error hides below a relative residual
    # test; the solver must either return a profile whose independent gap
    # meets the tolerance or refuse
    exo = tuple(40 + v for v in COST_DEPENDENT_EXO)
    inst = NonatomicInstance.symmetric(T=11, C=5, exogenous=exo, departure=10)
    try:
        eq = solve_equilibrium(inst, Monomial(1, 8), budget=100)
    except ConvergenceError as err:
        assert err.profile is not None and err.gap > 1e-9
        return
    assert wardrop_gap(inst, Monomial(1, 8), eq.profile) <= 1e-9


def test_equilibrium_report_fields():
    inst = cost_dependent_instance()
    eq = solve_equilibrium(inst, Monomial(1, 2))
    assert eq.iterations >= 0
    assert eq.cost_evaluations > 0
    assert len(eq.class_costs) == inst.K
    assert math.isinf(eq.class_costs[0][10])  # slot 11 is outside the action set


# ---------------------------------------------------------------------------
# social optimum and efficiency


def test_social_optimum_requires_convexity():
    inst = NonatomicInstance.symmetric(T=6, C=2)
    with pytest.raises(ValueError):
        social_optimum_nonatomic(inst, SquareRoot())


def test_social_optimum_dominates_feasible_profiles():
    rng = random.Random(203)
    inst = cost_dependent_instance()
    for cost in (Monomial(1, 2), Monomial(1, 4)):
        opt_profile, opt_cost = social_optimum_nonatomic(inst, cost)
        assert opt_cost == pytest.approx(grid_total_cost(inst, cost, opt_profile), rel=1e-12)
        for _ in range(40):
            other = random_feasible_profile(rng, inst)
            assert grid_total_cost(inst, cost, other) >= opt_cost - 1e-9


def test_efficiency_is_one_under_invariance():
    inst = NonatomicInstance.symmetric(T=10, C=3, exogenous=tuple([1.0] * 10))
    for cost in (Monomial(1, 2), Monomial(1, 4)):
        report = efficiency_nonatomic(inst, cost)
        assert report.value == pytest.approx(1.0, abs=1e-9)
        assert report.exact is None
        assert report.worst_cost >= report.optimum_cost - 1e-12


def test_efficiency_exceeds_one_off_equilibrium_question():
    # the ratio is still >= 1 up to solver tolerance even when the
    # invariance hypothesis fails and the equilibrium is cost-dependent
    inst = cost_dependent_instance()
    report = efficiency_nonatomic(inst, Monomial(1, 2))
    assert report.value >= 1.0 - 1e-9
