"""Tests for the finite-player game: enumeration, dynamics, efficiency.

The reference oracle below recomputes everything from the definitions in
plain Python (no numpy, no shared kernels) so the vectorized scans are
checked against an independent implementation.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chargegame import (
    AtomicInstance,
    BudgetExceededError,
    IterationBudgetError,
    Monomial,
    PricingMap,
    SquareRoot,
    StrategyProfile,
    action_set,
    best_response,
    best_response_dynamics,
    efficiency,
    enumerate_equilibria,
    grid_total_cost,
    is_nash,
    ne_proportion,
    potential_atomic,
    social_optimum,
    utility_atomic,
)
from chargegame.atomic import _composition_blocks, _scan_dtype, resolve_budget


# ---------------------------------------------------------------------------
# reference oracle, straight from the definitions


def oracle_loads(inst, starts):
    T = inst.horizon.T
    loads = list(inst.exogenous) if inst.exogenous else [0] * T
    for i, s in enumerate(starts):
        for t in range(s, s + inst.durations[i]):
            loads[t - 1] += inst.power
    return loads


def oracle_window_cost(inst, cost, starts, i):
    loads = oracle_loads(inst, starts)
    s, C = starts[i], inst.durations[i]
    return sum(cost(loads[t - 1]) for t in range(s, s + C))


def oracle_is_ne(inst, cost, starts):
    for i in range(inst.I):
        here = oracle_window_cost(inst, cost, starts, i)
        for alt in action_set(inst, i):
            trial = list(starts)
            trial[i] = alt
            if oracle_window_cost(inst, cost, tuple(trial), i) < here:
                return False
    return True


def oracle_best_response(inst, cost, starts, i):
    best_slot, best_cost = None, None
    for alt in action_set(inst, i):
        trial = list(starts)
        trial[i] = alt
        c = oracle_window_cost(inst, cost, tuple(trial), i)
        if best_cost is None or c < best_cost:
            best_slot, best_cost = alt, c
    return best_slot


def oracle_occupancy(inst, starts):
    T = inst.horizon.T
    occ = [0] * T
    for i, s in enumerate(starts):
        for t in range(s, s + inst.durations[i]):
            occ[t - 1] += 1
    return tuple(occ)


def oracle_scan(inst, cost):
    """Distinct NE occupancies with costs, NE profile count, optimum cost."""
    spaces = [list(action_set(inst, i)) for i in range(inst.I)]
    ne = {}
    ne_profiles = 0
    opt = None
    for starts in itertools.product(*spaces):
        occ = oracle_occupancy(inst, starts)
        tc = sum(cost(v) for v in oracle_loads(inst, starts))
        if opt is None or tc < opt:
            opt = tc
        if oracle_is_ne(inst, cost, starts):
            ne_profiles += 1
            ne[occ] = tc
    return ne, ne_profiles, opt


def random_symmetric_instance(rng, max_T=7, max_I=4, max_C=3):
    T = rng.randint(3, max_T)
    C = rng.randint(1, min(max_C, T))
    I = rng.randint(1, max_I)
    exo = tuple(rng.randint(0, 5) for _ in range(T))
    return AtomicInstance.symmetric(T=T, I=I, C=C, exogenous=exo)


def random_heterogeneous_instance(rng, max_T=7, max_I=3):
    T = rng.randint(4, max_T)
    players = []
    for _ in range(rng.randint(1, max_I)):
        a = rng.randint(1, T - 1)
        d = rng.randint(a + 1, T)
        C = rng.randint(1, d - a + 1)
        players.append((a, d, C))
    exo = tuple(rng.randint(0, 4) for _ in range(T))
    return AtomicInstance.create(T=T, players=players, exogenous=exo)


# ---------------------------------------------------------------------------
# best response and equilibrium checks


def test_best_response_matches_oracle():
    rng = random.Random(101)
    f = Monomial(1, 2)
    for _ in range(40):
        inst = random_symmetric_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        for i in range(inst.I):
            assert best_response(inst, f, StrategyProfile(starts), i) == \
                oracle_best_response(inst, f, starts, i)


def test_best_response_ignores_monotone_pricing():
    # the first slot maximising the priced utility is the best response
    rng = random.Random(102)
    f = Monomial(1, 2)
    cube = PricingMap(lambda x: x**3, "cube")
    for _ in range(20):
        inst = random_heterogeneous_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        for i in range(inst.I):

            def priced(t):
                moved = starts[:i] + (t,) + starts[i + 1 :]
                return utility_atomic(inst, f, moved, i, pricing=cube)

            first_argmax = max(action_set(inst, i), key=priced)
            assert first_argmax == best_response(inst, f, StrategyProfile(starts), i)


def test_is_nash_matches_oracle():
    rng = random.Random(103)
    f = Monomial(1, 2)
    for _ in range(30):
        inst = random_heterogeneous_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        assert is_nash(inst, f, StrategyProfile(starts)) == oracle_is_ne(inst, f, starts)


def test_known_counterexample_instance():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = Monomial(1, 2)
    eq = enumerate_equilibria(inst, f)
    occupancies = sorted(c.occupancy for c in eq.equilibria)
    assert occupancies == [(1, 1, 0, 1, 2, 1), (1, 1, 0, 2, 2, 0), (2, 2, 0, 1, 1, 0)]
    assert eq.complete
    report = efficiency(inst, f)
    assert report.exact == Fraction(56, 56)
    assert report.worst_cost == 56
    assert report.optimum_cost == 56


# ---------------------------------------------------------------------------
# best-response dynamics


def test_dynamics_reaches_equilibrium_with_increasing_trace():
    rng = random.Random(104)
    f = Monomial(1, 2)
    for _ in range(30):
        inst = random_symmetric_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        final, trace = best_response_dynamics(inst, f, StrategyProfile(starts))
        assert is_nash(inst, f, final)
        assert all(b > a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == potential_atomic(inst, f, final)


def test_dynamics_from_equilibrium_is_a_fixed_point():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = Monomial(1, 2)
    eq = enumerate_equilibria(inst, f, method="profiles")
    start = StrategyProfile((1, 4, 5))
    assert is_nash(inst, f, start)
    final, trace = best_response_dynamics(inst, f, start)
    assert final.starts == start.starts
    assert len(trace) == 1


def test_dynamics_sweep_budget():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = Monomial(1, 2)
    with pytest.raises(IterationBudgetError):
        best_response_dynamics(inst, f, StrategyProfile((1, 1, 1)), max_sweeps=0)


# ---------------------------------------------------------------------------
# exhaustive scans against the oracle


@pytest.mark.parametrize("method", ["configurations", "profiles"])
def test_enumeration_matches_oracle_symmetric(method):
    rng = random.Random(105)
    f = Monomial(1, 2)
    for _ in range(25):
        inst = random_symmetric_instance(rng)
        ne, ne_profiles, opt = oracle_scan(inst, f)
        eq = enumerate_equilibria(inst, f, method=method)
        assert eq.complete
        assert {c.occupancy for c in eq.equilibria} == set(ne)
        opt_config, opt_cost = social_optimum(inst, f, method=method)
        assert opt_cost == opt
        assert sum(opt_config.occupancy) == inst.I * inst.durations[0]


def test_enumeration_matches_oracle_heterogeneous():
    rng = random.Random(106)
    f = Monomial(1, 2)
    for _ in range(20):
        inst = random_heterogeneous_instance(rng)
        ne, ne_profiles, opt = oracle_scan(inst, f)
        eq = enumerate_equilibria(inst, f)
        assert eq.method == ("configurations" if inst.is_symmetric else "profiles")
        assert {c.occupancy for c in eq.equilibria} == set(ne)
        _, opt_cost = social_optimum(inst, f)
        assert opt_cost == opt


def test_efficiency_matches_oracle_exactly():
    rng = random.Random(107)
    f = Monomial(1, 2)
    for _ in range(15):
        inst = random_symmetric_instance(rng)
        ne, _, opt = oracle_scan(inst, f)
        report = efficiency(inst, f)
        assert report.exact == Fraction(max(ne.values()), opt)
        assert report.value == pytest.approx(float(report.exact))
        assert report.exact >= 1


def test_ne_proportion_units():
    rng = random.Random(108)
    f = Monomial(1, 2)
    for _ in range(10):
        inst = random_symmetric_instance(rng, max_T=6, max_I=3)
        ne, ne_profiles, _ = oracle_scan(inst, f)
        spaces = [len(list(action_set(inst, i))) for i in range(inst.I)]
        A, I = spaces[0], inst.I
        config_space = math.comb(I + A - 1, A - 1)
        assert ne_proportion(inst, f) == pytest.approx(len(ne) / config_space)
        assert ne_proportion(inst, f, method="profiles") == pytest.approx(
            ne_profiles / math.prod(spaces)
        )


def test_big_exponent_uses_exact_arithmetic():
    # loads up to 21 with k = 20 overflow int64; results must still be exact
    inst = AtomicInstance.symmetric(T=6, I=6, C=2, power=3, exogenous=(1, 0, 2, 0, 1, 0))
    f = Monomial(1, 20)
    ne, _, opt = oracle_scan(inst, f)
    report = efficiency(inst, f)
    assert report.exact == Fraction(max(ne.values()), opt)
    assert max(ne.values()) > 2**62  # the scan really left the int64 range
    assert isinstance(report.worst_cost, int)


def test_float_cost_path():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = SquareRoot()
    ne, _, opt = oracle_scan(inst, f)
    eq = enumerate_equilibria(inst, f)
    assert {c.occupancy for c in eq.equilibria} == set(ne)
    report = efficiency(inst, f)
    assert report.exact is None
    assert report.value == pytest.approx(max(ne.values()) / opt)


@pytest.mark.parametrize(
    "inst, f, dtype",
    [
        # T * f(max load) = 4 * 3**37 < 2**62 <= 4 * 3**38: the switch from both sides
        (AtomicInstance.symmetric(4, 2, 2), Monomial(1, 37), np.int64),
        (AtomicInstance.symmetric(4, 2, 2), Monomial(1, 38), object),
        (AtomicInstance.symmetric(4, 2, 2, exogenous=(0.5, 1.25, 0.75, 2.5)), SquareRoot(), np.float64),
    ],
)
def test_block_kernel_matches_scalar_kernel_on_every_dtype(inst, f, dtype):
    assert _scan_dtype(inst, f) is dtype
    by_configs = enumerate_equilibria(inst, f, method="configurations")
    by_profiles = enumerate_equilibria(inst, f, method="profiles")
    assert by_configs.equilibria == by_profiles.equilibria
    assert by_configs.costs == pytest.approx(by_profiles.costs, rel=1e-12)
    if dtype is not np.float64:
        assert by_configs.costs == by_profiles.costs
        exact = efficiency(inst, f, method="configurations").exact
        assert exact is not None
        assert exact == efficiency(inst, f, method="profiles").exact


@pytest.mark.parametrize("max_rows", [1, 3, 7, 10**6])
def test_composition_blocks_match_brute_force(max_rows):
    for total in range(5):
        for parts in range(1, 5):
            blocks = list(_composition_blocks(total, parts, max_rows))
            assert all(b.dtype == np.int64 and 1 <= b.shape[0] <= max_rows for b in blocks)
            brute = [
                row for row in itertools.product(range(total + 1), repeat=parts) if sum(row) == total
            ]
            assert np.vstack(blocks).tolist() == [list(row) for row in brute]


# ---------------------------------------------------------------------------
# budgets


def test_budget_flags_incomplete_enumeration():
    inst = AtomicInstance.symmetric(T=8, I=4, C=2)
    f = Monomial(1, 2)
    eq = enumerate_equilibria(inst, f, budget=10)
    assert not eq.complete
    assert eq.examined <= 10 < eq.space_size


def test_budget_aborts_optimum_and_efficiency():
    inst = AtomicInstance.symmetric(T=8, I=4, C=2)
    f = Monomial(1, 2)
    with pytest.raises(BudgetExceededError):
        social_optimum(inst, f, budget=10)
    with pytest.raises(BudgetExceededError) as err:
        efficiency(inst, f, budget=10)
    assert err.value.partial is not None and not err.value.partial.complete
    with pytest.raises(BudgetExceededError):
        ne_proportion(inst, f, budget=10)


def test_resolve_budget_sources(monkeypatch):
    monkeypatch.delenv("CHARGE_GAME_BUDGET", raising=False)
    assert resolve_budget(None) == 10**8
    assert resolve_budget(None, default=55) == 55
    assert resolve_budget(123) == 123
    monkeypatch.setenv("CHARGE_GAME_BUDGET", "777")
    assert resolve_budget(None) == 777
    assert resolve_budget(42) == 42  # explicit argument still wins


def test_resolve_budget_rejects_budgets_below_one(monkeypatch):
    monkeypatch.delenv("CHARGE_GAME_BUDGET", raising=False)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            resolve_budget(bad)
    monkeypatch.setenv("CHARGE_GAME_BUDGET", "-5")
    with pytest.raises(ValueError):
        resolve_budget(None)


def test_budget_is_exact_across_block_edges():
    # 50,388 configurations; the scan evaluates them in blocks of 8,192
    inst = AtomicInstance.symmetric(10, 12, 3)
    f = Monomial(1, 2)
    full = enumerate_equilibria(inst, f)
    assert full.complete and full.examined == full.space_size == 50388
    for budget in (8191, 8192, 8193, 50387, 50388):
        eq = enumerate_equilibria(inst, f, budget=budget)
        assert eq.examined == min(budget, full.space_size)
        assert eq.complete is (budget == 50388)
        assert set(eq.equilibria) <= set(full.equilibria)
        if eq.complete:
            assert eq.equilibria == full.equilibria and eq.costs == full.costs


def test_budgeted_scan_never_builds_the_whole_space():
    # 2.2e34 configurations: the scan must stop at the budget, not build them
    eq = enumerate_equilibria(AtomicInstance.symmetric(96, 40, 2), Monomial(1, 2), budget=20000)
    assert eq.examined == 20000
    assert eq.space_size == 22463319921506831425909253320240400
    assert eq.complete is False


def test_budget_env_var_reaches_the_scan(monkeypatch):
    inst = AtomicInstance.symmetric(T=8, I=4, C=2)
    monkeypatch.setenv("CHARGE_GAME_BUDGET", "10")
    eq = enumerate_equilibria(inst, Monomial(1, 2))
    assert not eq.complete
